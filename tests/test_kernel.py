"""The batched closed-form kernel against the polynomial-Gaussian reference
and a 50-digit evaluation of the same Gaussian sums."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference import mpgauss
from reference import polygauss as ref

from sqbell import fock_sim as fs
from sqbell import gauss_poly as gp
from sqbell import kernel
from sqbell import optimize as op
from sqbell import resources as rs
from sqbell.conditioning import LossyProjectorWarning
from sqbell.errors import DegeneratePostselectionError, PhysicalityError
from sqbell.symplectic import scheme_four_mode_char
from sqbell.teleport import fidelity_closed_form

P_RTOL = 1e-9
F_ATOL = 1e-10
# The polynomial-Gaussian reference adds up signed terms whose magnitudes
# sum to `scale`, so its own roundoff is a few eps * scale / P; where that
# exceeds the tolerances above (tiny P, e.g. s = 0 with lossy on/off
# detectors), the comparison allows it.  A 50-digit evaluation of the same
# determinant sums put the kernel within 1e-15 of the exact F on those grids.
REFERENCE_ULPS = 8.0

TABLE2_S = {0.6: 0.00057, 0.8: 0.0046, 1.0: 0.011, 1.2: 0.022,
            1.4: 0.036, 1.6: 0.056, 1.8: 0.082, 2.0: 0.12}

# the scheme configurations the acceptance criteria evaluate
ACCEPTANCE = (
    [("ideal", rs.SchemeConfig(r=r, s=s)) for r, s in TABLE2_S.items()]
    + [("on-off", rs.SchemeConfig(r=1.6, s=s, T_loss=1.0 - ell))
       for ell in (0.0, 0.1, 0.2, 0.3) for s in (0.0, 0.05, 1.6)]
    + [("ideal", rs.SchemeConfig(r=0.6, s=0.01)),
       ("ideal", rs.SchemeConfig(r=0.8, s=0.005, T1=0.995, T2=0.995)),
       ("ideal", rs.SchemeConfig(r=0.6, s=0.01, T_loss=0.85)),
       ("on-off", rs.SchemeConfig(r=0.6, s=0.01)),
       ("on-off", rs.SchemeConfig(r=0.8, s=0.05, eta3=0.3, eta4=0.2)),
       ("on-off", rs.SchemeConfig(r=0.6, s=0.01, T_loss=0.85)),
       ("on-off", rs.SchemeConfig(r=0.8, s=0.02, T_loss=0.85))]
)


def _reference(cfg, detector):
    """P, F and the relative roundoff of the polynomial-Gaussian reference."""
    chi, P, scale = ref.scheme(cfg, detector)
    return P, ref.fidelity(chi), REFERENCE_ULPS * np.finfo(float).eps * scale / P


def _assert_matches(cfgs, detector):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LossyProjectorWarning)
        P, F, status = rs.scheme_pf(cfgs, detector)
    assert list(status) == [kernel.OK] * len(cfgs)
    for cfg, p, f in zip(cfgs, P, F):
        p_ref, f_ref, roundoff = _reference(cfg, detector)
        assert p == pytest.approx(p_ref, rel=max(P_RTOL, roundoff), abs=0.0), cfg
        assert f == pytest.approx(f_ref, rel=0.0, abs=max(F_ATOL, roundoff)), cfg


def test_source_exponents_match_stepwise_construction():
    from sqbell import symplectic as sy

    cfg = rs.SchemeConfig(r=0.9, s=0.3, phi_zeta=0.4, phi_xi=2.1, T1=0.93,
                          T2=0.97, T_loss=0.8, n_thermal=0.2)
    chi = sy.vacuum_char(4)
    chi = sy.apply_linear(chi, sy.squeeze_matrix(sy.SqueezeParam(cfg.r, cfg.phi_zeta), (0, 1), 4))
    chi = sy.apply_linear(chi, sy.squeeze_matrix(sy.SqueezeParam(cfg.s, cfg.phi_xi), (2, 3), 4))
    for mode in range(4):
        chi = sy.loss_channel(chi, mode, cfg.T_loss, cfg.n_thermal)
    chi = sy.beam_splitter_substitute(chi, (0, 2), cfg.T1)
    chi = sy.beam_splitter_substitute(chi, (1, 3), cfg.T2)
    assert np.allclose(scheme_four_mode_char(cfg).exponent, chi.exponent,
                       rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("detector", ["ideal", "on-off"])
def test_acceptance_configurations(detector):
    _assert_matches([cfg for det, cfg in ACCEPTANCE if det == detector], detector)


@pytest.mark.parametrize("r", [0.6, 1.2, 2.0])
def test_fig3_fig6_grids(r):
    grid = np.linspace(0.0, r, 61)[::6]
    _assert_matches([rs.SchemeConfig(r=r, s=float(s)) for s in grid], "ideal")
    _assert_matches([rs.SchemeConfig(r=r, s=float(s), T_loss=0.85) for s in grid],
                    "on-off")


@settings(max_examples=30, deadline=None)
@given(r=st.floats(0.2, 1.8), s=st.floats(0.0, 1.0),
       phi_zeta=st.floats(0.0, 2 * np.pi), phi_xi=st.floats(0.0, 2 * np.pi),
       T1=st.floats(0.85, 0.995), T2=st.floats(0.85, 0.995),
       T_loss=st.floats(0.6, 1.0), n_thermal=st.floats(0.0, 0.3),
       on_det=st.booleans(), eta3=st.floats(0.1, 1.0), eta4=st.floats(0.1, 1.0),
       detector=st.sampled_from(["ideal", "on-off"]))
def test_kernel_matches_gauss_poly_property(r, s, phi_zeta, phi_xi, T1, T2, T_loss,
                                            n_thermal, on_det, eta3, eta4, detector):
    cfg = rs.SchemeConfig(r=r, s=s, phi_zeta=phi_zeta, phi_xi=phi_xi, T1=T1, T2=T2,
                          T_loss=T_loss, n_thermal=n_thermal, eta3=eta3, eta4=eta4,
                          loss_on_detector_modes=on_det)
    _assert_matches([cfg], detector)


BETAS = [(b1, b2) for b1 in (0.0, 0.35, 0.35j, -0.25 + 0.2j, 0.45 - 0.3j)
         for b2 in (0.0, -0.3, 0.25j, 0.3 + 0.25j, -0.2 - 0.35j)]
# r = 1, s = 0 behind nearly transmitting mixers: P is down to 3e-11, and the
# four on/off terms cancel to that fraction of their magnitudes
EDGE = ([("on-off", rs.SchemeConfig(r=1.0, s=0.0, T1=T, T2=T, eta3=eta, eta4=eta))
         for T in (0.99999, 0.99) for eta in (0.25, 0.515625, 1.0)]
        + [("ideal", rs.SchemeConfig(r=1.0, s=s, T1=0.99999, T2=0.99999))
           for s in (0.0, 1e-3)])


def _assert_chi_matches_mpmath(detector, cfg):
    """P chi within 1e-12 P of 50 digits on the beta grid; chi(0, 0) = 1."""
    b1 = np.array([b for b, _ in BETAS])
    b2 = np.array([b for _, b in BETAS])
    S = scheme_four_mode_char(cfg).exponent
    x = np.stack([b1.real, b1.imag, b2.real, b2.imag], -1)
    if detector == "ideal":
        exact, P, _ = mpgauss.ideal(S, x)
    else:
        exact, P, _ = mpgauss.onoff(S, cfg.eta3, cfg.eta4, x)
    got = kernel.heralded_chi(S[None], detector, cfg.eta3, cfg.eta4)(b1, b2)[0]
    worst = max(abs(mpgauss.mp.mpf(float(g)) - e) for g, e in zip(got, exact))
    assert worst <= 1e-12 * P, (cfg, float(worst / P))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LossyProjectorWarning)
        state = rs.scheme_state(cfg, detector)
    assert abs(state.chi_at(0, 0) - 1.0) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("detector, cfg", EDGE)
def test_heralded_chi_matches_mpmath_at_edges(detector, cfg):
    _assert_chi_matches_mpmath(detector, cfg)


def test_heralded_chi_matches_mpmath_on_acceptance_configurations():
    for detector, cfg in ACCEPTANCE:
        _assert_chi_matches_mpmath(detector, cfg)


@settings(max_examples=20, deadline=None)
@given(r=st.floats(0.2, 1.8), s=st.floats(0.0, 1.0),
       phi_zeta=st.floats(0.0, 2 * np.pi), phi_xi=st.floats(0.0, 2 * np.pi),
       T=st.floats(0.85, 0.995), T_loss=st.floats(0.6, 1.0),
       eta3=st.floats(0.1, 1.0), eta4=st.floats(0.1, 1.0),
       detector=st.sampled_from(["ideal", "on-off"]),
       x=st.lists(st.floats(-0.6, 0.6), min_size=4, max_size=4))
def test_heralded_chi_matches_gauss_poly_property(r, s, phi_zeta, phi_xi, T, T_loss,
                                                  eta3, eta4, detector, x):
    cfg = rs.SchemeConfig(r=r, s=s, phi_zeta=phi_zeta, phi_xi=phi_xi, T1=T, T2=T,
                          T_loss=T_loss, eta3=eta3, eta4=eta4)
    chi_ref, P, scale = ref.scheme(cfg, detector)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LossyProjectorWarning)
        state = rs.scheme_state(cfg, detector)
    expected = gp.evaluate(chi_ref, np.array(x)).real
    tol = max(1e-10, REFERENCE_ULPS * np.finfo(float).eps * scale / P)
    assert state.chi_at(x[0] + 1j * x[1], x[2] + 1j * x[3]) == pytest.approx(
        expected, rel=0.0, abs=tol)


def test_squeezed_bell_chi_matches_gauss_poly():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(20, 4)) * 0.7
    for r, d in ((0.0, 0.3), (0.7, 0.0), (1.3, -1.1), (2.2, 0.9)):
        got = kernel.squeezed_bell_chi(r, d, x[:, 0] + 1j * x[:, 1],
                                       x[:, 2] + 1j * x[:, 3])
        expected = gp.evaluate(ref.squeezed_bell(r, d), x).real
        assert np.max(np.abs(got - expected)) < 1e-13, (r, d)


def test_lossy_projector_warning_on_kernel_path():
    with pytest.warns(LossyProjectorWarning):
        rs.scheme_pf([rs.SchemeConfig(r=0.5, s=0.02, T_loss=0.9)], "ideal")
    with warnings.catch_warnings():
        warnings.simplefilter("error", LossyProjectorWarning)
        rs.scheme_pf([rs.SchemeConfig(r=0.5, s=0.02)], "ideal")
        rs.scheme_pf([rs.SchemeConfig(r=0.5, s=0.02, T_loss=0.9)], "on-off")


@pytest.mark.parametrize("r", [6.0, 8.0, 10.0, 15.0, 20.0])
def test_lossless_source_never_warns(r):
    # at these r the log-determinant of S is lost to roundoff
    with warnings.catch_warnings():
        warnings.simplefilter("error", LossyProjectorWarning)
        rs.scheme_pf([rs.SchemeConfig(r=r, s=0.05)], "ideal")


@pytest.mark.parametrize("noise", [dict(T_loss=0.9), dict(T_loss=0.9, n_thermal=0.1)])
@pytest.mark.parametrize("r", [3.0, 20.0])
def test_lossy_source_warns_with_ideal_projectors_only(r, noise):
    cfg = rs.SchemeConfig(r=r, s=0.05, **noise)
    with pytest.warns(LossyProjectorWarning):
        rs.scheme_pf([rs.SchemeConfig(r=0.5), cfg], "ideal")
    with warnings.catch_warnings():
        warnings.simplefilter("error", LossyProjectorWarning)
        rs.scheme_pf([cfg], "on-off")


def test_thermal_occupation_without_loss_does_not_warn():
    # n_thermal enters only through 1 - T_loss: at T_loss = 1 the source is pure
    cfg = rs.SchemeConfig(r=0.5, s=0.05, n_thermal=0.1)
    assert np.array_equal(kernel.exponents_of([cfg]),
                          kernel.exponents_of([cfg.with_(n_thermal=0.0)]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", LossyProjectorWarning)
        rs.scheme_pf([cfg], "ideal")
        rs.scheme_state(cfg, "ideal")
        op.optimize_s(cfg, "ideal")
        op.sweep(op.SweepSpec(base=cfg, axis="r", grid=(0.5, 1.0)))


def test_lossy_projector_warning_points_at_the_caller():
    cfg = rs.SchemeConfig(r=0.5, s=0.02, T_loss=0.9)
    for call in (lambda: rs.scheme_state(cfg, "ideal"),
                 lambda: rs.scheme_pf([cfg], "ideal"),
                 lambda: op.optimize_s(cfg, "ideal"),
                 lambda: op.optimize_s_many([cfg], "ideal"),
                 lambda: op.sweep(op.SweepSpec(base=cfg, axis="s", grid=(0.0, 0.02))),
                 lambda: op.sweep(op.SweepSpec(base=cfg, axis="s", grid=(0.0, 0.02),
                                               optimize_s_at_each=True))):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert caught
        assert {(w.category, w.filename) for w in caught} == {
            (LossyProjectorWarning, __file__)}


CONFIGS = st.builds(
    rs.SchemeConfig, r=st.floats(0.0, 2.5), s=st.floats(0.0, 2.5),
    phi_zeta=st.floats(0.0, 2 * np.pi), phi_xi=st.floats(0.0, 2 * np.pi),
    T1=st.floats(0.5, 1.0), T2=st.floats(0.5, 1.0), T_loss=st.floats(0.3, 1.0),
    eta3=st.floats(0.01, 1.0), eta4=st.floats(0.01, 1.0),
    n_thermal=st.floats(0.0, 1.0), loss_on_detector_modes=st.booleans())


@settings(max_examples=40, deadline=None)
@given(cfgs=st.lists(CONFIGS, min_size=2, max_size=12),
       detector=st.sampled_from(["ideal", "on-off"]))
def test_scheme_pf_is_batch_invariant(cfgs, detector):
    # the lockstep optimizer's traces equal the one-at-a-time ones because
    # each point's P, F and status do not depend on the rest of its batch
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LossyProjectorWarning)
        batch = kernel.scheme_pf(kernel.exponents_of(cfgs), detector,
                                 [c.eta3 for c in cfgs], [c.eta4 for c in cfgs])
        singles = [kernel.scheme_pf(kernel.exponents_of([c]), detector,
                                    [c.eta3], [c.eta4]) for c in cfgs]
    for got, alone in zip(batch, zip(*singles)):
        assert got.tobytes() == np.concatenate(alone).tobytes()


@pytest.mark.parametrize("eta", [0.15, 0.3, 0.5, 0.77])
def test_vacuum_ancillas_degenerate_on_both_paths(eta):
    # r = 0 and s = 0: nothing reaches the detectors, whatever the roundoff
    cfg = rs.SchemeConfig(r=0.0, s=0.0, T1=0.9, T2=0.9, eta3=eta, eta4=eta)
    with pytest.raises(DegeneratePostselectionError):
        rs.scheme_state(cfg, "on-off")
    P, F, status = rs.scheme_pf([cfg], "on-off")
    assert status[0] == kernel.DEGENERATE and np.isnan(F[0])
    with pytest.raises(DegeneratePostselectionError):
        op.optimize_s(cfg, "on-off")


def test_ideal_vacuum_ancillas_degenerate_on_both_paths():
    cfg = rs.SchemeConfig(r=0.0, s=0.0, T1=0.9, T2=0.9)
    with pytest.raises(DegeneratePostselectionError):
        rs.scheme_state(cfg, "ideal")
    assert rs.scheme_pf([cfg], "ideal")[2][0] == kernel.DEGENERATE


def test_overflowed_heralding_probability_is_unphysical():
    # on/off heralding at r = 30 overflows P to inf, which is no degeneracy
    cfg = rs.SchemeConfig(r=30.0)
    P, F, status = rs.scheme_pf([cfg], "on-off")
    assert np.isinf(P[0]) and np.isnan(F[0])
    assert status[0] == kernel.UNPHYSICAL
    with pytest.raises(PhysicalityError):
        op.optimize_s(cfg, "on-off")


def test_unknown_detector_rejected():
    cfg = rs.SchemeConfig(r=1.0)
    for detector in ("pnr", "onoff"):
        for build in (rs.scheme_pf, rs.scheme_state, fs.scheme_oracle):
            with pytest.raises(ValueError, match="unknown detector kind"):
                build([cfg] if build is rs.scheme_pf else cfg, detector)


def test_optimize_s_trace_order_and_length():
    cfg = rs.SchemeConfig(r=1.2, T_loss=0.9)
    res = op.optimize_s(cfg, "on-off")
    grid = np.linspace(0.0, cfg.r, op.COARSE_POINTS)
    assert [s for s, _ in res.trace[:op.COARSE_POINTS]] == list(grid)
    # golden section: two interior points, one per step until the bracket
    # is narrower than the tolerance, then the midpoint
    lo, hi = res.bracket
    steps = int(np.ceil(np.log(op.BRACKET_TOL / (2 * cfg.r / (op.COARSE_POINTS - 1)))
                        / np.log(op._INV_PHI)))
    assert len(res.trace) == op.COARSE_POINTS + 2 + steps + 1
    assert res.trace[-1][0] == pytest.approx(0.5 * (lo + hi), abs=0.0)
    for s, f in res.trace[::7]:
        assert f == pytest.approx(_reference(cfg.with_(s=s), "on-off")[1],
                                  abs=F_ATOL)


def test_optimize_delta_closed_form():
    r = 1.1
    res = op.optimize_delta(r)
    assert [d for d, _ in res.trace] == [0.0, np.pi / 2, np.pi / 4]
    assert res.bracket == (res.s_star, res.s_star)
    f_at = fidelity_closed_form(rs.theoretical_state("squeezed-bell", r, res.s_star))
    assert res.f_star == pytest.approx(f_at, abs=1e-12)
    for d in np.linspace(0.0, np.pi / 2, 13):
        f = fidelity_closed_form(rs.theoretical_state("squeezed-bell", r, float(d)))
        assert f <= res.f_star + 1e-12


def test_squeezed_bell_fidelity_matches_gauss_poly():
    r = np.linspace(0.05, 2.5, 15)
    d = np.linspace(-1.5, 1.5, 13)
    closed = kernel.squeezed_bell_fidelity(r[:, None], d[None, :])
    assert closed.shape == (15, 13)
    for i, ri in enumerate(r):
        for j, dj in enumerate(d):
            f_ref = ref.fidelity(ref.squeezed_bell(float(ri), float(dj)))
            assert closed[i, j] == pytest.approx(f_ref, rel=1e-11, abs=0.0), (ri, dj)


@pytest.mark.parametrize("family", rs.THEORETICAL_FAMILIES)
@pytest.mark.parametrize("r", [0.5, 0.8])
def test_squeezed_bell_fidelity_matches_fock_oracle(family, r):
    # (1/pi) Int d^2lam e^{-|lam|^2} chi(-conj(lam), -lam) by Gauss-Hermite
    # quadrature over the characteristic function of the Fock construction
    delta = 0.6 if family == "squeezed-bell" else None
    oracle = fs.theoretical_oracle(family, r, delta, cutoff=30)
    flat = oracle.amps.reshape(-1)
    rho = fs.FockDensity(oracle.cutoffs, np.outer(flat, flat.conj()))
    nodes, weights = np.polynomial.hermite.hermgauss(48)
    u, v = np.meshgrid(nodes, nodes)
    lam = (u + 1j * v).ravel()
    chi = fs.char_function_batch(rho, -np.conj(lam), -lam)
    f_oracle = (np.outer(weights, weights).ravel() @ chi).real / np.pi
    f_closed = kernel.squeezed_bell_fidelity(r, rs.bell_angle(family, r, delta))
    assert f_closed == pytest.approx(f_oracle, abs=1e-5)

