"""The batched closed-form kernel against the polynomial-Gaussian reference
and a 50-digit evaluation of the same Gaussian sums."""

import itertools
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference import covariance as cov
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


def columns_pf(cfgs, detector):
    """P, F and status of each configuration from one kernel call, after the
    LossyProjectorWarning check every front end of the kernel makes."""
    columns = kernel.columns_of(cfgs)
    kernel.warn_if_lossy(detector, columns)
    return kernel.columns_pf(columns, detector)


def _assert_matches(cfgs, detector):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LossyProjectorWarning)
        P, F, status = columns_pf(cfgs, detector)
    assert list(status) == [kernel.OK] * len(cfgs)
    for cfg, p, f in zip(cfgs, P, F):
        p_ref, f_ref, roundoff = _reference(cfg, detector)
        assert p == pytest.approx(p_ref, rel=max(P_RTOL, roundoff), abs=0.0), cfg
        assert f == pytest.approx(f_ref, rel=0.0, abs=max(F_ATOL, roundoff)), cfg


def test_source_exponents_match_stepwise_construction():
    # the covariance reference builds the source step by step from the
    # symplectic matrices of its squeezers and beam splitters, sharing none
    # of the kernel's variable maps; S = 2 Omega V Omega^T
    cfgs = [rs.SchemeConfig(r=0.9, s=0.3, phi_zeta=0.4, phi_xi=2.1, T1=0.93,
                            T2=0.97, T_loss=0.8, n_thermal=0.2),
            rs.SchemeConfig(r=1.7, s=0.6, phi_zeta=5.0, phi_xi=0.3, T1=0.6,
                            T2=0.85, T_loss=0.7, n_thermal=0.9,
                            loss_on_detector_modes=False)]
    ref = cov.exponent(cov.covariance_of(cfgs))
    S = kernel.source_exponents(kernel.columns_of(cfgs))
    assert np.all(np.max(np.abs(S - ref), axis=(1, 2))
                  <= 1e-14 * np.max(np.abs(ref), axis=(1, 2)))


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


def test_squeezed_bell_chi_matches_mpmath():
    # half the points in the squeezer's normal modes u ~ e^{-r}, v ~ e^{r},
    # where chi is not negligible but b1 cosh r - conj(b2) sinh r cancels
    mp = mpgauss.mp
    rng = np.random.default_rng(11)
    for k in range(120):
        r, d = rng.uniform(0.0, 15.0), rng.uniform(-np.pi, np.pi)
        z = rng.normal(size=4) @ np.array([[1, 0], [1j, 0], [0, 1], [0, 1j]])
        if k % 2:
            b1, b2 = 0.7 * z
        else:
            u, v = np.exp(-r) * z[0], 0.3 * np.exp(r) * z[1]
            b1, b2 = u + v, np.conj(v - u)
        with mp.workdps(50):
            ch, sh = mp.cosh(r), mp.sinh(r)
            a1 = mp.mpc(b1) * ch - mp.conj(mp.mpc(b2)) * sh
            a2 = mp.mpc(b2) * ch - mp.conj(mp.mpc(b1)) * sh
            n1, n2 = abs(a1) ** 2, abs(a2) ** 2
            c, s = mp.cos(d), mp.sin(d)
            exact = mp.exp(-(n1 + n2) / 2) * (c * c + s * s * (1 - n1) * (1 - n2)
                                              + 2 * c * s * mp.re(a1 * a2))
        got = kernel.squeezed_bell_chi(r, d, b1, b2)
        assert abs(float(got) - float(exact)) <= 1e-15, (r, d, b1, b2)


def test_lossy_projector_warning_on_kernel_path():
    with pytest.warns(LossyProjectorWarning):
        columns_pf([rs.SchemeConfig(r=0.5, s=0.02, T_loss=0.9)], "ideal")
    with warnings.catch_warnings():
        warnings.simplefilter("error", LossyProjectorWarning)
        columns_pf([rs.SchemeConfig(r=0.5, s=0.02)], "ideal")
        columns_pf([rs.SchemeConfig(r=0.5, s=0.02, T_loss=0.9)], "on-off")


@pytest.mark.parametrize("r", [6.0, 8.0, 10.0, 15.0, 20.0])
def test_lossless_source_never_warns(r):
    # at these r the log-determinant of S is lost to roundoff
    with warnings.catch_warnings():
        warnings.simplefilter("error", LossyProjectorWarning)
        columns_pf([rs.SchemeConfig(r=r, s=0.05)], "ideal")


@pytest.mark.parametrize("detector, r", [
    *itertools.product(["ideal", "on-off"], [300.0, 355.0, 400.0, 800.0]),
    ("on-off", 182.0), ("on-off", 190.0), ("on-off", 197.0), ("ideal", 83.0)])
def test_large_r_points_are_refused_without_a_warning(detector, r):
    # cosh r overflows from r ~ 710, the squeezers' product L @ L from
    # r ~ 355 (where S mixes inf and finite entries, so the lam blocks'
    # products are invalid) and the Schur complement's before that.  At
    # r = 182-197 the on/off blocks are finite but their 2x2 determinants
    # overflow, and the points would read P = 1, F = 1; at r = 83 nothing
    # overflows, but ideal Schur complement entries of order 1e109 would
    # read P = 1.2e-107, F = 1.8e-40.  The entries' fourth powers overflow
    # at every one of these points, and none may leak a RuntimeWarning
    cfg = rs.SchemeConfig(r=r, s=0.05, eta3=0.15, eta4=0.15)
    assert columns_pf([cfg], detector)[2][0] == kernel.UNPHYSICAL
    with pytest.raises(PhysicalityError):
        rs.scheme_state(cfg, detector)


@pytest.mark.parametrize("noise", [dict(T_loss=0.9), dict(T_loss=0.9, n_thermal=0.1)])
@pytest.mark.parametrize("r", [3.0, 20.0])
def test_lossy_source_warns_with_ideal_projectors_only(r, noise):
    cfg = rs.SchemeConfig(r=r, s=0.05, **noise)
    with pytest.warns(LossyProjectorWarning):
        columns_pf([rs.SchemeConfig(r=0.5), cfg], "ideal")
    with warnings.catch_warnings():
        warnings.simplefilter("error", LossyProjectorWarning)
        columns_pf([cfg], "on-off")


def test_thermal_occupation_without_loss_does_not_warn():
    # n_thermal enters only through 1 - T_loss: at T_loss = 1 the source is pure
    cfg = rs.SchemeConfig(r=0.5, s=0.05, n_thermal=0.1)
    assert np.array_equal(
        kernel.source_exponents(kernel.columns_of([cfg])),
        kernel.source_exponents(kernel.columns_of([cfg.with_(n_thermal=0.0)])))
    with warnings.catch_warnings():
        warnings.simplefilter("error", LossyProjectorWarning)
        columns_pf([cfg], "ideal")
        rs.scheme_state(cfg, "ideal")
        op.optimize_s(cfg, "ideal")
        op.sweep(op.SweepSpec(base=cfg, axis="r", grid=(0.5, 1.0)))


def test_lossy_projector_warning_points_at_the_caller():
    cfg = rs.SchemeConfig(r=0.5, s=0.02, T_loss=0.9)
    for call in (lambda: rs.scheme_state(cfg, "ideal"),
                 lambda: columns_pf([cfg], "ideal"),
                 lambda: op.optimize_s(cfg, "ideal"),
                 lambda: op.sweep(op.SweepSpec(base=cfg, axis="s", grid=(0.0, 0.02))),
                 lambda: op.sweep(op.SweepSpec(base=cfg, axis="T", grid=(0.98, 0.99),
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
        batch = kernel.columns_pf(kernel.columns_of(cfgs), detector)
        singles = [kernel.columns_pf(kernel.columns_of([c]), detector) for c in cfgs]
    for got, alone in zip(batch, zip(*singles)):
        assert got.tobytes() == np.concatenate(alone).tobytes()


# the map over (lam, b3, b4) as one 8x6 matrix: the kernel takes only its
# lam columns, on the signal rows of S
_FULL_LAMBDA_MAP = np.zeros((8, 6))
_FULL_LAMBDA_MAP[:4, :2] = [[-1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]
_FULL_LAMBDA_MAP[4:, 2:] = np.eye(4)


def _separate_det2(X):
    return X[:, 0, 0] * X[:, 1, 1] - X[:, 0, 1] * X[:, 1, 0]


def _separate_inv2(X):
    adj = np.empty_like(X)
    adj[:, 0, 0] = X[:, 1, 1]
    adj[:, 0, 1] = -X[:, 0, 1]
    adj[:, 1, 0] = -X[:, 1, 0]
    adj[:, 1, 1] = X[:, 0, 0]
    return adj / _separate_det2(X)[:, None, None]


def _separate_onoff_prob(M, eta3, eta4, W=None):
    """kernel._onoff_prob step by step, with the blocks Delta_3 and Delta_4
    taken one after the other, where the kernel stacks them."""
    d = np.sqrt(np.concatenate([np.repeat(eta3[:, None], 2, 1),
                                np.repeat(eta4[:, None], 2, 1)], 1))
    delta = 0.5 * (M - np.eye(4)) * d[:, :, None] * d[:, None, :]
    D3, D4 = delta[:, :2, :2], delta[:, 2:, 2:]
    D34, D43 = delta[:, :2, 2:], delta[:, 2:, :2]
    with np.errstate(invalid="ignore", divide="ignore"):
        E3, E4 = _separate_inv2(np.eye(2) + D3), _separate_inv2(np.eye(2) + D4)
        l3 = -0.5 * np.log1p(np.trace(D3, axis1=1, axis2=2) + _separate_det2(D3))
        l4 = -0.5 * np.log1p(np.trace(D4, axis1=1, axis2=2) + _separate_det2(D4))
        X = E4 @ D43 @ E3 @ D34
        l34 = -0.5 * np.log1p(_separate_det2(X) - np.trace(X, axis1=1, axis2=2))
        if W is None:
            x3, x4 = np.exp(l3), np.exp(l4)
            return (np.expm1(l3) * np.expm1(l4) + x3 * x4 * np.expm1(l34),
                    1.0 + x3 + x4 + x3 * x4 * np.exp(l34))
        Z = W * d[:, :, None] / np.sqrt(2.0)
        Z3, Z4 = Z[:, :2], Z[:, 2:]
        K = D43 @ E3
        Zinv = _separate_inv2(np.eye(2) + D4 - K @ D34)
        H = K @ Z3
        Q3 = 0.5 * np.swapaxes(Z3, 1, 2) @ E3 @ Z3
        Q4 = 0.5 * np.swapaxes(Z4, 1, 2) @ E4 @ Z4
        Q34 = 0.5 * (np.swapaxes(Z4, 1, 2) @ Zinv @ K @ (D34 @ E4 @ Z4 - 2.0 * Z3)
                     + np.swapaxes(H, 1, 2) @ Zinv @ H)
    return lambda x, envelope: kernel._onoff_chi(
        envelope, l3[:, None] + kernel._qform(x, Q3), l4[:, None] + kernel._qform(x, Q4),
        l34[:, None] + kernel._qform(x, Q34))


def _two_block_pf(S, detector, eta3, eta4):
    """scheme_pf with the ancilla probability evaluated twice, on S's
    ancilla block and on the Schur complement of the lam block, the lam
    block taken from the full map product."""
    if detector == "on-off":
        prob = lambda M: _separate_onoff_prob(M, eta3, eta4)
    else:
        prob = kernel._ideal_prob
    P, p_scale = prob(S[:, 4:, 4:])
    MF = _FULL_LAMBDA_MAP.T @ S @ _FULL_LAMBDA_MAP
    MF[:, 0, 0] += 2.0
    MF[:, 1, 1] += 2.0
    lam, C = MF[:, :2, :2], MF[:, :2, 2:]
    schur = MF[:, 2:, 2:] - np.swapaxes(C, 1, 2) @ _separate_inv2(lam) @ C
    with np.errstate(invalid="ignore", divide="ignore"):
        F = 2.0 * prob(schur)[0] / np.sqrt(_separate_det2(lam)) / P
    status = kernel._status(P, p_scale, F)
    return P, np.where(status == kernel.OK, np.minimum(F, 1.0), np.nan), status


def _box():
    """Source exponents and on/off efficiencies of 400 seeded points.  A box
    reaching r = 30 overflows or singularizes some points, vacuum ancillas
    (r = s = 0, no thermal noise) are degenerate, and SINGULAR_IDEAL's
    ideal-projector block is singular."""
    rng = np.random.default_rng(35)
    n = 400
    r = rng.uniform(0.0, 30.0, n)
    columns = np.array([
        r, r * rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 2 * np.pi, n),
        rng.uniform(0.0, 2 * np.pi, n), rng.uniform(0.5, 1.0, n),
        rng.uniform(0.5, 1.0, n), rng.uniform(0.3, 1.0, n), rng.uniform(0.0, 1.0, n),
        rng.integers(0, 2, n), rng.uniform(0.01, 1.0, n), rng.uniform(0.01, 1.0, n)])
    columns[[0, 1, 7], :8] = 0.0
    columns[:, 8] = kernel.columns_of([SINGULAR_IDEAL])[:, 0]
    return (kernel.source_exponents(columns),
            columns[len(kernel.SOURCE_FIELDS):])


@pytest.mark.parametrize("detector", ["ideal", "on-off"])
def test_stacked_ancilla_evaluation_equals_two_evaluations(detector):
    # scheme_pf evaluates both ancilla blocks of every point in one stacked
    # call, and the on/off probability both diagonal blocks of each
    S, etas = _box()
    stacked = kernel.scheme_pf(S, detector, *etas)
    assert set(stacked[2].tolist()) == {kernel.OK, kernel.DEGENERATE, kernel.UNPHYSICAL}
    for got, expected in zip(stacked, _two_block_pf(S, detector, *etas)):
        assert got.tobytes() == expected.tobytes()


def test_stacked_diagonal_blocks_give_the_heralded_chi_of_separate_blocks():
    S, etas = _box()
    b1 = np.array([0.0, 0.3 + 0.1j, 1.5, -2.0 + 0.5j])
    b2 = np.array([0.0, -0.2j, 0.7 - 1.0j, 0.1])
    x = np.stack([b1.real, b1.imag, b2.real, b2.imag], -1)
    with np.errstate(over="ignore", invalid="ignore"):  # the points near r = 30
        ancillas = _separate_onoff_prob(S[:, 4:, 4:], *etas, W=S[:, 4:, :4])
        expected = ancillas(x, -0.5 * kernel._qform(x, S[:, :4, :4]))
        got = kernel.heralded_chi(S, "on-off", *etas)(b1, b2)
    assert not np.isfinite(got).all()
    assert got.tobytes() == expected.tobytes()


def test_inv2_is_the_adjugate_over_the_determinant():
    # entry by entry in Python floats, the quotient in numpy's, so that a
    # zero determinant gives inf and nan; a NaN entry keeps its negated sign
    rng = np.random.default_rng(36)
    X = rng.standard_normal((64, 2, 2))
    X[:16, 1] = 2.0 * X[:16, 0]  # determinant exactly zero
    X[16:48] *= rng.integers(0, 2, (32, 2, 2))  # signed zeros
    X[48:52] = np.where(rng.random((4, 2, 2)) < 0.5, 0.0, -0.0)
    X[52, 0, 1], X[53, 1, 0], X[54, 1, 1] = np.nan, -np.nan, np.inf
    expected = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for (a, b), (c, d) in X.tolist():
            det = a * d - b * c
            expected.append([[np.float64(d) / det, np.float64(-b) / det],
                             [np.float64(-c) / det, np.float64(a) / det]])
        got = kernel._inv2(X)
    expected = np.array(expected)
    assert np.isinf(expected).any() and np.isnan(expected).any()
    assert got.tobytes() == expected.tobytes()


def test_lambda_blocks_are_those_of_the_full_map_product():
    S, _ = _box()
    MF = _FULL_LAMBDA_MAP.T @ S @ _FULL_LAMBDA_MAP
    lam, C = kernel._lambda_blocks(S)
    assert np.array_equal(lam, MF[:, :2, :2]) and np.array_equal(C, MF[:, :2, 2:])
    assert np.array_equal(S[:, 4:, 4:], MF[:, 2:, 2:])


@pytest.mark.parametrize("eta", [0.15, 0.3, 0.5, 0.77])
def test_vacuum_ancillas_degenerate_on_both_paths(eta):
    # r = 0 and s = 0: nothing reaches the detectors, whatever the roundoff
    cfg = rs.SchemeConfig(r=0.0, s=0.0, T1=0.9, T2=0.9, eta3=eta, eta4=eta)
    with pytest.raises(DegeneratePostselectionError):
        rs.scheme_state(cfg, "on-off")
    P, F, status = columns_pf([cfg], "on-off")
    assert status[0] == kernel.DEGENERATE and np.isnan(F[0])
    with pytest.raises(DegeneratePostselectionError):
        op.optimize_s(cfg, "on-off")


def test_ideal_vacuum_ancillas_degenerate_on_both_paths():
    cfg = rs.SchemeConfig(r=0.0, s=0.0, T1=0.9, T2=0.9)
    with pytest.raises(DegeneratePostselectionError):
        rs.scheme_state(cfg, "ideal")
    assert columns_pf([cfg], "ideal")[2][0] == kernel.DEGENERATE


def test_overflowed_heralding_probability_is_unphysical():
    # on/off heralding at r = 30 overflows P to inf, which is no degeneracy
    cfg = rs.SchemeConfig(r=30.0)
    P, F, status = columns_pf([cfg], "on-off")
    assert np.isinf(P[0]) and np.isnan(F[0])
    assert status[0] == kernel.UNPHYSICAL
    with pytest.raises(PhysicalityError):
        op.optimize_s(cfg, "on-off")


# its ideal-projector ancilla block A = M + I is singular: det(A) is zero
SINGULAR_IDEAL = rs.SchemeConfig(
    r=26.738066258189228, T1=0.7543225662876089, T2=0.5682437175769997,
    T_loss=0.7986842516672731, n_thermal=0.32242675107167806,
    loss_on_detector_modes=False)


@pytest.mark.filterwarnings("ignore::sqbell.kernel.LossyProjectorWarning")
def test_singular_ideal_block_fails_only_its_own_point():
    fine = rs.SchemeConfig(r=1.0)
    P, F, status = columns_pf([fine, SINGULAR_IDEAL], "ideal")
    assert status.tolist() == [kernel.OK, kernel.UNPHYSICAL]
    assert not np.isfinite(P[1]) and np.isnan(F[1])
    for got, alone in zip((P, F, status), columns_pf([fine], "ideal")):
        assert got[:1].tobytes() == alone.tobytes()
    spec = op.SweepSpec(base=SINGULAR_IDEAL, axis="r",
                        grid=(1.0, SINGULAR_IDEAL.r), detector="ideal")
    for optimize in (False, True):
        first, second = op.sweep(replace(spec, optimize_s_at_each=optimize))
        assert first.error is None and first.fidelity > 0.5
        assert second.error.startswith("PhysicalityError")
        assert second.fidelity is None and second.s_star is None
    assert first.s_star == op.optimize_s(spec.config_at(1.0), "ideal").s_star


def test_unknown_detector_rejected():
    cfg = rs.SchemeConfig(r=1.0)
    for detector in ("pnr", "onoff"):
        with pytest.raises(ValueError, match="unknown detector kind"):
            fs.scheme_oracle(cfg, detector, cutoff=20)
        with pytest.raises(ValueError, match="unknown detector kind"):
            columns_pf([cfg], detector)
        with pytest.raises(ValueError, match="unknown detector kind"):
            rs.scheme_state(cfg, detector)


@pytest.mark.parametrize("eta", [2.0, 1.0 + 1e-12, 0.0, -0.1, np.nan, None])
def test_onoff_efficiency_outside_unit_interval_rejected(eta):
    # eta = 2 read OK (P = 0.0427, F = 0.735), eta = 0 DEGENERATE and an
    # omitted eta UNPHYSICAL; SchemeConfig and DetectorKernel refuse them all
    S = kernel.source_exponents(kernel.columns_of([rs.SchemeConfig(r=0.5, s=0.1)] * 2))
    for etas in ((eta, eta), (0.5, eta), ([0.5, eta], 0.5)):
        with pytest.raises(ValueError, match=r"efficiencies must lie in \(0, 1\]"):
            kernel.scheme_pf(S, "on-off", *etas)
    with pytest.raises(ValueError, match=r"efficiencies must lie in \(0, 1\]"):
        kernel.heralded_chi(S, "on-off", eta, eta)


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
    assert res.trace == ((res.s_star, res.f_star),)
    assert res.bracket == (res.s_star, res.s_star)
    f_at = fidelity_closed_form(rs.theoretical_state("squeezed-bell", r, res.s_star))
    assert res.f_star == pytest.approx(f_at, abs=1e-12)
    for d in np.linspace(0.0, np.pi / 2, 13):
        f = fidelity_closed_form(rs.theoretical_state("squeezed-bell", r, float(d)))
        assert f <= res.f_star + 1e-12


@pytest.mark.parametrize("r", [15.0, 17.0, 19.0, 25.0, 30.0, 800.0])
def test_optimize_delta_is_the_optimum_at_large_r(r):
    # tan 2d* = 1 + e^{-2r}; an eigen-solve on the fidelity sampled at 0,
    # pi/2 and pi/4 lost its off-diagonal term to cancellation, and gave
    # d* = 0.376576 at r = 17 and 0 from r ~ 19 in place of about pi/8
    res = op.optimize_delta(r)
    expected = 0.5 * np.arctan(1.0 + np.exp(-2.0 * r))
    assert abs(res.s_star - expected) <= 2 * np.spacing(expected)
    assert res.f_star == kernel.squeezed_bell_fidelity(r, res.s_star)
    # past r ~ 17 the fidelity at every angle is c^2 + s^2 = 1 to rounding,
    # which reaches 1 + eps at some angles: the comparison allows that eps
    angles = np.linspace(0.0, np.pi / 2, 1001)
    assert res.f_star >= kernel.squeezed_bell_fidelity(r, angles).max() - np.finfo(float).eps


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

