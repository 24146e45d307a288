"""Tests for closed-form detector conditioning against the Fock oracle, the
polynomial-Gaussian reference and a 50-digit evaluation."""

import itertools
import warnings

import numpy as np
import pytest
from reference import mpgauss
from reference import polygauss as ref

from sqbell import conditioning as cd
from sqbell import fock_sim as fs
from sqbell import gauss_poly as gp
from sqbell import kernel
from sqbell.errors import DegeneratePostselectionError, PhysicalityError
from sqbell.resources import SchemeConfig, scheme_state
from sqbell.symplectic import GaussianChar, scheme_four_mode_char


def beta_grid(radius, n=3):
    vals = np.linspace(-radius, radius, n)
    return [(a + 1j * b, c + 1j * d)
            for a, b, c, d in itertools.product(vals, repeat=4)]


def test_kernel_shapes():
    ideal = ref.ideal_kernel()
    assert len(ideal.terms) == 1
    term = ideal.terms[0]
    assert np.allclose(term.quad, np.eye(2))
    assert term.poly.coeffs == {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0}

    onoff = ref.on_off_kernel(0.15)
    assert onoff.point_masses == ((0, np.pi),)
    gaussian_terms = [t for t in onoff.terms if not t.deltas]
    assert len(gaussian_terms) == 1
    t = gaussian_terms[0]
    assert np.allclose(t.quad, (2 - 0.15) / 0.15 * np.eye(2))
    assert t.coeff * t.poly.coeffs[(0, 0)] == pytest.approx(-1 / 0.15)


def test_on_off_kernel_matches_povm_trace():
    # kernel Gaussian piece equals -Tr[(1-eta)^n D(-b)] for b != 0
    eta = 0.3
    k = ref.on_off_kernel(eta)
    smooth = gp.PolyGaussFunction(2, [t for t in k.terms if not t.deltas])
    dim = 130  # (1 - eta)^n tail must be negligible
    off_diag = np.diag((1 - eta) ** np.arange(dim)).astype(complex)
    for b in (0.4, 0.3 - 0.5j, 1.0j):
        D = fs._displacement_batch(np.array([-b]), dim - 1)[:, :, 0]
        direct = -np.trace(off_diag @ D)
        assert gp.evaluate_at_betas(smooth, [b]) == pytest.approx(direct, abs=1e-12)


def test_condition_vacuum_ancillas_degenerate():
    chi4 = scheme_four_mode_char(SchemeConfig(r=0.0, s=0.0, T1=1.0, T2=1.0))
    k = cd.DetectorKernel.on_off(0.4)
    with pytest.raises(DegeneratePostselectionError):
        cd.condition(chi4, k, k)


def test_unphysical_success_probability():
    # an exponent below the vacuum's on the ancillas is no state: ideal
    # projectors give P = 1.2346 > 1
    S = np.eye(8)
    S[4:, 4:] *= 0.2
    P, F, status = kernel.scheme_pf(S[None], "ideal")
    assert P[0] == pytest.approx(1.2346, abs=1e-4)
    assert status[0] == kernel.UNPHYSICAL and np.isnan(F[0])
    k = cd.DetectorKernel.ideal()
    with pytest.raises(PhysicalityError, match="unphysical"):
        cd.condition(GaussianChar(4, S), k, k)


def test_conditioned_chi_is_normalized_and_hermitian():
    cfg = SchemeConfig(r=0.9, s=0.05)
    chi4 = scheme_four_mode_char(cfg)
    state = cd.condition(chi4, cd.DetectorKernel.ideal(), cd.DetectorKernel.ideal())
    assert state.chi_at(0, 0) == pytest.approx(1.0)
    rng = np.random.default_rng(2)
    for _ in range(15):
        b1, b2 = rng.normal(size=2) @ np.array([1, 1j]), rng.normal(size=2) @ np.array([1, 1j])
        lhs = state.chi_at(-np.conj(b1), -np.conj(b2))
        rhs = np.conj(state.chi_at(b1, b2))
        assert lhs == pytest.approx(rhs, abs=1e-10)
        assert abs(state.chi_at(b1, b2)) <= 1.0 + 1e-9


def test_on_off_expansion_matches_manual_four_terms():
    # distribute the kernels by hand: delta-delta, delta-G, G-delta, G-G
    cfg = SchemeConfig(r=0.7, s=0.04, T_loss=0.9)
    chi4 = scheme_four_mode_char(cfg)
    eta3, eta4 = 0.15, 0.25
    state = cd.condition(chi4, cd.DetectorKernel.on_off(eta3),
                         cd.DetectorKernel.on_off(eta4))

    f = ref.gaussian(chi4.exponent)

    def smooth(eta):
        return gp.PolyGaussFunction.gaussian((2 - eta) / eta * np.eye(2),
                                             coeff=-1.0 / eta)

    def delta():
        return gp.PolyGaussFunction.point_mass(2, 0)

    total = None
    for k3, k4 in itertools.product((delta(), smooth(eta3)),
                                    (delta(), smooth(eta4))):
        piece = gp.multiply(gp.multiply(f, gp.embed(k3, 8, 4)),
                            gp.embed(k4, 8, 6))
        reduced = gp.integrate_out(piece, {2, 3}).scaled(1.0 / np.pi ** 2)
        total = reduced if total is None else total + reduced
    norm = gp.evaluate(total, np.zeros(4)).real
    assert norm == pytest.approx(state.success_prob, rel=1e-12)
    rng = np.random.default_rng(8)
    for _ in range(10):
        x = rng.normal(size=4) * 0.6
        assert gp.evaluate(total, x) / norm == pytest.approx(
            state.chi_at(x[0] + 1j * x[1], x[2] + 1j * x[3]), rel=1e-10, abs=1e-10)


def test_success_probability_consistent_with_condition():
    cfg = SchemeConfig(r=0.8, s=0.03, T_loss=0.88)
    chi4 = scheme_four_mode_char(cfg)
    full = cd.condition(chi4, cd.DetectorKernel.on_off(0.15),
                        cd.DetectorKernel.on_off(0.2))
    reference = ref.success_probability(chi4.exponent, ref.on_off_kernel(0.15),
                                        ref.on_off_kernel(0.2))
    assert reference == pytest.approx(full.success_prob, abs=1e-12)


def test_success_probability_monotone_in_eta():
    S = scheme_four_mode_char(SchemeConfig(r=0.8, s=0.05)).exponent[None]
    probs = [kernel.scheme_pf(S, "on-off", e, e)[0][0]
             for e in (0.05, 0.1, 0.2, 0.4, 0.8, 1.0)]
    assert all(b > a for a, b in zip(probs, probs[1:]))
    # eta -> 0 sends the success probability to zero
    tiny = kernel.scheme_pf(S, "on-off", 1e-6, 1e-6)[0][0]
    assert tiny < 1e-9


def test_success_probability_no_mixing_matches_oracle():
    # T = 1: heralding rate equals the on/off coincidence rate of the bare
    # ancilla twin beam
    cfg = SchemeConfig(r=0.5, s=0.3, T1=1.0, T2=1.0)
    S = scheme_four_mode_char(cfg).exponent[None]
    eta = 0.35
    p = kernel.scheme_pf(S, "on-off", eta, eta)[0][0]
    anc = fs.theoretical_oracle("twin-beam", 0.3, cutoff=20)
    w = fs.on_off_weights(eta, 21)
    direct = np.einsum("kl,kl,k,l->", anc.amps, anc.amps.conj(), w, w).real
    assert p == pytest.approx(direct, rel=1e-8)


def test_ideal_conditioning_matches_fock_oracle():
    cfg = SchemeConfig(r=0.6, s=0.01)
    state = cd.condition(scheme_four_mode_char(cfg), cd.DetectorKernel.ideal(),
                         cd.DetectorKernel.ideal())
    rho, succ = fs.scheme_oracle(cfg, "ideal", cutoff=22)
    assert succ == pytest.approx(state.success_prob, rel=1e-8)
    for b1, b2 in beta_grid(0.45):
        assert fs.char_function(rho, b1, b2) == pytest.approx(
            state.chi_at(b1, b2), abs=1e-7)


def test_onoff_lossy_conditioning_matches_fock_oracle():
    cfg = SchemeConfig(r=0.6, s=0.01, T_loss=0.85, eta3=0.15, eta4=0.15)
    state = cd.condition(scheme_four_mode_char(cfg),
                         cd.DetectorKernel.on_off(0.15),
                         cd.DetectorKernel.on_off(0.15))
    rho, succ = fs.scheme_oracle(cfg, "on-off", cutoff=22)
    assert succ == pytest.approx(state.success_prob, rel=1e-8)
    for b1, b2 in beta_grid(0.45):
        assert fs.char_function(rho, b1, b2) == pytest.approx(
            state.chi_at(b1, b2), abs=1e-6)


def test_lossy_projector_emits_warning():
    # the configuration decides the warning; condition sees only the exponent
    cfg = SchemeConfig(r=0.5, s=0.02, T_loss=0.9)
    with pytest.warns(cd.LossyProjectorWarning):
        scheme_state(cfg, "ideal")
    with warnings.catch_warnings():
        warnings.simplefilter("error", cd.LossyProjectorWarning)
        cd.condition(scheme_four_mode_char(cfg), cd.DetectorKernel.ideal(),
                     cd.DetectorKernel.ideal())


def test_lossless_projector_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error", cd.LossyProjectorWarning)
        scheme_state(SchemeConfig(r=0.5, s=0.02), "ideal")


def test_condition_requires_one_detector_kind():
    chi4 = scheme_four_mode_char(SchemeConfig(r=0.5, s=0.02))
    with pytest.raises(ValueError):
        cd.condition(chi4, cd.DetectorKernel.ideal(), cd.DetectorKernel.on_off(0.3))


def test_detector_kernel_validates_efficiency():
    with pytest.raises(ValueError):
        cd.DetectorKernel.on_off(0.0)
    with pytest.raises(ValueError):
        cd.DetectorKernel.on_off(1.2)


from hypothesis import given, settings, strategies as st  # noqa: E402


@settings(max_examples=25, deadline=None)
@given(r=st.floats(0.05, 1.5), s=st.floats(0.0, 0.5),
       T=st.floats(0.9, 1.0), T_loss=st.floats(0.6, 1.0),
       eta=st.floats(0.05, 1.0), seed=st.integers(0, 2 ** 31 - 1))
def test_conditioned_state_physicality_property(r, s, T, T_loss, eta, seed):
    cfg = SchemeConfig(r=r, s=s, T1=T, T2=T, T_loss=T_loss, eta3=eta, eta4=eta)
    try:
        state = cd.condition(scheme_four_mode_char(cfg),
                             cd.DetectorKernel.on_off(eta),
                             cd.DetectorKernel.on_off(eta))
    except DegeneratePostselectionError:
        # the documented contract, P <= max(1e-300, 64 eps S), with P and the
        # sum S of the magnitudes of its terms taken to 50 digits
        _, P, scale = mpgauss.onoff(scheme_four_mode_char(cfg).exponent, eta, eta, [])
        assert (r == pytest.approx(0.0, abs=0.06)
                or P <= max(1e-300, 64 * np.finfo(float).eps * scale))
        return
    assert 0.0 < state.success_prob <= 1.0
    assert state.chi_at(0, 0) == pytest.approx(1.0)
    rng = np.random.default_rng(seed)
    for _ in range(4):
        b1 = complex(*rng.normal(size=2)) * 0.4
        b2 = complex(*rng.normal(size=2)) * 0.4
        val = state.chi_at(b1, b2)
        assert abs(val) <= 1.0 + 1e-7
        assert state.chi_at(-np.conj(b1), -np.conj(b2)) == pytest.approx(
            np.conj(val), abs=1e-10)


@pytest.mark.parametrize("n_modes", [2, 3])
def test_condition_refuses_a_source_that_is_not_four_mode(n_modes):
    source = GaussianChar(n_modes, np.eye(2 * n_modes))
    with pytest.raises(PhysicalityError, match="four-mode source"):
        cd.condition(source, cd.DetectorKernel.ideal(), cd.DetectorKernel.ideal())
