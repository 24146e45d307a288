"""Tests for the teleportation-fidelity functional."""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate
from test_acceptance import _oracle_configs

from sqbell import fock_sim as fs
from sqbell import resources as rs
from sqbell import teleport as tp
from sqbell.errors import QuadratureConvergenceError
from sqbell.optimize import optimize_delta


def test_vacuum_resource_gives_classical_baseline():
    res = tp.fidelity(rs.theoretical_state("twin-beam", 0.0), cross_check=True)
    assert res.fidelity == pytest.approx(0.5, abs=1e-9)
    assert res.residual < 1e-6


def test_twin_beam_closed_form_across_r():
    for r in np.arange(0.0, 2.51, 0.25):
        f = tp.fidelity_closed_form(rs.theoretical_state("twin-beam", r))
        assert f == pytest.approx(tp.twin_beam_fidelity(r), abs=1e-9)


def test_twin_beam_anchor_value():
    f = tp.fidelity_closed_form(rs.theoretical_state("twin-beam", 1.6))
    assert f == pytest.approx(0.961, abs=1e-3)


def test_optimized_squeezed_bell_anchor():
    res = optimize_delta(1.6)
    assert res.f_star == pytest.approx(0.977, abs=2e-3)


def test_photon_subtracted_anchor():
    f = tp.fidelity_closed_form(rs.theoretical_state("photon-subtracted", 1.6))
    assert f == pytest.approx(0.965, abs=2e-3)


def test_fidelity_monotone_in_r_and_limits():
    values = [tp.fidelity_closed_form(rs.theoretical_state("twin-beam", r))
              for r in np.arange(0.0, 2.51, 0.25)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[0] == pytest.approx(0.5)
    assert values[-1] > 0.99


def test_closed_form_vs_quadrature_all_families():
    # at r = 800 cosh r overflows; chi and the cubature's integrand stay finite
    for r in (1.0, 1.9, 800.0):
        for family in rs.THEORETICAL_FAMILIES:
            delta = 0.5 if family == "squeezed-bell" else None
            state = rs.theoretical_state(family, r, delta)
            res = tp.fidelity(state, cross_check=True)
            assert res.residual < 1e-6
            assert res.tail_bound < 1e-10


def test_scheme_state_cross_check():
    state = rs.scheme_state(rs.SchemeConfig(r=0.8, s=0.02, T_loss=0.9), "on-off")
    res = tp.fidelity(state, cross_check=True)
    assert res.residual < 1e-6


@pytest.mark.filterwarnings("ignore::sqbell.kernel.LossyProjectorWarning")
@pytest.mark.parametrize("detector", ["ideal", "on-off"])
def test_cross_check_converges_on_a_strongly_mixed_scheme_state(detector):
    # away from phase pi at r = 2 the heralded chi's envelope underflows
    # where its ancilla factor overflows; both are one exponent, and the
    # cubature sees a finite integrand with no overflow warning, which the
    # suite's warning filter would raise
    cfg = rs.SchemeConfig(r=2.0, s=0.35, phi_zeta=0.627, phi_xi=0.196,
                          T1=0.711, T2=0.787, eta3=0.5, eta4=0.5)
    res = tp.fidelity(rs.scheme_state(cfg, detector), cross_check=True)
    assert res.residual < 1e-12


def test_alpha_explicit_matches_alpha_free():
    state = rs.theoretical_state("twin-beam", 0.5)
    base = tp.fidelity_closed_form(state)
    assert tp.fidelity_alpha_explicit(state, 0.0) == pytest.approx(base, abs=1e-8)
    assert tp.fidelity_alpha_explicit(state, 1.0 + 2.0j) == pytest.approx(
        base, abs=1e-8)


def test_quadrature_raises_when_not_converged(monkeypatch):
    # the subdivision cap is the only stopping rule besides the tolerance;
    # a capped run must raise, not return its unconverged estimate
    state = rs.theoretical_state("photon-subtracted", 0.8)
    monkeypatch.setattr(tp, "QUADRATURE_MAX_SUBDIVISIONS", 2)
    with pytest.raises(QuadratureConvergenceError) as err:
        tp.fidelity_quadrature(state)
    assert err.value.error > 1e-9
    assert err.value.estimate / np.pi == pytest.approx(
        tp.fidelity_closed_form(state), abs=1e-3)
    with pytest.raises(QuadratureConvergenceError):
        tp.fidelity_alpha_explicit(state, 0.5j)


@pytest.mark.parametrize("alpha", [np.nan, np.inf, complex("nanj")])
def test_alpha_explicit_refuses_non_finite_alpha(alpha):
    with pytest.raises(ValueError, match="finite"):
        tp.fidelity_alpha_explicit(rs.theoretical_state("twin-beam", 0.5), alpha)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cubature_raises_on_a_non_finite_integrand(bad):
    # NaN compares false against any tolerance, so it must not pass for converged
    def integrand(uv):
        return np.where(uv[:, 0] > 5.0, bad, 1.0)

    with pytest.raises(QuadratureConvergenceError, match="non-finite"):
        tp._cubature(integrand, tp.QUADRATURE_TOL)


def counted(integrand, calls):
    def wrapped(uv):
        calls.append(len(uv))
        return integrand(uv)
    return wrapped


def test_cubature_single_region_is_exact_to_degree_31():
    # qk21 integrates u^30 v^30 exactly; the loose tolerance stops after the
    # first region, whose 21 x 21 product nodes are the only call
    calls = []
    scale = tp.LAMBDA_MAX
    value = tp._cubature(counted(lambda uv: np.prod((uv / scale) ** 30, axis=1),
                                 calls), 1.0)
    assert calls == [441]
    assert value == pytest.approx((2 * scale / 31) ** 2, rel=1e-13)


def test_cubature_gaussian_over_the_square():
    value = tp._cubature(lambda uv: np.exp(-np.sum(uv ** 2, axis=1)), tp.QUADRATURE_TOL)
    assert value == pytest.approx(np.pi * math.erf(tp.LAMBDA_MAX) ** 2, rel=1e-13)


def oracle_states():
    """The twelve resource states of acceptance criterion 6."""
    theory, scheme = _oracle_configs()
    states = [rs.theoretical_state(family, kw["r"], kw.get("delta"))
              for family, kw in theory]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ideal projectors on a lossy source
        states += [rs.scheme_state(cfg, detector) for detector, cfg in scheme]
    return states


@pytest.mark.parametrize("state", oracle_states())
def test_cubature_matches_scipy_in_few_batched_calls(state, monkeypatch):
    # every round's new regions go to the integrand in one call
    found = {}
    cubature = tp._cubature

    def recording(integrand, tol):
        calls = []
        found["value"] = cubature(counted(integrand, calls), tol)
        found["integrand"], found["tol"], found["calls"] = integrand, tol, calls
        return found["value"]

    monkeypatch.setattr(tp, "_cubature", recording)
    tp.fidelity_quadrature(state)
    tol = found["tol"]
    reference = integrate.cubature(found["integrand"], [-tp.LAMBDA_MAX] * 2,
                                   [tp.LAMBDA_MAX] * 2, rule="gk21", atol=tol, rtol=tol)
    assert reference.status == "converged"
    assert found["value"] == pytest.approx(float(reference.estimate), abs=1e-12)
    assert len(found["calls"]) <= 5


def test_alpha_independence_spread():
    state = rs.theoretical_state("photon-subtracted", 0.8)
    rng = np.random.default_rng(14)
    values = [tp.fidelity_alpha_explicit(state, complex(a, b))
              for a, b in rng.normal(size=(5, 2))]
    assert max(values) - min(values) < 1e-7


def test_fock_oracle_route_agrees():
    # quadrature over the oracle's characteristic function, Gauss-Hermite grid
    cfg = rs.SchemeConfig(r=0.6, s=0.01)
    state = rs.scheme_state(cfg, "ideal")
    closed = tp.fidelity_closed_form(state)
    rho, _ = fs.scheme_oracle(cfg, "ideal", cutoff=25)
    nodes, weights = np.polynomial.hermite.hermgauss(48)
    U, V = np.meshgrid(nodes, nodes)
    lam = (U + 1j * V).ravel()
    chi = fs.char_function_batch(rho, -np.conj(lam), -lam)
    oracle = (np.outer(weights, weights).ravel() @ chi).real / np.pi
    assert closed == pytest.approx(oracle, abs=1e-5)


def test_lossy_twin_beam_fidelity_uses_effective_squeezing():
    # scheme at s = r reduces to the lossy twin beam; its fidelity is the
    # twin-beam closed form evaluated at the effective squeezing
    for T_loss in (1.0, 0.9, 0.8):
        cfg = rs.SchemeConfig(r=1.6, s=1.6, T_loss=T_loss)
        state = rs.scheme_state(cfg, "on-off")
        r_eff = rs.effective_squeezing(1.6, T_loss)
        assert tp.fidelity_closed_form(state) == pytest.approx(
            tp.twin_beam_fidelity(r_eff), abs=1e-9)
