"""Pin the benchmark's reference computations to limits known in closed form.

    python3 -m pytest bench/test_reference.py
"""

import math

import numpy as np
import pytest

import reference as ref


def twin_beam_cov(r):
    """Signal block of the source with no mixing: a two-mode squeezed vacuum."""
    return ref.source_covariance(r, 0.0, 1.0, 1.0)[:4, :4]


@pytest.mark.parametrize("r", [0.0, 0.3, 1.0, 1.6, 2.5])
def test_gaussian_fidelity_of_twin_beam(r):
    assert ref.gaussian_fidelity(twin_beam_cov(r)) == pytest.approx(
        1.0 / (1.0 + math.exp(-2.0 * r)), abs=1e-14)
    assert ref.twin_beam_fidelity(r) == pytest.approx(1.0 / (1.0 + math.exp(-2.0 * r)))


@pytest.mark.parametrize("r, T", [(0.8, 0.85), (1.6, 0.7), (2.0, 0.99)])
def test_gaussian_fidelity_of_lossy_twin_beam(r, T):
    V = ref.source_covariance(r, 0.0, 1.0, 1.0, T_loss=T)[:4, :4]
    assert ref.gaussian_fidelity(V) == pytest.approx(
        1.0 / (2.0 - T + T * math.exp(-2.0 * r)), abs=1e-14)


def test_vacuum_teleports_at_the_classical_limit():
    assert ref.gaussian_fidelity(0.5 * np.eye(4)) == pytest.approx(0.5)


@pytest.mark.parametrize("s, eta", [(0.05, 0.15), (0.6, 0.3), (1.2, 1.0)])
def test_no_click_of_one_arm(s, eta):
    # one arm of a two-mode squeezed vacuum is thermal with n = sinh^2 s
    V = ref.source_covariance(0.7, s, 1.0, 1.0)
    p, _ = ref._no_click(V, (2,), (eta,))
    assert p == pytest.approx(1.0 / (1.0 + eta * math.sinh(s) ** 2), rel=1e-13)


@pytest.mark.parametrize("s, eta", [(0.05, 0.15), (0.6, 0.3), (1.2, 1.0)])
def test_no_click_of_both_arms(s, eta):
    # sum_n (1 - t^2) t^(2n) (1 - eta)^(2n) with t = tanh s
    V = ref.source_covariance(0.7, s, 1.0, 1.0)
    p, _ = ref._no_click(V, (2, 3), (eta, eta))
    t2 = math.tanh(s) ** 2
    assert p == pytest.approx((1.0 - t2) / (1.0 - t2 * (1.0 - eta) ** 2), rel=1e-13)


@pytest.mark.parametrize("r, s, eta", [(0.8, 0.05, 0.15), (1.6, 0.4, 0.6), (1.0, 0.9, 1.0)])
def test_onoff_without_mixing(r, s, eta):
    # T = 1 decouples the ancillas: P is the twin-click probability of the
    # ancilla squeezer and the heralded state is the twin beam
    P, F = ref.onoff_reference(r, s, 1.0, 1.0, eta3=eta, eta4=eta)
    t2 = math.tanh(s) ** 2
    one = 1.0 / (1.0 + eta * math.sinh(s) ** 2)
    both = (1.0 - t2) / (1.0 - t2 * (1.0 - eta) ** 2)
    assert P == pytest.approx(1.0 - 2.0 * one + both, rel=1e-10)
    assert F == pytest.approx(1.0 / (1.0 + math.exp(-2.0 * r)), abs=1e-10)


def test_ideal_efficiency_single_click_is_tanh_squared():
    V = ref.source_covariance(0.7, 0.8, 1.0, 1.0)
    p, _ = ref._no_click(V, (2,), (1.0,))
    assert 1.0 - p == pytest.approx(math.tanh(0.8) ** 2, rel=1e-13)


def test_conditioned_covariance_is_physical():
    # Robertson-Schroedinger: V + i Omega / 2 >= 0 for every no-click term
    V = ref.source_covariance(1.6, 0.05, 0.99, 0.99, 0.85)
    omega = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    for subset in ((), (2,), (3,), (2, 3)):
        _, Vs = ref._no_click(V, subset, (0.15,) * len(subset))
        assert np.linalg.eigvalsh(Vs + 0.5j * omega).min() > -1e-12


def test_same_to_digits():
    assert ref.same_to_digits(0.960834, ref.twin_beam_fidelity(1.6))
    assert not ref.same_to_digits(0.960835, ref.twin_beam_fidelity(1.6))
    assert ref.same_to_digits(7.22017e-06, 7.220167474897e-06)
    assert not ref.same_to_digits(7.22018e-06, 7.220167474897e-06)


def test_table2_rule():
    assert ref.table2_s_within(2.0, 0.115028)      # 10 % of 0.12
    assert ref.table2_s_within(0.6, 0.00257)       # the 0.002 floor
    assert not ref.table2_s_within(1.6, 0.063)
