"""Tests for the resource-state factories."""

import dataclasses
import itertools

import numpy as np
import pytest

from sqbell import fock_sim as fs
from sqbell import resources as rs
from sqbell.errors import ZeroNormStateError
from sqbell.symplectic import SqueezeParam, two_mode_squeezed_char

RNG = np.random.default_rng(77)


def random_betas(n=12, scale=0.5):
    pts = RNG.normal(size=(n, 4)) * scale
    return [(x[0] + 1j * x[1], x[2] + 1j * x[3]) for x in pts]


def chi_distance(a, b, pts=None):
    b1, b2 = np.array(pts or random_betas()).T
    return np.max(np.abs(a.chi(b1, b2) - b.chi(b1, b2)))


# ---------------------------------------------------------------------------
# analytic families
# ---------------------------------------------------------------------------


def test_twin_beam_equals_gaussian_char():
    state = rs.theoretical_state("twin-beam", 1.1)
    ref = two_mode_squeezed_char(SqueezeParam(1.1, np.pi))
    for b1, b2 in random_betas():
        assert state.chi_at(b1, b2) == pytest.approx(ref.evaluate([b1, b2]), abs=1e-12)


def test_squeezed_bell_zero_angle_is_twin_beam():
    sb = rs.theoretical_state("squeezed-bell", 0.9, 0.0)
    tb = rs.theoretical_state("twin-beam", 0.9)
    assert chi_distance(sb, tb) < 1e-10


def test_families_normalized_and_hermitian():
    for family in rs.THEORETICAL_FAMILIES:
        delta = 0.7 if family == "squeezed-bell" else None
        state = rs.theoretical_state(family, 0.8, delta)
        assert state.chi_at(0, 0) == pytest.approx(1.0)
        for b1, b2 in random_betas(6):
            lhs = state.chi_at(-np.conj(b1), -np.conj(b2))
            assert lhs == pytest.approx(np.conj(state.chi_at(b1, b2)), abs=1e-10)
            assert abs(state.chi_at(b1, b2)) <= 1.0 + 1e-9


def test_families_match_fock_constructions():
    for family, r in itertools.product(rs.THEORETICAL_FAMILIES, (0.5, 0.7, 0.9)):
        delta = 0.6 if family == "squeezed-bell" else None
        state = rs.theoretical_state(family, r, delta)
        oracle = fs.theoretical_oracle(family, r, delta, cutoff=40)
        for b1, b2 in random_betas(6):
            assert fs.char_function_state(oracle, b1, b2) == pytest.approx(
                state.chi_at(b1, b2), abs=1e-8), (family, r)


def test_photon_subtraction_from_vacuum_is_zero_norm():
    with pytest.raises(ZeroNormStateError):
        rs.theoretical_state("photon-subtracted", 0.0)


def test_photon_addition_to_vacuum_is_two_photon_state():
    added = rs.theoretical_state("photon-added", 0.0)
    number = rs.theoretical_state("squeezed-number", 0.0)
    assert chi_distance(added, number) < 1e-12


def _error_class(build, *args):
    """The class of the error `build(*args)` raises, or None."""
    try:
        build(*args)
    except Exception as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("family", rs.THEORETICAL_FAMILIES)
def test_oracle_rejects_what_theoretical_state_rejects(family):
    rejected = 0
    for r, delta in itertools.product((0.0, 0.5, -0.2), (None, 0.3)):
        expected = _error_class(rs.theoretical_state, family, r, delta)
        got = _error_class(fs.theoretical_oracle, family, r, delta)
        assert got is expected, (r, delta)
        rejected += expected is not None
    assert rejected >= 3


def test_family_argument_validation():
    with pytest.raises(ValueError):
        rs.theoretical_state("squeezed-bell", 1.0)  # missing delta
    with pytest.raises(ValueError):
        rs.theoretical_state("twin-beam", 1.0, 0.3)  # spurious delta
    with pytest.raises(ValueError):
        rs.theoretical_state("bogus", 1.0)


# ---------------------------------------------------------------------------
# scheme states
# ---------------------------------------------------------------------------


def test_scheme_state_normalization_and_success():
    for detector in ("ideal", "on-off"):
        cfg = rs.SchemeConfig(r=1.0, s=0.02, T_loss=1.0 if detector == "ideal" else 0.9)
        state = rs.scheme_state(cfg, detector)
        assert state.chi_at(0, 0) == pytest.approx(1.0)
        assert 0.0 < state.success_prob < 1.0


def test_scheme_state_equals_twin_beam_at_matched_squeezing():
    # equal principal and ancillary squeezing factorizes the source exactly
    cfg = rs.SchemeConfig(r=1.2, s=1.2)
    state = rs.scheme_state(cfg, "on-off")
    tb = rs.theoretical_state("twin-beam", 1.2)
    assert chi_distance(state, tb) < 1e-10


def test_scheme_approaches_squeezed_bell_as_mixing_vanishes():
    errors = {}
    for T in (0.99, 0.999, 0.9999):
        kappa2 = np.arctan(np.sqrt((1 - T) / T)) ** 2
        cfg = rs.SchemeConfig(r=1.0, s=1.1 * kappa2, T1=T, T2=T)
        scheme = rs.scheme_state(cfg, "ideal")
        bell = rs.theoretical_state("squeezed-bell", 1.0, rs.delta_equivalent(cfg))
        vals = np.linspace(-0.6, 0.6, 3)
        pts = [(a + 1j * b, c + 1j * d)
               for a, b, c, d in itertools.product(vals, repeat=4)]
        errors[T] = chi_distance(scheme, bell, pts)
    # the distance shrinks linearly in kappa^2 = O(1 - T)
    assert errors[0.99] < 0.05
    assert errors[0.999] < 0.005
    assert errors[0.9999] < 5e-4
    assert errors[0.999] / errors[0.99] == pytest.approx(0.1, abs=0.05)


def test_delta_equivalent_limits():
    cfg = rs.SchemeConfig(r=1.0, s=1e6)
    assert rs.delta_equivalent(cfg) == pytest.approx(0.0, abs=1e-7)
    cfg0 = rs.SchemeConfig(r=1.3, s=0.0)
    assert rs.delta_equivalent(cfg0) == pytest.approx(np.arctan(np.tanh(1.3)))
    k2 = np.arctan(np.sqrt(0.01 / 0.99)) ** 2
    cfg1 = rs.SchemeConfig(r=1.0, s=0.011)
    expected = np.arctan(k2 * np.sinh(1) ** 2 / (0.011 + k2 * np.sinh(1) * np.cosh(1)))
    assert rs.delta_equivalent(cfg1) == pytest.approx(expected, rel=1e-12)


def test_effective_squeezing_values():
    assert rs.effective_squeezing(1.4, 1.0) == pytest.approx(1.4)
    assert rs.effective_squeezing(2.0, 0.85) == pytest.approx(0.8991, abs=2e-4)
    assert rs.squeezing_db(rs.effective_squeezing(2.0, 0.85)) == pytest.approx(
        7.81, abs=0.01)
    assert rs.squeezing_db(2.0) == pytest.approx(17.37, abs=0.01)


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        rs.SchemeConfig(r=-1.0)
    with pytest.raises(ValueError):
        rs.SchemeConfig(r=1.0, T1=0.0)
    with pytest.raises(ValueError):
        rs.SchemeConfig(r=1.0, eta3=1.5)
    with pytest.raises(ValueError):
        rs.SchemeConfig(r=1.0, T_loss=1.2)


def test_scheme_config_roundtrip():
    cfg = rs.SchemeConfig(r=1.6, s=0.056, T_loss=0.85)
    again = rs.SchemeConfig(**dataclasses.asdict(cfg))
    assert again == cfg
