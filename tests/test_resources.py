"""Tests for the resource-state factories."""

import dataclasses
import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest

from sqbell import fock_sim as fs
from sqbell import kernel
from sqbell import resources as rs
from sqbell.errors import PhysicalityError, ZeroNormStateError
from sqbell.kernel import LossyProjectorWarning
from sqbell.optimize import optimize_delta
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
        # (Re b1, Im b1, Re b2, Im b2), the exponent's coordinate order
        v = np.array([b1, b2], dtype=complex).view(float)
        assert state.chi_at(b1, b2) == pytest.approx(
            np.exp(-0.5 * v @ ref.exponent @ v), abs=1e-12)


def test_squeezed_bell_zero_angle_is_twin_beam():
    sb = rs.theoretical_state("squeezed-bell", 0.9, 0.0)
    tb = rs.theoretical_state("twin-beam", 0.9)
    assert chi_distance(sb, tb) < 1e-10


def test_families_normalized_and_hermitian():
    # from r ~ 354 the squeezer-mapped norms |b1 cosh r - conj(b2) sinh r|^2
    # overflow where the envelope underflows, and from r ~ 710 cosh r itself
    for family in rs.THEORETICAL_FAMILIES:
        delta = 0.7 if family == "squeezed-bell" else None
        betas = random_betas(6)
        for r in (0.8, 354.0, 400.0, 711.0, 800.0):
            state = rs.theoretical_state(family, r, delta)
            assert state.chi_at(0, 0) == pytest.approx(1.0)
            if r > 1.0:
                assert state.chi_at(0.1, 0.2) == 0.0
            for b1, b2 in betas:
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


def _error_class(build, *args, **kwargs):
    """The class of the error `build(*args, **kwargs)` raises, or None."""
    try:
        build(*args, **kwargs)
    except Exception as exc:
        return type(exc)
    return None


@pytest.mark.parametrize("family", rs.THEORETICAL_FAMILIES)
def test_oracle_rejects_what_theoretical_state_rejects(family):
    rejected = 0
    for r, delta in itertools.product((0.0, 0.5, -0.2), (None, 0.3)):
        expected = _error_class(rs.theoretical_state, family, r, delta)
        got = _error_class(fs.theoretical_oracle, family, r, delta, cutoff=20)
        assert got is expected, (r, delta)
        rejected += expected is not None
    assert rejected >= 3


def test_family_argument_validation():
    with pytest.raises(ValueError):
        rs.theoretical_state("squeezed-bell", 1.0)  # missing delta
    for delta in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            rs.theoretical_state("squeezed-bell", 1.0, delta)
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


def test_delta_equivalent_matches_mpmath_at_every_r():
    # atan2(k^2 sinh^2 r, s + k^2 sinh r cosh r) at 50 digits; at r = 400
    # and 800 sinh^2 r overflows, which must neither warn nor lose the
    # limit pi/4
    for T, s in itertools.product((0.9, 0.99, 0.999), (0.0, 0.011, 0.3, 2.0)):
        for r in [*np.logspace(-12.0, 2.0, 15), 355.0, 400.0, 800.0]:
            got = rs.delta_equivalent(rs.SchemeConfig(r=float(r), s=s, T1=T, T2=T))
            with mpmath.workdps(50):
                k2 = mpmath.atan(mpmath.sqrt((1 - mpmath.mpf(T)) / T)) ** 2
                sh, ch = mpmath.sinh(r), mpmath.cosh(r)
                exact = float(mpmath.atan2(k2 * sh * sh, s + k2 * sh * ch))
            assert abs(got - exact) <= 1e-15 * exact, (T, s, r)
            if r >= 355.0:
                assert got == math.pi / 4


@pytest.mark.parametrize("cfg", [rs.SchemeConfig(r=1.0, s=0.1, T2=0.5),
                                 rs.SchemeConfig(r=1.0, s=0.1, T_loss=0.5),
                                 rs.SchemeConfig(r=1.0, s=0.1, T1=0.9, T_loss=0.99,
                                                 loss_on_detector_modes=False)])
def test_delta_equivalent_refuses_configurations_outside_its_regime(cfg):
    # it reads T1 only: T2 = 0.5 or T_loss = 0.5 gave the lossless symmetric
    # configuration's 0.116708
    with pytest.raises(ValueError, match="T1 = T2 and no loss"):
        rs.delta_equivalent(cfg)


def test_effective_squeezing_values():
    assert rs.effective_squeezing(1.4, 1.0) == pytest.approx(1.4)
    assert rs.effective_squeezing(2.0, 0.85) == pytest.approx(0.8991, abs=2e-4)
    assert rs.squeezing_db(rs.effective_squeezing(2.0, 0.85)) == pytest.approx(
        7.81, abs=0.01)
    assert rs.squeezing_db(2.0) == pytest.approx(17.37, abs=0.01)


def test_effective_squeezing_matches_mpmath():
    # 1 - e^{-2r} cancelled at small r, and the loss-free r' = r came out as
    # 10.00000001 at r = 10 and inf from r ~ 18.7
    for T_loss in (1.0, 0.999, 0.85):
        for r in (1e-12, 1e-8, 1e-4, 0.5, 2.0, 10.0, 14.0, 18.0, 30.0, 300.0, 700.0):
            with mpmath.workdps(50):
                T = mpmath.mpf(T_loss)
                exact = float(-mpmath.log((1 - T) + T * mpmath.exp(-2 * mpmath.mpf(r))) / 2)
            assert rs.effective_squeezing(r, T_loss) == pytest.approx(
                exact, rel=1e-15, abs=0.0), (r, T_loss)
    for r in (1e-12, 10.0, 18.0, 700.0):
        assert rs.effective_squeezing(r, 1.0) == r


def test_family_angles_and_decibels_at_large_r():
    # sinh and cosh overflow past r ~ 710, and e^{2r} past r ~ 355
    assert rs.bell_angle("photon-subtracted", 800.0) == np.pi / 4
    assert rs.bell_angle("photon-added", 800.0) == np.pi / 4
    assert rs.squeezing_db(400.0) == 8000.0 / np.log(10.0)


def test_scheme_config_validation():
    with pytest.raises(ValueError):
        rs.SchemeConfig(r=-1.0)
    with pytest.raises(ValueError):
        rs.SchemeConfig(r=1.0, T1=0.0)
    with pytest.raises(ValueError):
        rs.SchemeConfig(r=1.0, eta3=1.5)
    with pytest.raises(ValueError):
        rs.SchemeConfig(r=1.0, T_loss=1.2)


@pytest.mark.parametrize("field", ["r", "s", "phi_zeta", "phi_xi", "T1", "T2",
                                   "T_loss", "eta3", "eta4", "n_thermal"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_scheme_config_rejects_non_finite_fields(field, value):
    with pytest.raises(ValueError):
        rs.SchemeConfig(**{"r": 1.0, field: value})


@pytest.mark.parametrize("value", [0.5, 2, 1, 0, None, "False"])
def test_scheme_config_refuses_a_non_bool_detector_loss_switch(value):
    # the kernel uses the switch as a noise mask and the Fock oracle as a
    # truth value: 0.5 scaled the detector modes by sqrt(T_loss) but added
    # half the loss noise, and read OK with a P and F of neither channel
    with pytest.raises(ValueError, match="loss_on_detector_modes must be a bool"):
        rs.SchemeConfig(r=1.0, s=0.1, T_loss=0.8, loss_on_detector_modes=value)


@pytest.mark.parametrize("value", [True, False, np.True_, np.False_])
def test_scheme_config_takes_a_python_or_numpy_bool_switch(value):
    cfg = rs.SchemeConfig(r=1.0, s=0.1, T_loss=0.8, loss_on_detector_modes=value)
    assert cfg.loss_on_detector_modes == value


@pytest.mark.parametrize("r", [np.nan, np.inf, -1.0])
def test_theoretical_families_reject_bad_squeezing(r):
    for family in rs.THEORETICAL_FAMILIES:
        delta = 0.3 if family == "squeezed-bell" else None
        with pytest.raises(ValueError, match="finite and nonnegative"):
            rs.theoretical_state(family, r, delta)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        optimize_delta(r)


# the scheme configurations of the oracle cross-check
CROSSCHECK_SCHEME = (
    ("ideal", rs.SchemeConfig(r=0.6, s=0.01)),
    ("ideal", rs.SchemeConfig(r=0.8, s=0.005, T1=0.995, T2=0.995)),
    ("ideal", rs.SchemeConfig(r=0.6, s=0.01, T_loss=0.85)),
    ("on-off", rs.SchemeConfig(r=0.6, s=0.01)),
    ("on-off", rs.SchemeConfig(r=0.8, s=0.05, eta3=0.3, eta4=0.2)),
    ("on-off", rs.SchemeConfig(r=0.6, s=0.01, T_loss=0.85)),
    ("on-off", rs.SchemeConfig(r=0.8, s=0.02, T_loss=0.85)),
)


@pytest.mark.parametrize("detector, cfg", CROSSCHECK_SCHEME)
def test_scheme_state_carries_the_kernel_fidelity(detector, cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LossyProjectorWarning)
        state = rs.scheme_state(cfg, detector)
        P, F, _ = kernel.columns_pf(kernel.columns_of([cfg]), detector)
    assert np.float64(state.fidelity).tobytes() == F[0].tobytes()
    assert np.float64(state.success_prob).tobytes() == P[0].tobytes()


def test_theoretical_state_carries_the_squeezed_bell_fidelity():
    for family, r in itertools.product(rs.THEORETICAL_FAMILIES, (0.3, 1.6)):
        delta = 0.7 if family == "squeezed-bell" else None
        state = rs.theoretical_state(family, r, delta)
        expected = kernel.squeezed_bell_fidelity(r, rs.bell_angle(family, r, delta))
        assert state.fidelity == expected


def test_scheme_state_judges_the_fidelity_too():
    # P = 4.7e-16 is no degeneracy, but the fidelity is NaN
    cfg = rs.SchemeConfig(r=20.0, s=0.05, T_loss=0.9)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LossyProjectorWarning)
        P, F, status = kernel.columns_pf(kernel.columns_of([cfg]), "ideal")
        assert P[0] > 0.0 and np.isnan(F[0]) and status[0] == kernel.UNPHYSICAL
        with pytest.raises(PhysicalityError):
            rs.scheme_state(cfg, "ideal")


def test_scheme_config_roundtrip():
    cfg = rs.SchemeConfig(r=1.6, s=0.056, T_loss=0.85)
    again = rs.SchemeConfig(**dataclasses.asdict(cfg))
    assert again == cfg


@pytest.mark.parametrize("T_loss", [0.0, -0.2, 1.0 + 1e-12, np.nan])
def test_effective_squeezing_refuses_a_transmissivity_outside_the_unit_interval(T_loss):
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        rs.effective_squeezing(0.5, T_loss)


def test_delta_equivalent_of_no_squeezing_is_zero():
    # both arguments of the angle's arctan2 vanish at r = s = 0
    assert rs.delta_equivalent(rs.SchemeConfig(r=0.0, s=0.0)) == 0.0
