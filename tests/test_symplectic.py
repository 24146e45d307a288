"""Tests for Gaussian characteristic functions, with the beam splitters of
the covariance reference."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference import covariance as cov

from sqbell import symplectic as sp
from sqbell.errors import DimensionMismatchError, PhysicalityError
from sqbell.resources import SchemeConfig, effective_squeezing


def tmsv(r, phi=np.pi):
    return sp.two_mode_squeezed_char(sp.SqueezeParam(r, phi))


def beam_splitter_map(T, n_modes=2):
    """The reference's variable map of a beam splitter on modes (0, 1)."""
    return cov.variable_map(cov.beam_splitter(T, 0, 1, n_modes))


def mixed(chi, T):
    """chi after the reference's beam splitter on modes (0, 1)."""
    L = beam_splitter_map(T, chi.n_modes)
    return sp.GaussianChar(chi.n_modes, L.T @ chi.exponent @ L)


def plus_minus_mix(chi):
    """Rotate to the +-45 degree combined modes (balanced mixing)."""
    return mixed(chi, 0.5)


def var_x(chi, mode):
    """Var X of one mode, X = (a + a^dag)/sqrt(2), from the second
    derivative of chi at zero."""
    return 0.5 * chi.exponent[2 * mode + 1, 2 * mode + 1]


def total_mean_photons(chi):
    """Sum over modes of <a^dag a> = (S[2m, 2m] + S[2m+1, 2m+1]) / 4 - 1/2."""
    return 0.25 * np.trace(chi.exponent) - 0.5 * chi.n_modes


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------


def test_zero_squeezing_is_vacuum():
    chi = tmsv(0.0)
    assert np.allclose(chi.exponent, np.eye(4))


def test_tmsv_combined_mode_variances():
    mixed = plus_minus_mix(tmsv(1.0))
    variances = {round(var_x(mixed, m), 6) for m in (0, 1)}
    assert variances == {round(np.exp(2) / 2, 6), round(np.exp(-2) / 2, 6)}
    assert np.exp(2) / 2 == pytest.approx(3.6945, abs=5e-5)
    assert np.exp(-2) / 2 == pytest.approx(0.067668, abs=5e-7)


def test_lossy_squeezed_variance_and_effective_r():
    chi = tmsv(2.0)
    for mode in (0, 1):
        chi = sp.loss_channel(chi, mode, 0.85)
    mixed = plus_minus_mix(chi)
    squeezed = min(var_x(mixed, 0), var_x(mixed, 1))
    assert squeezed == pytest.approx((1 - 0.85 * (1 - np.exp(-4))) / 2, rel=1e-12)
    assert squeezed == pytest.approx(0.082787, abs=5e-6)
    r_eff = -0.5 * np.log(2 * squeezed)
    assert r_eff == pytest.approx(0.8991, abs=2e-4)
    assert r_eff == pytest.approx(effective_squeezing(2.0, 0.85), rel=1e-12)


# ---------------------------------------------------------------------------
# beam splitters
# ---------------------------------------------------------------------------


def test_beam_splitter_identity_and_swap():
    # the kernel's convention, b_k -> sqrt(T) b_k - sqrt(1 - T) b_l
    chi = tmsv(0.7)
    same = mixed(chi, 1.0)
    assert np.allclose(same.exponent, chi.exponent)
    M = beam_splitter_map(0.0)
    swap = np.zeros((4, 4))
    swap[0, 2] = swap[1, 3] = -1.0  # first mode reads the second, negated
    swap[2, 0] = swap[3, 1] = 1.0
    assert np.allclose(M, swap)


def test_beam_splitter_preserves_vacuum():
    vac = sp.GaussianChar(2, np.eye(4))
    out = mixed(vac, 0.99)
    assert np.allclose(out.exponent, np.eye(4), atol=1e-14)


def test_beam_splitter_preserves_chi0_and_photon_number():
    chi = tmsv(1.3)
    out = mixed(chi, 0.77)
    assert total_mean_photons(out) == pytest.approx(total_mean_photons(chi), abs=1e-10)


# ---------------------------------------------------------------------------
# loss channels
# ---------------------------------------------------------------------------


def test_loss_identity_at_full_transmission():
    chi = tmsv(1.1)
    out = sp.loss_channel(chi, 0, 1.0)
    assert np.allclose(out.exponent, chi.exponent)


def test_vacuum_is_loss_fixed_point():
    vac = sp.GaussianChar(3, np.eye(6))
    out = sp.loss_channel(vac, 1, 0.4)
    assert np.allclose(out.exponent, np.eye(6))


def test_loss_composition():
    chi = tmsv(1.4)
    a = sp.loss_channel(sp.loss_channel(chi, 0, 0.9), 0, 0.8)
    b = sp.loss_channel(chi, 0, 0.72)
    assert np.max(np.abs(a.exponent - b.exponent)) < 1e-12


def test_two_stage_thermal_chain_matches_direct_form():
    # thermal stage (T_th, n) then vacuum stage (T_l) on a fresh mode
    chi = tmsv(0.8)
    T_th, nbar, T_l = 0.93, 0.7, 0.85
    out = sp.loss_channel(sp.loss_channel(chi, 0, T_th, nbar), 0, T_l)
    S = chi.exponent.copy()
    scale = np.ones(4)
    scale[0] = scale[1] = np.sqrt(T_th * T_l)
    direct = S * np.outer(scale, scale)
    add = (2 * nbar + 1) * (1 - T_th) * T_l + (1 - T_l)
    direct[0, 0] += add
    direct[1, 1] += add
    assert np.allclose(out.exponent, direct, atol=1e-12)


# ---------------------------------------------------------------------------
# scheme source function
# ---------------------------------------------------------------------------


def test_scheme_char_vacuum_case():
    cfg = SchemeConfig(r=0.0, s=0.0, T1=1.0, T2=1.0)
    chi = sp.scheme_four_mode_char(cfg)
    assert np.allclose(chi.exponent, np.eye(8))


def test_scheme_char_factorizes_without_mixing():
    cfg = SchemeConfig(r=0.9, s=0.3, T1=1.0, T2=1.0)
    S = sp.scheme_four_mode_char(cfg).exponent
    # no coupling between the (1,2) and (3,4) blocks
    assert np.max(np.abs(S[:4, 4:])) < 1e-14
    assert np.allclose(S[:4, :4], tmsv(0.9).exponent)
    assert np.allclose(S[4:, 4:], tmsv(0.3).exponent)


def test_scheme_char_loss_restriction_switch():
    full = sp.scheme_four_mode_char(SchemeConfig(r=0.8, s=0.1, T_loss=0.9))
    part = sp.scheme_four_mode_char(
        SchemeConfig(r=0.8, s=0.1, T_loss=0.9, loss_on_detector_modes=False))
    assert not np.allclose(full.exponent, part.exponent)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.0, 1.8), st.floats(0.0, 0.8), st.floats(0.5, 1.0),
       st.floats(0.8, 1.0), st.floats(0.8, 1.0))
def test_scheme_exponent_stays_psd(r, s, T_loss, T1, T2):
    cfg = SchemeConfig(r=r, s=s, T1=T1, T2=T2, T_loss=T_loss)
    chi = sp.scheme_four_mode_char(cfg)
    assert np.linalg.eigvalsh(chi.exponent).min() >= -1e-10


def test_squeeze_param_validation():
    with pytest.raises(ValueError):
        sp.SqueezeParam(-0.1)
    for amplitude in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            sp.SqueezeParam(amplitude)
    for phase in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="phase must be finite"):
            sp.SqueezeParam(0.5, phase)


@pytest.mark.parametrize("mode", [-1, -2, 2, 5])
def test_loss_channel_rejects_invalid_mode(mode):
    # mode -1 acted on the last mode, and a mode past the end raised IndexError
    with pytest.raises(ValueError, match="must be distinct and lie in 0 .. 1"):
        sp.loss_channel(tmsv(0.5), mode, 0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gaussian_char_rejects_non_finite_exponent(bad):
    with pytest.raises(PhysicalityError, match="not finite"):
        sp.GaussianChar(2, np.full((4, 4), bad))
    S = np.eye(4)
    S[1, 1] = bad
    with pytest.raises(PhysicalityError, match="not finite"):
        sp.GaussianChar(2, S)


def test_gaussian_char_keeps_entries_near_the_float_limit():
    # S + S^T overflows for entries above about 9e307, where the source at
    # r = 355 has them, so the exponent is halved before the sum
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chi = sp.GaussianChar(1, [[1e308, 0.0], [0.0, 1e308]])
    assert np.array_equal(chi.exponent, np.diag([1e308, 1e308]))


@pytest.mark.parametrize("r", [np.nan, np.inf, -0.1])
def test_effective_squeezing_rejects_bad_squeezing(r):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        effective_squeezing(r, 0.9)


def test_effective_squeezing_grid_properties():
    for T_loss in (0.5, 0.7, 0.9, 0.99):
        assert effective_squeezing(0.0, T_loss) == 0.0
        prev = 0.0
        for r in np.arange(0.1, 2.01, 0.1):
            rp = effective_squeezing(r, T_loss)
            assert 0 < rp < r if T_loss < 1 else rp == pytest.approx(r)
            assert rp > prev  # strictly increasing in r
            prev = rp
    assert effective_squeezing(1.5, 1.0) == pytest.approx(1.5)


@pytest.mark.parametrize("call, error, match", [
    (lambda: sp.GaussianChar(2, np.eye(3)), DimensionMismatchError, "shape"),
    (lambda: sp.GaussianChar(1, [[1.0, 0.5], [0.0, 1.0]]), PhysicalityError, "not symmetric"),
    (lambda: sp.loss_channel(tmsv(0.5), 0, 0.0), ValueError, r"\(0, 1\]"),
    (lambda: sp.loss_channel(tmsv(0.5), 1, 1.5), ValueError, r"\(0, 1\]"),
    (lambda: sp.loss_channel(tmsv(0.5), 0, 0.8, n_thermal=-0.1), ValueError, "nonnegative"),
], ids=["shape", "asymmetric", "loss-zero", "loss-above", "negative-thermal"])
def test_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()
