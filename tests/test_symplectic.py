"""Tests for Gaussian characteristic functions and their linear-optics evolution."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from reference import polygauss as ref

from sqbell import gauss_poly as gp
from sqbell import symplectic as sp
from sqbell.resources import SchemeConfig, effective_squeezing


def tmsv(r, phi=np.pi):
    return sp.two_mode_squeezed_char(sp.SqueezeParam(r, phi))


def plus_minus_mix(chi):
    """Rotate to the +-45 degree combined modes (balanced mixing)."""
    return sp.beam_splitter_substitute(chi, (0, 1), 0.5)


# ---------------------------------------------------------------------------
# sources
# ---------------------------------------------------------------------------


def test_zero_squeezing_is_vacuum():
    chi = tmsv(0.0)
    assert np.allclose(chi.exponent, np.eye(4))
    for b in (0.3 + 0.1j, 1.0, -0.4j):
        assert chi.evaluate([b, 0]) == pytest.approx(np.exp(-abs(b) ** 2 / 2))


def test_tmsv_combined_mode_variances():
    mixed = plus_minus_mix(tmsv(1.0))
    var_x = {round(mixed.quadrature_variances(m)[0], 6) for m in (0, 1)}
    assert var_x == {round(np.exp(2) / 2, 6), round(np.exp(-2) / 2, 6)}
    assert np.exp(2) / 2 == pytest.approx(3.6945, abs=5e-5)
    assert np.exp(-2) / 2 == pytest.approx(0.067668, abs=5e-7)


def test_lossy_squeezed_variance_and_effective_r():
    chi = tmsv(2.0)
    for mode in (0, 1):
        chi = sp.loss_channel(chi, mode, 0.85)
    mixed = plus_minus_mix(chi)
    squeezed = min(mixed.quadrature_variances(0)[0], mixed.quadrature_variances(1)[0])
    assert squeezed == pytest.approx((1 - 0.85 * (1 - np.exp(-4))) / 2, rel=1e-12)
    assert squeezed == pytest.approx(0.082787, abs=5e-6)
    r_eff = -0.5 * np.log(2 * squeezed)
    assert r_eff == pytest.approx(0.8991, abs=2e-4)
    assert r_eff == pytest.approx(effective_squeezing(2.0, 0.85), rel=1e-12)


# ---------------------------------------------------------------------------
# beam splitters
# ---------------------------------------------------------------------------


def test_beam_splitter_identity_and_swap():
    chi = tmsv(0.7)
    same = sp.beam_splitter_substitute(chi, (0, 1), 1.0)
    assert np.allclose(same.exponent, chi.exponent)
    M = sp.beam_splitter_matrix((0, 1), 0.0, 2)
    swap = np.zeros((4, 4))
    swap[0, 2] = swap[1, 3] = -1.0  # first mode reads the second, negated
    swap[2, 0] = swap[3, 1] = 1.0
    assert np.allclose(M, swap)


def test_beam_splitter_preserves_vacuum():
    vac = sp.vacuum_char(2)
    out = sp.beam_splitter_substitute(vac, (0, 1), 0.99)
    assert np.allclose(out.exponent, np.eye(4), atol=1e-14)


def test_beam_splitter_preserves_chi0_and_photon_number():
    chi = tmsv(1.3)
    out = sp.beam_splitter_substitute(chi, (0, 1), 0.77)
    assert out.evaluate([0, 0]) == pytest.approx(1.0)
    assert out.total_mean_photons() == pytest.approx(
        chi.total_mean_photons(), abs=1e-10)


def test_beam_splitter_acts_on_polygauss():
    chi = tmsv(0.9)
    f = ref.gaussian(chi.exponent)
    g = ref.beam_splitter_substitute(f, (0, 1), 0.8)
    direct = sp.beam_splitter_substitute(chi, (0, 1), 0.8)
    for _ in range(10):
        b = np.random.default_rng(4).normal(size=4)
        assert gp.evaluate(g, b) == pytest.approx(
            np.exp(-0.5 * b @ direct.exponent @ b), rel=1e-12)


# ---------------------------------------------------------------------------
# loss channels
# ---------------------------------------------------------------------------


def test_loss_identity_at_full_transmission():
    chi = tmsv(1.1)
    out = sp.loss_channel(chi, 0, 1.0)
    assert np.allclose(out.exponent, chi.exponent)


def test_vacuum_is_loss_fixed_point():
    vac = sp.vacuum_char(3)
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
    assert chi.min_eigenvalue() >= -1e-10
    assert chi.evaluate([0, 0, 0, 0]) == pytest.approx(1.0)


def test_squeeze_param_validation():
    with pytest.raises(ValueError):
        sp.SqueezeParam(-0.1)
    for amplitude in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            sp.SqueezeParam(amplitude)
    for phase in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="phase must be finite"):
            sp.SqueezeParam(0.5, phase)


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
