"""Tests for the truncated-Fock-space oracle."""

import functools
import itertools
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from reference import fock_dense
from scipy.linalg import expm
from test_acceptance import BETA_GRID_1, BETA_GRID_2

from sqbell import fock_sim as fs
from sqbell import resources as rs
from sqbell.conditioning import LossyProjectorWarning
from sqbell.errors import CutoffTooSmallError, DegeneratePostselectionError, ZeroNormStateError
from sqbell.resources import SchemeConfig, delta_equivalent
from sqbell.symplectic import SqueezeParam, two_mode_squeezed_char


def dense_squeeze_generator(z, dim):
    a = fs.annihilator(dim)
    ad = a.conj().T
    return -z * np.kron(ad, ad) + np.conj(z) * np.kron(a, a)


# ---------------------------------------------------------------------------
# squeezed states
# ---------------------------------------------------------------------------


_FAMILIES = [("twin-beam", None), ("squeezed-number", None), ("squeezed-bell", 1.1),
             ("photon-subtracted", None), ("photon-added", None)]


def test_squeeze_zero_is_identity():
    # at r = 0 every family but photon subtraction (refused there) is its
    # unsqueezed state
    bare = {"twin-beam": (1.0, 0.0), "squeezed-number": (0.0, 1.0),
            "squeezed-bell": (np.cos(1.1), np.sin(1.1)), "photon-added": (0.0, 1.0)}
    for family, (c00, c11) in bare.items():
        delta = 1.1 if family == "squeezed-bell" else None
        expected = fock_dense.basis_state((6, 6), (0, 0)).amps * c00
        expected[1, 1] = c11
        st = fs.theoretical_oracle(family, 0.0, delta, cutoff=6)
        assert np.array_equal(st.amps, expected), family
        assert st.leak == 0.0


def test_squeeze_geometric_profile():
    r = 0.6
    st = fs.theoretical_oracle("twin-beam", r, cutoff=18)
    expected = np.array([np.tanh(r) ** n / np.cosh(r) for n in range(10)])
    assert np.max(np.abs(np.diag(st.amps)[:10] - expected)) < 1e-12
    off = st.amps.copy()
    np.fill_diagonal(off, 0)
    assert np.max(np.abs(off)) < 1e-14


def test_squeeze_matches_naive_power_series():
    # independent oracle: plain truncated Taylor series of the generator
    z = 0.35 * np.exp(1j * np.pi)
    dim = 14
    G = dense_squeeze_generator(z, dim)
    vec = np.zeros(dim * dim, dtype=complex)
    vec[0] = 1.0
    acc, term = vec.copy(), vec.copy()
    for k in range(1, 60):
        term = G @ term / k
        acc += term
    st = fs.theoretical_oracle("twin-beam", abs(z), cutoff=dim - 1)
    assert np.max(np.abs(st.amps.reshape(-1)[:60] - acc[:60])) < 1e-10


def test_bogoliubov_identity_on_interior():
    # truncation corruption decays steeply away from the cutoff boundary,
    # so the identity is asserted on a deep interior block
    r, dim, inner = 0.5, 36, 6
    U = fs.two_mode_squeeze_operator(SqueezeParam(r, np.pi), (dim, dim)).toarray()
    a = fs.annihilator(dim)
    a1 = np.kron(a, np.eye(dim))
    a2dag = np.kron(np.eye(dim), a.conj().T)
    lhs = U.conj().T @ a1 @ U
    rhs = np.cosh(r) * a1 + np.sinh(r) * a2dag
    diff = np.abs(lhs - rhs).reshape(dim, dim, dim, dim)
    assert diff[:inner, :inner, :inner, :inner].max() < 1e-9


def test_squeeze_norm_preserved_within_leak():
    st = fs.theoretical_oracle("twin-beam", 0.5, cutoff=20)
    assert np.vdot(st.amps, st.amps).real == pytest.approx(1.0, abs=1e-10)
    assert st.leak < 1e-10
    # the twin beam's norm above cutoff c is tanh(r)^(2(c + 1)), 8.3e-15
    # here; the leak is 1 minus the norm in the box, exact to rounding
    assert abs(st.leak - np.tanh(0.5) ** 42) < 1e-15


def test_squeeze_cutoff_too_small():
    with pytest.raises(CutoffTooSmallError) as err:
        fs.theoretical_oracle("twin-beam", 1.2, cutoff=4)
    assert err.value.deficit > 1e-8


def test_families_match_the_pair_unitary_at_the_box_edge():
    # the state reaches the edge of the box (3e-3 of the ladder families'
    # norm lies above it); the csr squeezer on 180 levels per mode holds it
    # to rounding, and a1 a2 and a1^dag a2^dag are taken on those levels
    r, cutoff, dim = 1.5, 48, 180
    columns = fs.two_mode_squeeze_operator(SqueezeParam(r, np.pi), (dim, dim))[
        :, [0, dim + 1]].toarray()
    vacuum, number = columns.T.reshape(2, dim, dim)
    a = fs.annihilator(dim)
    expected = {"twin-beam": vacuum, "squeezed-number": number,
                "squeezed-bell": np.cos(1.1) * vacuum + np.sin(1.1) * number}
    for family, op in (("photon-subtracted", a), ("photon-added", a.conj().T)):
        laddered = op @ vacuum @ op.T
        expected[family] = laddered / np.linalg.norm(laddered)
    box = slice(cutoff + 1)
    for family, delta in _FAMILIES:
        st = fs.theoretical_oracle(family, r, delta, cutoff=cutoff, leak_tol=1e-2)
        assert np.max(np.abs(st.amps - expected[family][box, box])) < 1e-13, family
        assert st.leak > 5e-5


@pytest.mark.parametrize("r", [30.0, 800.0])
def test_families_leak_everything_at_large_squeezing(r):
    # the in-box norm is below 1e-24 at r = 30 and cosh r overflows at
    # r = 800; either way the leak is the whole norm, with no warning
    for family, delta in _FAMILIES:
        st = fs.theoretical_oracle(family, r, delta, cutoff=20, leak_tol=1.0)
        assert abs(st.leak - 1.0) < 1e-12, family


# ---------------------------------------------------------------------------
# beam splitter
# ---------------------------------------------------------------------------


def test_beam_splitter_identity():
    U = fs.beam_splitter_operator(1.0, (6, 6))
    assert np.allclose(U.toarray(), np.eye(36))


@pytest.mark.parametrize("build", [
    lambda: fs.beam_splitter_operator(0.5, (3, 3)),
    lambda: fs.two_mode_squeeze_operator(SqueezeParam(0.3, 1.0), (3, 3)),
], ids=["beam-splitter", "squeezer"])
def test_csr_operator_is_a_new_matrix_per_call(build):
    # a caller that modifies its operator leaves the next caller's intact
    expected = build().toarray()
    build().data[:] = 0
    assert np.array_equal(build().toarray(), expected)


@pytest.mark.parametrize("cutoff", [25, 40])
def test_pair_unitaries_match_expm_blockwise(cutoff):
    # each generator conserves n1 - n2 (squeezer) or n1 + n2 (beam splitter),
    # so dense expm of its blocks is the whole exponential
    dim = cutoff + 1
    a = fs.annihilator(dim)
    n1, n2 = np.divmod(np.arange(dim * dim), dim)
    kappa = np.arctan(np.sqrt((1.0 - 0.7) / 0.7))
    cases = [
        (fs.two_mode_squeeze_operator(SqueezeParam(1.6, np.pi), (dim, dim)),
         dense_squeeze_generator(1.6 * np.exp(1j * np.pi), dim), n1 - n2),
        (fs.two_mode_squeeze_operator(SqueezeParam(0.7, 1.1), (dim, dim)),
         dense_squeeze_generator(0.7 * np.exp(1.1j), dim), n1 - n2),
        (fs.beam_splitter_operator(0.7, (dim, dim)),
         kappa * (np.kron(a.conj().T, a) - np.kron(a, a.conj().T)), n1 + n2),
    ]
    for U, G, conserved in cases:
        expected = np.zeros(G.shape, dtype=complex)
        for q in np.unique(conserved):
            block = np.ix_(conserved == q, conserved == q)
            expected[block] = expm(G[block])
        assert np.abs(U.toarray() - expected).max() < 1e-13


def test_beam_splitter_single_photon():
    T = 0.7
    kappa = np.arctan(np.sqrt((1 - T) / T))
    single = fock_dense.basis_state((4, 4), (1, 0)).amps.ravel()
    out = (fs.beam_splitter_operator(T, (5, 5)) @ single).reshape(5, 5)
    assert out[1, 0] == pytest.approx(np.cos(kappa))
    assert out[0, 1] == pytest.approx(-np.sin(kappa))
    assert np.sum(np.abs(out) ** 2) == pytest.approx(1.0)


def test_beam_splitter_conserves_photon_number():
    rng = np.random.default_rng(9)
    amps = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    amps /= np.linalg.norm(amps)
    out = (fs.beam_splitter_operator(0.63, (7, 7)) @ amps.ravel()).reshape(7, 7)
    assert np.sum(np.abs(out) ** 2) == pytest.approx(1.0, abs=1e-12)
    n = np.arange(7)
    weight_in = sum(abs(amps[i, j]) ** 2 * (i + j) for i in n for j in n)
    weight_out = sum(abs(out[i, j]) ** 2 * (i + j) for i in n for j in n)
    assert weight_out == pytest.approx(weight_in, abs=1e-12)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def _pure_density(state):
    """|psi><psi| of a two-mode pure state."""
    flat = state.amps.reshape(-1)
    return fs.FockDensity(state.cutoffs, np.outer(flat, flat.conj()))


def test_loss_identity_channel():
    pure = _pure_density(fock_dense.basis_state((4, 4), (2, 1)))
    rho = fs.loss_kraus(pure, 0, 1.0)
    assert np.allclose(fock_dense.dense(rho), fock_dense.dense(pure))


def test_loss_single_photon():
    rho = fock_dense.as_tensor(
        fs.loss_kraus(_pure_density(fock_dense.basis_state((3, 3), (1, 0))), 0, 0.7))
    assert rho[1, 0, 1, 0] == pytest.approx(0.7)
    assert rho[0, 0, 0, 0] == pytest.approx(0.3)


@pytest.mark.parametrize("mode", [2, -1])
def test_loss_refuses_a_mode_outside_the_pair(mode):
    with pytest.raises(ValueError, match="not 0 or 1"):
        fs.loss_kraus(_pure_density(fock_dense.basis_state((3, 3), (1, 0))), mode, 0.5)


def test_loss_kraus_vs_ancilla_route():
    rng = np.random.default_rng(31)
    amps = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
    amps /= np.linalg.norm(amps)
    st = fs.FockTensor((8, 8), amps)
    for mode, T in ((0, 0.85), (1, 0.6)):
        a = fs.loss_kraus(_pure_density(st), mode, T)
        b = fock_dense.loss_via_ancilla(st, mode, T)
        assert np.max(np.abs(fock_dense.dense(a) - b)) < 1e-12


# ---------------------------------------------------------------------------
# conditioning
# ---------------------------------------------------------------------------


def _single_photon(dim):
    return (fs.lossy_projector_weights(1.0, dim),) * 2


@functools.lru_cache(maxsize=2)
def _dense_scheme_state(cfg, cutoff, pad=0):
    """The scheme's lossless four-mode state, squeezed and mixed by the
    dense reference steps `pad` levels above the cutoff and cut to its box;
    cached on (cfg, cutoff, pad) and read-only, so the tests at cutoff 36,
    whose builds are the slowest, share theirs."""
    amps = fock_dense.scheme_state(cfg, cutoff, pad)
    amps.flags.writeable = False
    return fs.FockTensor((cutoff,) * 4, amps)


def _boxed_scheme_state(cfg, cutoff):
    """The dense reference state built 12 levels above the cutoff, where
    every amplitude of its box is exact to rounding."""
    return _dense_scheme_state(cfg, cutoff, 12)


def _four_mode(psi):
    """The amplitudes psi[M, n1, n2] of `fs._scheme_amplitudes` as the dense
    tensor [n1, n2, n3, n4], zero off n1 + n3 = n2 + n4."""
    n1, n2, n3, n4 = np.indices((psi.shape[1],) * 4)
    return np.where(n1 + n3 == n2 + n4, psi[n1 + n3, n1, n2], 0.0)


def test_project_single_photon_trivial_factor():
    st = fock_dense.basis_state((3, 3, 3, 3), (2, 0, 1, 1))
    rho, success = fock_dense.condition_with_diagonal_weights(st, *_single_photon(4))
    assert success == pytest.approx(1.0)
    assert rho.reshape((4,) * 4)[2, 0, 2, 0] == pytest.approx(1.0)


def test_project_single_photon_degenerate():
    with pytest.raises(DegeneratePostselectionError):
        fock_dense.condition_with_diagonal_weights(fock_dense.vacuum_state((3, 3, 3, 3)),
                                                   *_single_photon(4))


def _unsqueezed_herald(cfg, r):
    """Modes 1 and 2 of the dense scheme state at cutoff 36 heralded on
    |1, 1> and squeezed back by S(r) of phase 0, the inverse of the phase-pi
    squeezer: a squeezer on modes 1 and 2 commutes with projecting modes 3
    and 4, so it acts on the projected pair."""
    st4 = _dense_scheme_state(cfg, 36)
    psi = fs.FockTensor(st4.cutoffs[:2], st4.amps[:, :, 1, 1])
    un, deficit = fock_dense.dense_two_mode_squeeze(psi, (0, 1), SqueezeParam(r, 0.0))
    assert deficit < 1e-3
    return un


def test_small_kappa_amplitudes_match_leading_order():
    # conditioned amplitudes approach (s + k^2 sh ch, k^2 sh^2) as T -> 1
    r, T = 1.0, 0.999
    kappa2 = np.arctan(np.sqrt((1 - T) / T)) ** 2
    s = 1.1 * kappa2
    cfg = SchemeConfig(r=r, s=s, T1=T, T2=T)
    un = _unsqueezed_herald(cfg, r)
    c00, c11 = un[0, 0].real, un[1, 1].real
    lam = -s / kappa2
    c00_th = -lam + np.sinh(r) * np.cosh(r)
    c11_th = np.sinh(r) ** 2
    measured = np.arctan2(c11, c00)
    predicted = np.arctan2(c11_th, c00_th)
    assert measured == pytest.approx(predicted, abs=5 * kappa2)
    assert predicted == pytest.approx(delta_equivalent(cfg), abs=1e-12)


def test_delta_formula_error_shrinks_with_kappa():
    r = 1.0

    def mismatch(T):
        kappa2 = np.arctan(np.sqrt((1 - T) / T)) ** 2
        cfg = SchemeConfig(r=r, s=1.1 * kappa2, T1=T, T2=T)
        un = _unsqueezed_herald(cfg, r)
        measured = np.arctan2(un[1, 1].real, un[0, 0].real)
        return abs(measured - delta_equivalent(cfg)) / kappa2

    assert mismatch(0.999) == pytest.approx(mismatch(0.99), rel=0.35)


def test_povm_degenerate_on_vacuum_ancillas():
    st = fock_dense.vacuum_state((4, 4, 4, 4))
    with pytest.raises(DegeneratePostselectionError):
        fock_dense.condition_with_diagonal_weights(st, *(fs.on_off_weights(0.5, 5),) * 2)


@pytest.mark.parametrize("T", [1.5, -0.1, np.nan])
def test_lossy_projector_refuses_transmissivity_outside_unit_interval(T):
    with pytest.raises(ValueError, match="transmissivity"):
        fs.lossy_projector_weights(T, 4)


def test_on_povm_at_unit_efficiency():
    w = fs.on_off_weights(1.0, 6)
    assert w[0] == 0.0
    assert np.allclose(w[1:], 1.0)


def test_povm_majorizes_single_photon_projection():
    cfg = SchemeConfig(r=0.5, s=0.02)
    st4 = _dense_scheme_state(cfg, 14)
    _, n_on = fock_dense.condition_with_diagonal_weights(
        st4, *(fs.on_off_weights(1.0, 15),) * 2)
    _, n_11 = fock_dense.condition_with_diagonal_weights(st4, *_single_photon(15))
    assert n_on >= n_11


def test_povm_no_mixing_recovers_signal_tmsv():
    # T = 1: detectors see only the ancilla pair; signal stays a twin beam
    cfg = SchemeConfig(r=0.6, s=0.3, T1=1.0, T2=1.0)
    st4 = _dense_scheme_state(cfg, 16)
    w = fs.on_off_weights(0.4, 17)
    rho, success = fock_dense.condition_with_diagonal_weights(st4, w, w)
    tb = fs.theoretical_oracle("twin-beam", 0.6, cutoff=16)
    pure = np.outer(tb.amps.reshape(-1), tb.amps.conj().reshape(-1))
    assert np.max(np.abs(rho - pure)) < 1e-9
    # heralding rate equals the on/off coincidence rate of the bare ancilla
    anc = fs.theoretical_oracle("twin-beam", 0.3, cutoff=16)
    direct = np.einsum("kl,kl,k,l->", anc.amps, anc.amps.conj(), w, w).real
    assert success == pytest.approx(direct, rel=1e-8)


def test_povm_on_explicit_density_matches_pure_route():
    # both routes see the same truncated state, so they must agree exactly;
    # the explicit four-mode density is reduced here, by einsum
    cfg = SchemeConfig(r=0.4, s=0.05)
    st4 = _dense_scheme_state(cfg, 6)
    rho4 = np.einsum("abcd,efgh->abcdefgh", st4.amps, st4.amps.conj())
    w3, w4 = fs.on_off_weights(0.3, 7), fs.on_off_weights(0.25, 7)
    r1, s1 = fock_dense.condition_with_diagonal_weights(st4, w3, w4)
    red = np.einsum("abklcdkl,k,l->abcd", rho4, w3, w4).reshape(49, 49)
    s2 = np.trace(red).real
    assert s1 == pytest.approx(s2, rel=1e-12)
    assert np.max(np.abs(r1 - red / s2)) < 1e-12


# ---------------------------------------------------------------------------
# displacements and characteristic functions
# ---------------------------------------------------------------------------


def _displacement(alpha, cutoff):
    """<m|D(alpha)|n> for m, n <= cutoff."""
    return fs._displacement_batch(np.array([alpha]), cutoff)[:, :, 0]


def test_displacement_zero_is_identity():
    assert np.allclose(_displacement(0.0, 10), np.eye(11))


def test_displacement_diagonal_element():
    al = 0.37 - 0.21j
    D = _displacement(-al, 6)
    assert D[1, 1] == pytest.approx((1 - abs(al) ** 2) * np.exp(-abs(al) ** 2 / 2))


def test_displacement_unitarity_on_interior():
    # |n> displaced by |alpha| <= 2 must stay well below the cutoff, so the
    # product is checked on an interior block with that margin
    for al in (0.5, 1.2 - 0.7j, 2.0j):
        D = _displacement(al, 40)
        Dm = _displacement(-al, 40)
        assert np.max(np.abs((Dm @ D)[:10, :10] - np.eye(10))) < 1e-8


def test_displacement_matches_expm_oracle():
    al = 0.8 + 0.3j
    dim = 40
    a = fs.annihilator(dim)
    ref = expm(al * a.conj().T - np.conj(al) * a)
    D = _displacement(al, dim - 1)
    assert np.max(np.abs(D[:25, :25] - ref[:25, :25])) < 1e-12


def test_char_function_vacuum():
    vac = fock_dense.vacuum_state((6, 6))
    rho = fs.FockDensity((6, 6), np.outer(vac.amps.reshape(-1),
                                          vac.amps.reshape(-1)))
    for b1, b2 in ((0.4, 0.2j), (0.0, 0.0)):
        assert fs.char_function(rho, b1, b2) == pytest.approx(
            np.exp(-(abs(b1) ** 2 + abs(b2) ** 2) / 2))


def test_char_function_tmsv_vs_closed_form():
    st = fs.theoretical_oracle("twin-beam", 0.5, cutoff=30)
    chi = two_mode_squeezed_char(SqueezeParam(0.5, np.pi))
    for b1, b2 in ((0.8 + 0.6j, -1.0 + 0.5j), (1.5, 1.2j), (0.0, 0.0)):
        # (Re b1, Im b1, Re b2, Im b2), the exponent's coordinate order
        v = np.array([b1, b2], dtype=complex).view(float)
        assert fs.char_function_state(st, b1, b2) == pytest.approx(
            np.exp(-0.5 * v @ chi.exponent @ v), abs=1e-8)


def laguerre_displacement(alpha, cutoff):
    """<m|D(alpha)|n> at 50 digits from the explicit Laguerre sum
    L_j^(k)(x) = sum_i (-1)^i C(j+k, j-i) x^i / i!, independent of the
    recurrence the package uses."""
    with mp.workdps(50):
        a = mp.mpc(alpha.real, alpha.imag)
        x = abs(a) ** 2
        damp = mp.exp(-x / 2)
        fact = [mp.factorial(i) for i in range(2 * cutoff + 2)]
        xpow = [x ** i / fact[i] for i in range(cutoff + 1)]
        out = np.empty((cutoff + 1, cutoff + 1), dtype=complex)
        for k in range(cutoff + 1):
            lower, upper = a ** k, (-mp.conj(a)) ** k
            for j in range(cutoff + 1 - k):
                lag = mp.fsum((-1) ** i * fact[j + k] / (fact[j - i] * fact[k + i])
                              * xpow[i] for i in range(j + 1))
                base = mp.sqrt(fact[j] / fact[j + k]) * damp * lag
                out[j + k, j] = complex(base * lower)
                out[j, j + k] = complex(base * upper)
    return out


@pytest.mark.parametrize("cutoff", [25, 40])
def test_displacement_batch_matches_mpmath_laguerre(cutoff):
    alphas = np.array([0.0, 0.3 - 0.2j, -2.0 + 1.5j, 2.4 - 3.2j])
    batch = fs._displacement_batch(alphas, cutoff)
    for k, al in enumerate(alphas):
        ref = laguerre_displacement(al, cutoff)
        assert np.max(np.abs(batch[:, :, k] - ref)) < 1e-13, al


def test_displacement_batch_finite_at_gauss_hermite_extreme():
    # the fidelity's 48-point Gauss-Hermite grid reaches |lambda| ~ 12.8
    node = np.polynomial.hermite.hermgauss(48)[0].max()
    lam = node * np.array([1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j])
    assert np.abs(lam).max() > 12.6
    for cutoff in (25, 40):
        batch = fs._displacement_batch(lam, cutoff)
        assert np.all(np.isfinite(batch))
        assert np.abs(batch).max() <= 1.0
        ref = laguerre_displacement(lam[2], cutoff)
        assert np.max(np.abs(batch[:, :, 2] - ref)) < 1e-13


def expm_displacement(alpha, cutoff, dim=40):
    """Displacement block from exp(alpha a^dag - conj(alpha) a) on a larger space."""
    a = fs.annihilator(dim)
    return expm(alpha * a.conj().T - np.conj(alpha) * a)[:cutoff + 1, :cutoff + 1]


def test_char_function_batch_matches_scalar():
    # scalar chi is a batch of one, so both are held to Tr[rho D1 D2] with
    # displacements from expm of the generator
    cfg = SchemeConfig(r=0.4, s=0.03)
    rho, _ = fs.scheme_oracle(cfg, "on-off", cutoff=12)
    b1 = np.array([0.3 + 0.1j, -0.2j, 0.5, 0.0])
    b2 = np.array([0.1 - 0.4j, 0.25, -0.3 + 0.3j, 0.0])
    batch = fs.char_function_batch(rho, b1, b2)
    t = fock_dense.as_tensor(rho)
    for k in range(len(b1)):
        ref = np.einsum("mnkl,km,ln->", t, expm_displacement(b1[k], 12),
                        expm_displacement(b2[k], 12))
        assert abs(batch[k] - ref) < 1e-12
        assert fs.char_function(rho, b1[k], b2[k]) == pytest.approx(
            batch[k], rel=1e-12, abs=1e-12)
    assert batch[-1] == pytest.approx(1.0)


@pytest.mark.parametrize("cutoffs, occupations", [
    ((3,) * 3, (1, 0, 0)), ((3,) * 4, (1, 0, 0, 0))], ids=["three-mode", "four-mode"])
def test_char_function_state_refuses_other_mode_counts(cutoffs, occupations):
    with pytest.raises(ValueError, match="two-mode"):
        fs.char_function_state(fock_dense.basis_state(cutoffs, occupations), 0.3, 0.2j)


def test_char_function_state_matches_batch_on_pure_density():
    st = fs.theoretical_oracle("photon-subtracted", 0.6, cutoff=20)
    flat = st.amps.reshape(-1)
    rho = fs.FockDensity(st.cutoffs, np.outer(flat, flat.conj()))
    b1 = np.array([0.35, -0.25 + 0.2j, 0.45 - 0.3j, 1.2j])
    b2 = np.array([0.25j, 0.3 + 0.25j, -0.2 - 0.35j, -0.8])
    batch = fs.char_function_batch(rho, b1, b2)
    for k in range(len(b1)):
        assert abs(fs.char_function_state(st, b1[k], b2[k]) - batch[k]) < 1e-13


def _random_density(rng, cutoffs):
    d = (cutoffs[0] + 1) * (cutoffs[1] + 1)
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = M @ M.conj().T
    return fs.FockDensity(cutoffs, rho / np.trace(rho))


def _single_shift_pair_density(rng, cutoffs, j1, j2):
    """Random entries rho[m, n, k, l] where k - m = j1 and l - n = j2, else 0."""
    d0, d1 = cutoffs[0] + 1, cutoffs[1] + 1
    m, n, k, l = np.indices((d0, d1, d0, d1))
    t = rng.normal(size=m.shape) + 1j * rng.normal(size=m.shape)
    t[(k - m != j1) | (l - n != j2)] = 0.0
    return fs.FockDensity(cutoffs, t.reshape(d0 * d1, d0 * d1))


def _lossy_oracle_density(detector):
    return fs.scheme_oracle(SchemeConfig(r=0.6, s=0.01, T_loss=0.85),
                            detector, cutoff=16)[0]


@pytest.mark.parametrize("density", [
    lambda rng: _random_density(rng, (8, 11)),
    lambda rng: _lossy_oracle_density("ideal"),
    lambda rng: _lossy_oracle_density("on-off"),
    lambda rng: _single_shift_pair_density(rng, (9, 7), 2, -3),
], ids=["dense", "ideal-lossy", "onoff-lossy", "shift-pair"])
def test_char_function_batch_matches_dense_contraction(density):
    rng = np.random.default_rng(11)
    rho = density(rng)
    # the fidelity's Gauss-Hermite grid, out to |lambda| ~ 12.8, and
    # independent random amplitudes for the two modes
    nodes = np.polynomial.hermite.hermgauss(48)[0]
    lam = (nodes[:, None] + 1j * nodes[None, :]).ravel()
    assert np.abs(lam).max() > 12.6
    b1 = np.concatenate([-np.conj(lam), rng.normal(size=64) + 1j * rng.normal(size=64)])
    b2 = np.concatenate([-lam, 2 * rng.normal(size=64) + 1j * rng.normal(size=64)])
    got = fs.char_function_batch(rho, b1, b2)
    ref = fock_dense.char_function_batch(rho, b1, b2)
    assert np.max(np.abs(ref)) > 1e-3
    assert np.max(np.abs(got - ref)) < 1e-13


def _zero_densities():
    """Densities with no nonzero entry, scanned from a zero matrix and
    built from no entries, as the oracle's degenerate heralding makes one."""
    return [fs.FockDensity((4, 6), np.zeros((35, 35), dtype=complex)),
            fs.FockDensity.from_entries((4, 6), np.zeros(0, dtype=int),
                                        np.zeros(0, dtype=complex))]


def test_char_function_batch_of_zero_density_is_zero():
    for rho in _zero_densities():
        assert len(rho.flat) == 0
        assert not np.any(fs.char_function_batch(rho, [0.0, 0.3j], [0.5, -0.2]))


def test_loss_of_zero_density_is_zero():
    for rho in _zero_densities():
        assert rho.trace() == 0.0
        for mode in (0, 1):
            lost = fs.loss_kraus(rho, mode, 0.7)
            assert len(lost.flat) == 0 and lost.trace() == 0.0
            matrix = fock_dense.dense(lost)
            assert matrix.shape == (35, 35) and not np.any(matrix)


def _repeated_moduli_batches(rng):
    """Batches whose amplitudes share |beta|^2 but not their phases."""
    circle = 0.9 * np.exp(2j * np.pi * np.arange(24) / 24)
    beta = rng.normal(size=12) + 1j * rng.normal(size=12)
    beside = np.concatenate([beta, -np.conj(beta)])        # beta next to -conj(beta)
    radii = np.array([0.0, 0.4, 1.3, 2.2])
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(2, 24)))
    r1, r2 = np.meshgrid(radii, radii[::-1])
    many = 1.7 * np.exp(2j * np.pi * rng.uniform(size=40))
    return [
        (circle, circle[::-1]),                            # one circle, both modes
        (beside, beside[::-1]),
        (np.repeat(radii, 6) * phases[0],                  # |beta1| != |beta2|
         np.tile(radii, 6) * phases[1]),
        (np.resize(r1.ravel(), 24) * phases[0], np.resize(r2.ravel(), 24) * phases[1]),
        (np.full(40, 0.6 - 0.5j), many),                   # one beta1, many beta2
        (many, np.full(40, -1.1j)),
    ]


@pytest.mark.parametrize("density", [
    lambda rng: _random_density(rng, (8, 11)),
    lambda rng: _lossy_oracle_density("on-off"),
    lambda rng: _single_shift_pair_density(rng, (9, 7), -1, 2),
], ids=["dense", "onoff-lossy", "shift-pair"])
def test_char_function_batch_on_repeated_moduli_matches_dense(density):
    rng = np.random.default_rng(5)
    rho = density(rng)
    for b1, b2 in _repeated_moduli_batches(rng):
        moduli = np.concatenate([np.abs(b1) ** 2, np.abs(b2) ** 2])
        assert len(np.unique(moduli)) < len(b1)
        got = fs.char_function_batch(rho, b1, b2)
        ref = fock_dense.char_function_batch(rho, b1, b2)
        assert np.max(np.abs(ref)) > 1e-3
        assert np.max(np.abs(got - ref)) < 1e-13


def test_char_function_batch_matches_char_function_per_point():
    # a 24 x 24 Gauss-Hermite batch shares 78 values of |lambda|^2 over its
    # 576 points; each point's chi is the one a batch of one gives
    rho = _lossy_oracle_density("on-off")
    nodes = np.polynomial.hermite.hermgauss(24)[0]
    lam = (nodes[:, None] + 1j * nodes[None, :]).ravel()
    batch = fs.char_function_batch(rho, -np.conj(lam), -lam)
    for k, point in enumerate(lam):
        assert abs(batch[k] - fs.char_function(rho, -np.conj(point), -point)) < 1e-15


def test_char_function_batch_sizes():
    rho = _random_density(np.random.default_rng(2), (3, 4))
    with pytest.raises(ValueError, match="3 amplitudes.* 2"):
        fs.char_function_batch(rho, [0.1, 0.2j, -0.3], [0.4, 0.5])
    assert fs.char_function_batch(rho, [], []).shape == (0,)
    assert fs.char_function_batch(rho, np.zeros(0), np.zeros(0)).shape == (0,)


@pytest.mark.parametrize("size", [fs._CHI_CHUNK - 1, fs._CHI_CHUNK + 1, 2 * fs._CHI_CHUNK + 3])
@pytest.mark.parametrize("density", [
    lambda rng: _random_density(rng, (8, 11)),
    lambda rng: _lossy_oracle_density("on-off"),
], ids=["dense", "onoff-lossy"])
def test_char_function_batch_across_chunk_boundaries(density, size):
    # points of the fidelity's grid, whose distinct pairs recur in every
    # chunk of the phase contraction, and a last chunk of 1, 255 or 3
    rng = np.random.default_rng(size)
    rho = density(rng)
    nodes = np.polynomial.hermite.hermgauss(48)[0]
    lam = rng.permutation((nodes[:, None] + 1j * nodes[None, :]).ravel())[:size]
    got = fs.char_function_batch(rho, -np.conj(lam), -lam)
    ref = fock_dense.char_function_batch(rho, -np.conj(lam), -lam)
    assert np.max(np.abs(ref)) > 1e-3
    assert np.max(np.abs(got - ref)) < 1e-13


@pytest.mark.parametrize("cutoffs", [(0, 0), (0, 2), (1, 0)])
def test_char_function_at_dimension_one_matches_dense(cutoffs):
    # a mode of one level has the phases of shift 0 only
    rng = np.random.default_rng(sum(cutoffs))
    rho = _random_density(rng, cutoffs)
    b1 = 0.8 * (rng.normal(size=7) + 1j * rng.normal(size=7))
    b2 = 0.8 * (rng.normal(size=7) + 1j * rng.normal(size=7))
    got = fs.char_function_batch(rho, b1, b2)
    ref = fock_dense.char_function_batch(rho, b1, b2)
    assert np.max(np.abs(got - ref)) < 1e-14
    for beta, cutoff in ((b1[0], cutoffs[0]), (b2[0], cutoffs[1])):
        assert np.max(np.abs(_displacement(beta, cutoff)
                             - expm_displacement(beta, cutoff))) < 1e-12


def test_char_function_batch_builds_no_displacement_array():
    # one (2d - 1, batch) complex array of phases for the 48 x 48
    # Gauss-Hermite grid at cutoff 25 holds 51 x 2304 elements, 1.9 MB (a
    # (d^2, batch) displacement array 676 x 2304, 24.9 MB); the phases are
    # taken in chunks of points, and R and S per distinct |beta|^2 and pair
    rho, _ = fs.scheme_oracle(SchemeConfig(r=0.6, s=0.01), "on-off", cutoff=25)
    nodes = np.polynomial.hermite.hermgauss(48)[0]
    lam = (nodes[:, None] + 1j * nodes[None, :]).ravel()
    b1, b2 = -np.conj(lam), -lam
    array_bytes = (2 * 26 - 1) * lam.size * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        chi = fs.char_function_batch(rho, b1, b2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chi.shape == lam.shape
    assert peak < array_bytes


def test_cutoff_convergence_of_oracle_numbers():
    cfg = SchemeConfig(r=0.5, s=0.02)
    rho_a, succ_a = fs.scheme_oracle(cfg, "on-off", cutoff=14)
    rho_b, succ_b = fs.scheme_oracle(cfg, "on-off", cutoff=28)
    assert succ_a == pytest.approx(succ_b, rel=1e-8)
    pts = [(0.3 + 0.2j, -0.1 + 0.4j), (0.5, 0.5j)]
    for b1, b2 in pts:
        assert fs.char_function(rho_a, b1, b2) == pytest.approx(
            fs.char_function(rho_b, b1, b2), abs=1e-8)


@pytest.mark.parametrize("cutoff", [8, 48])
def test_photon_subtraction_refused_below_its_bound(cutoff):
    # a1 a2 S(r)|0,0> / (sinh r sqrt(cosh 2r)) has the amplitude
    # 1 / (cosh^2 r sqrt(cosh 2r)) on |0, 0> at every r with sinh r > 0,
    # down to the smallest subnormal; only r = 0 annihilates the vacuum
    b1, b2 = np.array(list(itertools.product(BETA_GRID_1, BETA_GRID_2))).T
    for r in (1e-7, 1e-13, 1e-300, 5e-324):
        st = fs.theoretical_oracle("photon-subtracted", r, cutoff=cutoff)
        exact = 1.0 / (np.cosh(r) ** 2 * np.sqrt(np.cosh(2 * r)))
        assert abs(abs(st.amps[0, 0]) - exact) < 1e-15
        chi = rs.theoretical_state("photon-subtracted", r).chi(b1, b2)
        assert np.max(np.abs([fs.char_function_state(st, x, y) for x, y in zip(b1, b2)]
                             - chi)) < 1e-12
    for r in (0.0, -0.0):
        with pytest.raises(ZeroNormStateError, match="photon subtraction"):
            fs.theoretical_oracle("photon-subtracted", r, cutoff=cutoff)


@pytest.mark.parametrize("cutoff", [0, -1])
@pytest.mark.parametrize("family", ["twin-beam", "squeezed-number", "squeezed-bell",
                                    "photon-subtracted", "photon-added"])
def test_theoretical_oracle_refuses_cutoff_below_one(family, cutoff):
    delta = 0.6 if family == "squeezed-bell" else None
    with pytest.raises(ValueError, match="below 1"):
        fs.theoretical_oracle(family, 0.5, delta, cutoff=cutoff)


@pytest.mark.parametrize("r", [np.nan, np.inf])
@pytest.mark.parametrize("family", ["twin-beam", "squeezed-bell", "photon-added"])
def test_theoretical_oracle_refuses_non_finite_squeezing(family, r):
    delta = 0.6 if family == "squeezed-bell" else None
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic on r
        with pytest.raises(ValueError, match="finite and nonnegative"):
            fs.theoretical_oracle(family, r, delta, cutoff=20)


@pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf])
def test_theoretical_oracle_refuses_non_finite_delta(delta):
    with pytest.raises(ValueError, match="finite mixing angle"):
        fs.theoretical_oracle("squeezed-bell", 0.5, delta, cutoff=20)


def test_theoretical_oracle_refuses_a_nan_leak_tolerance():
    # the 0.42 of the norm above cutoff 5 is no pass under a NaN tolerance
    with pytest.raises(ValueError, match="NaN leak tolerance"):
        fs.theoretical_oracle("twin-beam", 2.5, cutoff=5, leak_tol=np.nan)
    with pytest.raises(CutoffTooSmallError):
        fs.theoretical_oracle("twin-beam", 2.5, cutoff=5)


@pytest.mark.parametrize("family, r, cutoff", [
    ("photon-subtracted", 0.7, 20),
    ("photon-added", 0.75, 20),
    ("photon-added", 0.8, 30),
])
def test_ladder_leak_is_the_norm_outside_the_box(family, r, cutoff):
    # the cutoff-60 state holds the norm that a cutoff-c one drops
    st = fs.theoretical_oracle(family, r, cutoff=cutoff, leak_tol=1e-4)
    big = fs.theoretical_oracle(family, r, cutoff=60).amps
    box = big[:cutoff + 1, :cutoff + 1]
    outside = 1.0 - np.vdot(box, box).real
    assert outside > 1e-9
    assert st.leak == pytest.approx(outside, rel=1e-3)
    assert np.vdot(st.amps, st.amps).real + st.leak == pytest.approx(1.0, abs=1e-14)
    # every amplitude of the box is kept: squeezing only up to the cutoff
    # misses photon subtraction's (20, 20) one, 3.8e-4 at r = 0.7
    assert np.max(np.abs(st.amps - box)) < 1e-14


def test_ladder_leak_above_tolerance_is_raised():
    # 9.8e-8 of photon subtraction's norm at r = 0.7 lies above cutoff 20
    with pytest.raises(CutoffTooSmallError) as err:
        fs.theoretical_oracle("photon-subtracted", 0.7, cutoff=20)
    assert err.value.deficit == pytest.approx(9.8e-8, rel=0.05)


def test_oracle_refuses_thermal_noise():
    cfg = SchemeConfig(r=0.5, s=0.05, T_loss=0.85, n_thermal=0.3)
    with pytest.raises(ValueError, match="pure loss"):
        fs.scheme_oracle(cfg, "ideal", cutoff=12)


@pytest.mark.parametrize("detector", ["ideal", "on-off"])
def test_oracle_refuses_signal_only_loss(detector):
    # signal-only loss is proved against the kernel by the covariance
    # reference (tests/test_covariance.py)
    cfg = SchemeConfig(r=0.5, s=0.05, T_loss=0.85, loss_on_detector_modes=False)
    with pytest.raises(ValueError, match="loss on every mode"):
        fs.scheme_oracle(cfg, detector, cutoff=12)


def test_leak_at_the_requested_cutoff_is_raised():
    # the signal twin beam at r = 2 alone leaves tanh(2)^26 = 0.3857 of its
    # norm above cutoff 12, and the mixed four-mode state 0.3851 outside the
    # box; the oracle answers at the cutoff it is given, so that leak is raised
    with pytest.raises(CutoffTooSmallError, match=r"cutoffs \(12, 12, 12, 12\)") as err:
        fs.scheme_oracle(SchemeConfig(r=2.0, s=0.05, T_loss=0.85), "on-off", cutoff=12)
    assert err.value.deficit == pytest.approx(0.3851, rel=1e-3)


def test_leak_without_mixing_is_the_twin_beams_tails():
    # at T1 = T2 = 1 the box holds the first c + 1 terms of each twin beam,
    # whose norms are 1 - tanh^(2(c + 1)) of their squeezing
    r, s, cutoff = 2.0, 0.5, 12
    with pytest.raises(CutoffTooSmallError) as err:
        fs.scheme_oracle(SchemeConfig(r=r, s=s, T1=1.0, T2=1.0), "on-off", cutoff=cutoff)
    kept = (1.0 - np.tanh(r) ** (2 * cutoff + 2)) * (1.0 - np.tanh(s) ** (2 * cutoff + 2))
    assert abs(err.value.deficit - (1.0 - kept)) < 1e-14


@pytest.mark.parametrize("cfg, cutoff", [
    (SchemeConfig(r=0.6, s=0.01, T_loss=0.85), 49),
], ids=["all-mode-loss"])
def test_cutoff_above_the_cap_is_refused(cfg, cutoff):
    with pytest.raises(ValueError, match="exceeds"):
        fs.scheme_oracle(cfg, "ideal", cutoff=cutoff)


@pytest.mark.parametrize("cutoff", [0, -3])
def test_cutoff_below_one_is_refused(cutoff):
    # heralding needs the n = 1 outcome
    with pytest.raises(ValueError, match="below 1"):
        fs.scheme_oracle(SchemeConfig(r=0.5, s=0.05), "ideal", cutoff=cutoff)


@pytest.mark.parametrize("detector", ["ideal", "on-off"])
@pytest.mark.parametrize("T_loss", [1.0, 0.85], ids=["lossless", "all-mode-loss"])
def test_scheme_oracle_degenerate_heralding(detector, T_loss):
    # with no ancilla squeezing and unit mixing transmissivities the
    # detector modes stay in vacuum, so P = 0 exactly, before the signal-mode
    # loss and after it; the signal twin beam at r = 0.5 fits in cutoff 12
    cfg = SchemeConfig(r=0.5, s=0.0, T1=1.0, T2=1.0, T_loss=T_loss)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LossyProjectorWarning)
        with pytest.raises(DegeneratePostselectionError):
            fs.scheme_oracle(cfg, detector, cutoff=12)
        # the heralded density has no nonzero entry, which the loss takes
        flat, values = fs._herald(fs._scheme_amplitudes(cfg, 12),
                                  *fs._detector_weights(cfg, detector, 13))
    assert flat.size == values.size == 0


def test_density_validate():
    cfg = SchemeConfig(r=0.5, s=0.05, T_loss=0.85)
    rho, _ = fs.scheme_oracle(cfg, "on-off", cutoff=12)
    fock_dense.validate(rho)
    assert rho.trace() == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# skipped zeros: conditioning
# ---------------------------------------------------------------------------


_CONDITIONING_CFG = SchemeConfig(r=0.5, s=0.05, T1=0.9, T2=0.9)


def _conditioning_state():
    return _boxed_scheme_state(_CONDITIONING_CFG, 10)


def _heralded_matrix(psi, w3, w4):
    """The entries `fs._herald` returns, each a distinct nonzero one,
    scattered into the dense heralded matrix."""
    flat, values = fs._herald(psi, w3, w4)
    assert len(np.unique(flat)) == len(flat) and np.all(values != 0)
    d = psi.shape[1] ** 2
    rho = np.zeros(d * d, dtype=complex)
    rho[flat] = values
    return rho.reshape(d, d)


@pytest.mark.parametrize("weights", [
    lambda dim: ((np.arange(dim) == 1).astype(float),) * 2,
    lambda dim: (fs.on_off_weights(0.3, dim), fs.on_off_weights(0.7, dim)),
    lambda dim: (fs.lossy_projector_weights(0.8, dim),) * 2,
], ids=["ideal", "on-off", "lossy-projector"])
def test_conditioning_matches_full_einsum(weights):
    # the oracle's heralding of its own amplitudes, normalized, against the
    # einsum conditioning of the dense reference state
    w3, w4 = weights(11)
    rho = _heralded_matrix(fs._scheme_amplitudes(_CONDITIONING_CFG, 10), w3, w4)
    success = float(np.trace(rho).real)
    ref_rho, ref_success = fock_dense.condition_with_diagonal_weights(
        _conditioning_state(), w3, w4)
    assert success == pytest.approx(ref_success, rel=1e-14)
    assert np.max(np.abs(rho / success - ref_rho)) < 1e-14


def test_conditioning_on_zero_weights_is_degenerate():
    # the oracle's own raise is test_scheme_oracle_degenerate_heralding's
    zero = np.zeros(11)
    with pytest.raises(DegeneratePostselectionError):
        fock_dense.condition_with_diagonal_weights(_conditioning_state(), zero, zero)


# ---------------------------------------------------------------------------
# sparse contractions against the dense references
# ---------------------------------------------------------------------------


_PROTO_CONFIGS = {
    "default-phases": SchemeConfig(r=0.5, s=0.05, T1=0.9, T2=0.8),
    "other-phases": SchemeConfig(r=0.6, s=0.3, T1=0.7, T2=0.95, phi_zeta=np.pi, phi_xi=0.4),
}


@pytest.mark.parametrize("cfg", list(_PROTO_CONFIGS.values()), ids=list(_PROTO_CONFIGS))
def test_scheme_proto_state_matches_dense_reference(cfg):
    # the oracle's four-mode state from the Gaussian recurrence against
    # squeezers padded on the dense four-mode tensor and beam splitters as
    # full products on one pair of modes each, built 12 levels above the box
    # and cut to it; built at the box's own cutoff, the reference's
    # truncated beam splitters are off by more than 1e-5 at its edge
    cutoff = 10
    psi = fs._scheme_amplitudes(cfg, cutoff)
    ref = _boxed_scheme_state(cfg, cutoff).amps
    assert np.max(np.abs(_four_mode(psi) - ref)) < 1e-14
    assert np.max(np.abs(fock_dense.scheme_state(cfg, cutoff) - ref)) > 1e-5
    # no amplitude outside the box, nor off n1 + n3 = n2 + n4
    M, n1, n2 = np.indices(psi.shape)
    outside = (n1 > M) | (n2 > M) | (M - n1 > cutoff) | (M - n2 > cutoff)
    assert not np.any(psi[outside])


@pytest.mark.parametrize("cfg", [
    SchemeConfig(r=0.6, s=0.01),
    SchemeConfig(r=0.6, s=0.01, T_loss=0.85),
], ids=["lossless", "all-mode-loss"])
def test_scheme_oracle_peak_memory(cfg):
    # a dense four-mode tensor at cutoff 25, or the heralded density as a
    # dense matrix, holds 26^4 entries, 7.0 MiB; the oracle builds neither,
    # and no density of its loss step either, only their nonzero entries
    # (11.7k of the 457k)
    cutoff = 25
    tensor_bytes = (cutoff + 1) ** 4 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        fs.scheme_oracle(cfg, "ideal", cutoff=cutoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * tensor_bytes


def _two_mode_densities():
    """An oracle-structured heralded density and a dense random one."""
    cfg = SchemeConfig(r=0.5, s=0.05, T1=0.9, T2=0.9, eta3=0.4, eta4=0.3)
    heralded, _ = fs.scheme_oracle(cfg, "on-off", cutoff=15)
    return [heralded, _random_density(np.random.default_rng(13), (6, 8))]


@pytest.mark.parametrize("rho", [
    lambda: _lossy_oracle_density("ideal"),
    lambda: _lossy_oracle_density("on-off"),
    lambda: _two_mode_densities()[0],
    lambda: _two_mode_densities()[1],
], ids=["ideal-lossy", "onoff-lossy", "heralded", "dense"])
def test_density_from_its_matrix_is_bit_for_bit(rho):
    # a density built from entries, in the order its step made them, and
    # the same density scanned from its dense matrix give the same bytes
    rho = rho()
    scanned = fs.FockDensity(rho.cutoffs, fock_dense.dense(rho))
    assert np.array_equal(np.sort(rho.flat), scanned.flat)
    nodes = np.polynomial.hermite.hermgauss(24)[0]
    lam = (nodes[:, None] + 1j * nodes[None, :]).ravel()
    rng = np.random.default_rng(23)
    b1 = np.concatenate([-np.conj(lam), rng.normal(size=25) + 1j * rng.normal(size=25)])
    b2 = np.concatenate([-lam, rng.normal(size=25) + 1j * rng.normal(size=25)])
    assert (fs.char_function_batch(rho, b1, b2).tobytes()
            == fs.char_function_batch(scanned, b1, b2).tobytes())
    for mode in (0, 1):
        assert (fock_dense.dense(fs.loss_kraus(rho, mode, 0.7)).tobytes()
                == fock_dense.dense(fs.loss_kraus(scanned, mode, 0.7)).tobytes())
    # the trace sums the diagonal as np.trace does
    trace = float(np.trace(fock_dense.dense(rho)).real)
    assert np.float64(rho.trace()).tobytes() == np.float64(trace).tobytes()
    assert np.float64(scanned.trace()).tobytes() == np.float64(trace).tobytes()


@pytest.mark.parametrize("T", [0.85, 0.3, 1.0])
def test_loss_kraus_matches_band_loop(T):
    rng = np.random.default_rng(17)
    amps = rng.normal(size=(7, 9)) + 1j * rng.normal(size=(7, 9))
    pure = _pure_density(fs.FockTensor((6, 8), amps / np.linalg.norm(amps)))
    for mode in (0, 1):
        for rho in _two_mode_densities() + [pure]:
            ref = fock_dense.loss_kraus(rho, mode, T)
            lost = fs.loss_kraus(rho, mode, T)
            assert np.max(np.abs(fock_dense.dense(lost) - ref)) < 1e-14
            # the Kraus maps are trace-preserving on the truncated space
            assert lost.trace() == pytest.approx(rho.trace(), abs=1e-14)


@pytest.mark.parametrize("weights", [
    lambda dim: ((np.arange(dim) == 1).astype(float),) * 2,
    lambda dim: (fs.on_off_weights(0.3, dim), fs.on_off_weights(0.7, dim)),
    lambda dim: (fs.lossy_projector_weights(0.8, dim),) * 2,
    lambda dim: (np.arange(dim) % 2 * 0.5, np.linspace(0.0, 1.0, dim)),
], ids=["ideal", "on-off", "lossy-projector", "gapped"])
def test_heralded_matches_dense_gemm(weights):
    # the oracle's grouped heralding against one dense GEMM over every
    # detector outcome of the same amplitudes, scattered into a dense tensor
    w3, w4 = weights(11)
    for cfg in _PROTO_CONFIGS.values():
        psi = fs._scheme_amplitudes(cfg, 10)
        ref = fock_dense.heralded(_four_mode(psi), w3, w4)
        assert np.max(np.abs(ref)) > 1e-5
        assert np.max(np.abs(_heralded_matrix(psi, w3, w4) - ref)) < 1e-14


@pytest.mark.parametrize("detector, cfg", [
    ("ideal", SchemeConfig(r=0.5, s=0.02)),
    ("on-off", SchemeConfig(r=0.5, s=0.05, eta3=0.3, eta4=0.2, T_loss=0.85)),
], ids=["ideal-lossless", "onoff-all-mode-loss"])
def test_scheme_oracle_matches_dense_pipeline(detector, cfg):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LossyProjectorWarning)
        rho, success = fs.scheme_oracle(cfg, detector, cutoff=12)
    assert rho.cutoffs == (12, 12)
    ref_rho, ref_success = fock_dense.scheme_oracle(cfg, detector, 12)
    assert success == pytest.approx(ref_success, rel=1e-14)
    assert np.max(np.abs(fock_dense.dense(rho) - ref_rho)) < 1e-14


@pytest.mark.parametrize("detector, cfg", [
    ("ideal", SchemeConfig(r=0.4, s=0.05, T_loss=0.85)),
    ("on-off", SchemeConfig(r=0.4, s=0.05, eta3=0.3, eta4=0.2, T_loss=0.85)),
], ids=["ideal-all-mode-loss", "onoff-all-mode-loss"])
def test_sparse_heralding_matches_dense_conditioning(detector, cfg):
    # the oracle heralds its amplitudes group by group of n3 - n4; one dense
    # GEMM over the reference state, then the oracle's own signal-mode loss,
    # gives the same density and probability
    cutoff = 10
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LossyProjectorWarning)
        rho, success = fs.scheme_oracle(cfg, detector, cutoff=cutoff)
    assert rho.cutoffs == (cutoff, cutoff)
    w3, w4 = fs._detector_weights(cfg, detector, cutoff + 1)
    ref = fs.FockDensity(rho.cutoffs, fock_dense.heralded(
        _boxed_scheme_state(cfg, cutoff).amps, w3, w4))
    assert success == pytest.approx(ref.trace(), rel=1e-14)
    for mode in (0, 1):
        ref = fs.loss_kraus(ref, mode, cfg.T_loss)
    ref_rho = fock_dense.dense(ref) / ref.trace()
    assert np.max(np.abs(fock_dense.dense(rho) - ref_rho)) < 1e-14


def _asymmetric_density():
    rho = fs.FockDensity((1, 0), np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))
    fock_dense.validate(rho)


def _negative_density():
    rho = fs.FockDensity((1, 0), np.diag([1.5, -0.5]).astype(complex))
    fock_dense.validate(rho)


@pytest.mark.parametrize("call, match", [
    (lambda: fs.FockTensor((2, 2), np.zeros((3, 4), dtype=complex)), "amplitude shape"),
    (lambda: fs.FockDensity((1, 1), np.zeros((3, 3), dtype=complex)), "shape mismatch"),
    (_asymmetric_density, "not Hermitian"),
    (_negative_density, "negative eigenvalue"),
    (lambda: fs.beam_splitter_operator(1.5, (3, 3)), r"\[0, 1\]"),
    (lambda: fs.beam_splitter_operator(-0.1, (3, 3)), r"\[0, 1\]"),
    (lambda: fs.loss_kraus(_random_density(np.random.default_rng(3), (2, 2)), 0, 0.0),
     r"\(0, 1\]"),
    (lambda: fs.loss_kraus(_random_density(np.random.default_rng(3), (2, 2)), 1, 1.5),
     r"\(0, 1\]"),
    (lambda: fs.on_off_weights(0.0, 4), r"\(0, 1\]"),
    (lambda: fs.on_off_weights(1.5, 4), r"\(0, 1\]"),
    (lambda: fs.theoretical_oracle("cat", 0.5, cutoff=5), "unknown family"),
], ids=["tensor-shape", "density-shape", "non-hermitian", "negative", "splitter-above",
        "splitter-below", "loss-zero", "loss-above", "efficiency-zero", "efficiency-above",
        "unknown-family"])
def test_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()
