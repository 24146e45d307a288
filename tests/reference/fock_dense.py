"""The Fock oracle's contractions as dense products over every entry.

`sqbell.fock_sim` contracts only over the nonzero entries of its states
and builds the scheme's state from the recurrence of its Gaussian
amplitudes; these are the same sums taken in full on dense tensors, one
GEMM, einsum or shifted-slice product each, for the tests to compare
against: the characteristic function, the conditioning, a pair operator
on any two modes of a state, the padded squeezer with its leak, the loss
channel (and loss by a beam splitter with a vacuum ancilla), the scheme's
four-mode state built from them, squeezing and mixing one pair of modes
at a time, and the scheme pipeline that heralds it, with loss on every
mode.  Here too are what only the tests read of a `FockDensity` and a
`FockTensor`: a density's dense matrix and (d0, d1, d0, d1) tensor, its
Hermiticity and positivity check, and the Fock basis states.
"""

import numpy as np

from sqbell import fock_sim as fs
from sqbell.errors import DegeneratePostselectionError
from sqbell.symplectic import SqueezeParam


def dense(rho: fs.FockDensity) -> np.ndarray:
    """The density's dense (d, d) matrix, scattered from its entries."""
    matrix = np.zeros(rho.dim ** 2, dtype=rho.values.dtype)
    matrix[rho.flat] = rho.values
    return matrix.reshape(rho.dim, rho.dim)


def as_tensor(rho: fs.FockDensity) -> np.ndarray:
    """The dense matrix as the tensor rho[m, n, k, l] of <m, n|rho|k, l>."""
    d0, d1 = rho.cutoffs[0] + 1, rho.cutoffs[1] + 1
    return dense(rho).reshape(d0, d1, d0, d1)


def validate(rho: fs.FockDensity) -> None:
    """Raise ValueError unless the density is Hermitian and positive
    semidefinite, each to a fixed tolerance."""
    matrix = dense(rho)
    if np.max(np.abs(matrix - matrix.conj().T)) > 1e-10:
        raise ValueError("density matrix is not Hermitian")
    if np.linalg.eigvalsh(matrix).min() < -1e-9:
        raise ValueError("density matrix has a negative eigenvalue")


def basis_state(cutoffs, occupations) -> fs.FockTensor:
    """The Fock basis state |occupations> in the box of `cutoffs`."""
    amps = np.zeros(tuple(c + 1 for c in cutoffs), dtype=complex)
    amps[tuple(occupations)] = 1.0
    return fs.FockTensor(tuple(cutoffs), amps)


def vacuum_state(cutoffs) -> fs.FockTensor:
    return basis_state(cutoffs, (0,) * len(cutoffs))


def char_function_batch(rho: fs.FockDensity, betas1, betas2) -> np.ndarray:
    """chi[b] = sum rho[m, n, k, l] D1[k, m, b] D2[l, n, b] as one
    (batch x d^2) (d^2 x d^2) GEMM."""
    D1 = fs._displacement_batch(betas1, rho.cutoffs[0])
    D2 = fs._displacement_batch(betas2, rho.cutoffs[1])
    d0, d1 = rho.cutoffs[0] + 1, rho.cutoffs[1] + 1
    # rho as a (k m, n l) matrix for rho[m, n, k, l]
    t = as_tensor(rho).transpose(2, 0, 1, 3).reshape(d0 * d0, d1 * d1)
    # A[b, (n, l)] = sum_{k,m} D1[k, m, b] rho[m, n, k, l]
    A = D1.reshape(d0 * d0, -1).T @ t
    # chi[b] = sum_{n,l} A[b, (n, l)] D2[l, n, b]
    return np.einsum("bi,ib->b", A, D2.transpose(1, 0, 2).reshape(d1 * d1, -1))


def condition_with_diagonal_weights(state: fs.FockTensor, w3, w4
                                    ) -> tuple[np.ndarray, float]:
    """Normalized reduced density matrix and success probability of a pure
    four-mode state conditioned on diagonal weights of modes 3 and 4."""
    amps = state.amps
    success = float(np.einsum("abkl,abkl,k,l->", amps, amps.conj(), w3, w4).real)
    if success <= 1e-300:
        raise DegeneratePostselectionError(
            f"conditioning probability {success:.3e} is degenerate")
    rho = np.einsum("abkl,cdkl,k,l->abcd", amps, amps.conj(), w3, w4,
                    optimize=True)
    d = (state.cutoffs[0] + 1) * (state.cutoffs[1] + 1)
    return rho.reshape(d, d) / success, success


# ---------------------------------------------------------------------------
# the scheme pipeline's steps on dense tensors
# ---------------------------------------------------------------------------


def apply_pair_operator(amps: np.ndarray, modes, op, out_dims) -> np.ndarray:
    """op on the named pair of modes as the full product `op @ x`, every
    column of the state included."""
    i, j = modes
    x = np.moveaxis(amps, (i, j), (0, 1))
    rest = x.shape[2:]
    y = op @ x.reshape(x.shape[0] * x.shape[1], -1)
    return np.moveaxis(y.reshape(*out_dims, *rest), (0, 1), (i, j))


def dense_two_mode_squeeze(state: fs.FockTensor, modes, p) -> tuple[np.ndarray, float]:
    """The squeezer on a dense state padded in both modes of the pair, and
    the squared norm that the padded result holds outside the requested
    cutoffs."""
    i, j = modes
    pad = max(8, max(state.cutoffs[i], state.cutoffs[j]) // 2)
    padded = list(state.cutoffs)
    padded[i] += pad
    padded[j] += pad
    big = np.zeros(tuple(c + 1 for c in padded), dtype=complex)
    inner = tuple(slice(0, c + 1) for c in state.cutoffs)
    big[inner] = state.amps
    dims = (padded[i] + 1, padded[j] + 1)
    big = apply_pair_operator(big, modes, fs.two_mode_squeeze_operator(p, dims), dims)
    small = big[inner].copy()
    big[inner] = 0.0
    return small, float(np.vdot(big, big).real)


def loss_kraus(rho: fs.FockDensity, mode: int, T: float) -> np.ndarray:
    """Loss on one mode of a two-mode density, one shifted-slice product of
    the whole d^4 tensor per Kraus order."""
    dim = rho.cutoffs[mode] + 1
    src = np.moveaxis(as_tensor(rho), (mode, mode + 2), (0, 1))
    out = np.zeros_like(src)
    for m, band in enumerate(fs._loss_kraus_bands(T, dim)):
        n = dim - m
        out[:n, :n] += np.outer(band, band)[:, :, None, None] * src[m:, m:]
    return np.moveaxis(out, (0, 1), (mode, mode + 2)).reshape(rho.dim, rho.dim)


def loss_via_ancilla(state: fs.FockTensor, mode: int, T: float) -> np.ndarray:
    """Loss on one mode of a two-mode pure state by a beam splitter with a
    vacuum ancilla, the ancilla traced out.  The vacuum ancilla selects the
    splitter's columns (n, 0): V[k, j, n] maps n photons in the mode to k
    in the mode and j in the ancilla."""
    d = state.cutoffs[mode] + 1
    V = fs.beam_splitter_operator(T, (d, d)).toarray()[:, ::d].reshape(d, d, d)
    mixed = np.tensordot(V, np.moveaxis(state.amps, mode, 0), axes=(2, 0))
    # rho[k, o, l, p] with o, p the other mode, then back in mode order
    rho = np.einsum("kjo,ljp->kolp", mixed, mixed.conj())
    if mode == 1:
        rho = rho.transpose(1, 0, 3, 2)
    return rho.reshape(state.amps.size, state.amps.size)


def heralded(amps: np.ndarray, w3, w4) -> np.ndarray:
    """Unnormalized heralded density Psi W Psi^dag as one dense GEMM over
    every detector outcome."""
    psi = amps.reshape(amps.shape[0] * amps.shape[1], -1)
    return (psi * np.outer(w3, w4).reshape(-1)) @ psi.conj().T


def scheme_state(cfg, cutoff: int, pad: int = 0) -> np.ndarray:
    """The scheme's four-mode state in the box of `cutoff` from the dense
    steps above: both squeezers padded on the whole tensor, then both beam
    splitters as full products on one pair of modes each, all built `pad`
    levels above the cutoff and cut to the box.  The beam splitters,
    truncated where they are built, mix the amplitudes near that edge
    wrongly: by up to 3e-4 at cutoff 10 with no pad, and by rounding only
    12 levels above it."""
    state = vacuum_state((cutoff + pad,) * 4)
    for modes, p in (((0, 1), SqueezeParam(cfg.r, cfg.phi_zeta)),
                     ((2, 3), SqueezeParam(cfg.s, cfg.phi_xi))):
        amps, _ = dense_two_mode_squeeze(state, modes, p)
        state = fs.FockTensor(state.cutoffs, amps)
    dim = cutoff + pad + 1
    amps = state.amps
    for modes, T in (((0, 2), cfg.T1), ((1, 3), cfg.T2)):
        amps = apply_pair_operator(
            amps, modes, fs.beam_splitter_operator(T, (dim, dim)), (dim, dim))
    return amps[(slice(cutoff + 1),) * 4]


def scheme_oracle(cfg, detector: str, cutoff: int) -> tuple[np.ndarray, float]:
    """Normalized density matrix and success probability of the scheme at a
    fixed cutoff: the state of `scheme_state`, built 12 levels above the
    cutoff, heralded, then the signal-mode part of the loss on every mode
    (its detector part folded into the weights)."""
    dim = cutoff + 1
    if detector == "ideal":
        w3 = w4 = fs.lossy_projector_weights(cfg.T_loss, dim)
    else:
        w3 = fs.on_off_weights(cfg.eta3 * cfg.T_loss, dim)
        w4 = fs.on_off_weights(cfg.eta4 * cfg.T_loss, dim)
    rho = heralded(scheme_state(cfg, cutoff, pad=12), w3, w4)
    success = float(np.trace(rho).real)
    rho = fs.FockDensity((cutoff, cutoff), rho / success)
    if cfg.T_loss < 1.0:
        for mode in (0, 1):
            rho = fs.FockDensity(rho.cutoffs, loss_kraus(rho, mode, cfg.T_loss))
        rho = fs.FockDensity(rho.cutoffs, dense(rho) / rho.trace())
    return dense(rho), success
