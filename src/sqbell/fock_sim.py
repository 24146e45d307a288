"""Brute-force oracle in truncated Fock space.

Everything the closed-form pipeline computes is re-derived here by array
code on photon-number tensors, with one path per operation:

- the theoretical families: `theoretical_oracle`, each state
  sum_n c_n |n, n> from the closed form of its Fock amplitudes, exactly
  normalized, so the norm outside the box is its leak;
- the scheme's four-mode state: `_scheme_amplitudes`, from the exact
  recurrence of its Gaussian amplitudes, no operator built;
- loss: `loss_kraus` on two-mode densities, entries in and entries out:
  one shifted, weighted indexed add per Kraus order of a suffix of the
  nonzero entries, sorted once by min(p, q), into compact slots, one per
  point of each ray the entries move along;
- heralding: `_herald` of the scheme's amplitudes on diagonal POVM weights
  (`lossy_projector_weights`, `on_off_weights`), one batched GEMM over the
  groups of n3 - n4, whose block entries are the density's, and the
  oracle's own density's values divided in place by its trace, its one
  normalization, which raises on a zero heralding probability;
- characteristic functions: `char_function_batch` (`char_function` and
  `char_function_state` at one point), Tr[rho D1 D2] with every displacement
  element a complex phase per amplitude times a real Laguerre factor per
  distinct |beta|^2 (`_phases`, `_laguerre_factors`); the sums of every shift
  block are gathered first, from the density's entries, and contracted with
  the phases over the points in fixed chunks of a few hundred;
  `char_function_state` takes two-mode states only and builds both
  displacement matrices in one `_displacement_batch`;
- `scheme_oracle`, built from the steps above.

The pair unitaries are test instruments, which neither oracle calls:
`two_mode_squeeze_operator` and `beam_splitter_operator` build each block
of their conserved quantity as the exact exponential of the truncated
generator's block (`_block_unitary`, from numpy's `eigh`) and assemble
every block into a new scipy csr_matrix on every call; they are the only
code that loads scipy.  What only the tests read, a density's dense
matrix, its Hermiticity and positivity check and the Fock basis states,
is kept with the tests' dense reference, not here.

The scheme is the paper's: linear optics and photon detection on a pair of
uncorrelated two-mode squeezed states.  Its four-mode state
B1 B2 S(r) S(s)|0>, with B1, B2 the mixing beam splitters of modes (1, 3)
and (2, 4), is a pure Gaussian state, so its amplitudes in the box follow
exactly from a two-term recurrence (`_scheme_amplitudes`).  They are
heralded group by group of n3 - n4 (`_herald`): the oracle never holds a
dense four-mode tensor.

The states the oracle builds are mostly exact zeros: squeezers conserve
n_i - n_j, beam splitters n_k + n_l, and the loss Kraus maps and diagonal
POVMs shift ket and bra together, so the scheme's four-mode state is
nonzero only where n1 + n3 = n2 + n4, and its heralded density only where
n2 - n1 = n2' - n1' (11.7k of 457k entries at cutoff 25).  So a
`FockDensity` is held as its nonzero entries, and each step makes its
output's entries from its input's: no step scans or allocates a dense
d^2 x d^2 matrix, every costly contraction runs over the nonzero entries
only, and each skipped term is an exact zero.  The loss and
characteristic-function steps take any density; `_herald` relies on
n1 + n3 = n2 + n4, which its only input, `_scheme_amplitudes`, has by
construction.

The scheme oracle models pure loss of one transmissivity on every mode
only and has one pipeline: the recurrence's amplitudes, the heralded
density.  The loss commutes with the mixing, so its detector-mode part is
folded into the POVM weights and its signal-mode part applied to the
heralded density before its one normalization.

Both oracles answer at the cutoff they are given, which the caller names:
a norm outside its box beyond the tolerance raises CutoffTooSmallError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CutoffTooSmallError, DegeneratePostselectionError, ZeroNormStateError
from .resources import SchemeConfig
from .symplectic import SqueezeParam

DEFAULT_LEAK_TOL = 1e-8
# largest scheme-oracle cutoff
MAX_CUTOFF = 48
# points per pass of char_function_batch's phase contraction, so that its
# (blocks, points) products stay in cache
_CHI_CHUNK = 256


@dataclass
class FockTensor:
    """Pure-state amplitude tensor indexed by photon numbers, one axis per mode.

    `leak` is the squared norm of the state outside the box of its cutoffs
    (0 for a basis state); it is diagnostic and never renormalized away.
    """

    cutoffs: tuple[int, ...]
    amps: np.ndarray
    leak: float = 0.0

    def __post_init__(self):
        expected = tuple(c + 1 for c in self.cutoffs)
        if self.amps.shape != expected:
            raise ValueError(f"amplitude shape {self.amps.shape} != {expected}")


class FockDensity:
    """Two-mode density operator in the product Fock basis, held as its
    nonzero entries: `flat`, each entry's index into the flattened (d, d)
    matrix, d = (cutoffs[0] + 1)(cutoffs[1] + 1), once each and in any
    order, and `values`, the entries.

    `FockDensity(cutoffs, matrix)` takes the entries of a dense matrix with
    one scan and keeps no reference to it; the oracle's own steps build
    their densities from entries they already know (`from_entries`), so
    none scans or allocates a d^2-element array.
    """

    def __init__(self, cutoffs: tuple[int, int], matrix: np.ndarray):
        self.cutoffs = tuple(cutoffs)
        if matrix.shape != (self.dim, self.dim):
            raise ValueError("density matrix shape mismatch")
        self.flat = np.flatnonzero(matrix)
        self.values = matrix.reshape(-1)[self.flat]

    @classmethod
    def from_entries(cls, cutoffs: tuple[int, int], flat: np.ndarray,
                     values: np.ndarray) -> FockDensity:
        """The density whose nonzero entries are `values` at the distinct
        flat indices `flat`, both taken as they are, without a copy."""
        rho = cls.__new__(cls)
        rho.cutoffs, rho.flat, rho.values = tuple(cutoffs), flat, values
        return rho

    @property
    def dim(self) -> int:
        return (self.cutoffs[0] + 1) * (self.cutoffs[1] + 1)

    def trace(self) -> float:
        # the diagonal's entries, as the complex vector np.trace would sum,
        # so that the rounding is the same
        d = self.dim
        diagonal = self.flat % (d + 1) == 0
        vector = np.zeros(d, dtype=complex)
        vector[self.flat[diagonal] // (d + 1)] = self.values[diagonal]
        return float(vector.sum().real)


def annihilator(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


# ---------------------------------------------------------------------------
# pair unitaries, block-diagonalized by their conserved quantity
# ---------------------------------------------------------------------------


def two_mode_squeeze_operator(p: SqueezeParam, dims: tuple[int, int]):
    """exp(-z adag_i adag_j + conj(z) a_i a_j) on the truncated pair space,
    as a scipy csr_matrix.

    The generator conserves q = n_i - n_j, so the exponential is taken block
    by block; the result is exactly unitary on the truncated space.
    """
    d1, d2 = dims
    z = p.amplitude * np.exp(1j * p.phase)
    blocks = []
    for q in range(1 - d2, d1):
        n1s = np.arange(max(0, q), min(d1, d2 + q))
        n2s = n1s - q
        # raising both photon numbers by one within the block
        amps = -z * np.sqrt((n1s[:-1] + 1.0) * (n2s[:-1] + 1.0))
        blocks.append((n1s * d2 + n2s, amps))
    return _csr(_block_unitary(blocks), dims)


def beam_splitter_operator(T: float, dims: tuple[int, int]):
    """exp(kappa (adag_l a_k - a_l adag_k)) with tan(kappa) = sqrt((1-T)/T),
    as a scipy csr_matrix.

    Photon-number conserving, hence exactly unitary and leak-free on the
    truncated pair space: its blocks are those of N = n_k + n_l.
    """
    if not 0.0 <= T <= 1.0:
        raise ValueError("transmissivity must lie in [0, 1]")
    d1, d2 = dims
    kappa = np.arctan2(np.sqrt(1.0 - T), np.sqrt(T))
    blocks = []
    for N in range(d1 + d2 - 1):
        n1s = np.arange(max(0, N - d2 + 1), min(N, d1 - 1) + 1)
        n2s = N - n1s
        # raising n1 by one lowers n2 by one within the block
        amps = kappa * np.sqrt((n1s[:-1] + 1.0) * n2s[:-1])
        blocks.append((n1s * d2 + n2s, amps))
    return _csr(_block_unitary(blocks), dims)


def _block_unitary(blocks) -> list[tuple[np.ndarray, np.ndarray]]:
    """exp(G) of a generator that is block diagonal in the pair basis, as
    the list of (indices, U): each block's flat pair-basis indices and its
    dense exponential.

    Each block is given as (indices, lower): the indices and the subdiagonal
    of its generator, which is tridiagonal and anti-Hermitian (its
    superdiagonal is -conj(lower)).
    """
    out = []
    for idx, lower in blocks:
        size = len(idx)
        if size == 1:
            U = np.ones((1, 1), dtype=complex)
        else:
            # iG = D T D^* with T real symmetric tridiagonal (off-diagonal
            # |lower|) and D = diag(e^{i theta}), theta_k - theta_{k+1} the
            # phase of iG's superdiagonal -i conj(lower); so
            # exp(G) = D V e^{-i w} V^T D^* from the eigenpairs (w, V) of T
            theta = np.concatenate([[0.0], -np.cumsum(np.angle(-1j * np.conj(lower)))])
            off = np.diag(np.abs(lower), 1)
            w, V = np.linalg.eigh(off + off.T)
            DV = np.exp(1j * theta)[:, None] * V
            U = (DV * np.exp(-1j * w)) @ DV.conj().T
        out.append((idx, U))
    return out


def _csr(blocks, dims: tuple[int, int]):
    """The pair operator of `_block_unitary` blocks as a scipy csr_matrix of
    its nonzero entries; the oracle itself never builds one."""
    from scipy import sparse

    rows, cols, vals = [], [], []
    for idx, U in blocks:
        a, b = np.nonzero(U)
        rows.append(idx[a])
        cols.append(idx[b])
        vals.append(U[a, b])
    D = dims[0] * dims[1]
    return sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(D, D))


# ---------------------------------------------------------------------------
# loss channels
# ---------------------------------------------------------------------------


def _loss_kraus_bands(T: float, dim: int) -> list[np.ndarray]:
    """Nonzero band of each Kraus operator K_m, m = 0..dim-1 (m = 0 only at T = 1).

    K_m = sqrt((1-T)^m / m!) T^(n/2) a^m has the single band
    K_m[i, i + m] = sqrt((1-T)^m / m!) T^(i/2) sqrt((i + m)! / i!).
    """
    if not 0.0 < T <= 1.0:
        raise ValueError("loss transmissivity must lie in (0, 1]")
    if T == 1.0:
        return [np.ones(dim)]
    bands = [T ** (0.5 * np.arange(dim))]
    for m in range(1, dim):
        i = np.arange(dim - m)
        bands.append(bands[-1][:dim - m] * np.sqrt((1.0 - T) * (i + m) / m))
    return bands


def loss_kraus(rho: FockDensity, mode: int, T: float) -> FockDensity:
    """Loss channel on one mode of a two-mode density operator.

    Sum over m of K_m rho K_m^dag, from the density's entries to the
    output's, with no dense matrix.  K_m has the single band K_m[i, i + m],
    so order m moves every nonzero entry whose lossy-mode ket and bra photon
    numbers p and q are both at least m to (p - m, q - m), weighted by
    band[p - m] band[q - m]: it moves flat index f to f - m step.  So each
    entry lies on a ray that ends at f - min(p, q) step, and the entries on
    one ray share a compact run of slots, one per point from the ray's end
    to its highest entry, in which order m adds to slot - m: one indexed
    add per order, whose destinations are distinct, into an array as long
    as the rays, not d^4.  The entries are sorted once by min(p, q), so the
    entries of each order are a suffix of them, sliced, not masked.  The
    orders are added in rising m, as the order-by-order sum would, and the
    exact zeros of the sum are dropped.  A mode other than 0 or 1 raises
    ValueError.
    """
    if mode not in (0, 1):
        raise ValueError(f"mode {mode} is not 0 or 1")
    shape = (rho.cutoffs[0] + 1, rho.cutoffs[1] + 1) * 2
    idx = np.unravel_index(rho.flat, shape)
    lowest = np.minimum(idx[mode], idx[mode + 2])
    order = np.argsort(lowest)
    flat, lowest, values = rho.flat[order], lowest[order], rho.values[order]
    p, q = idx[mode][order], idx[mode + 2][order]
    # order m lowers the ket and bra photon numbers of the lossy mode by m
    shift = np.zeros(4, dtype=int)
    shift[[mode, mode + 2]] = 1
    step = np.ravel_multi_index(shift, shape)
    ends, ray = np.unique(flat - lowest * step, return_inverse=True)
    length = np.zeros(len(ends), dtype=int)
    np.maximum.at(length, ray, lowest + 1)
    start = np.cumsum(length) - length                    # each ray's first slot
    slot = start[ray] + lowest
    out = np.zeros(length.sum(), dtype=complex)
    bands = _loss_kraus_bands(T, rho.cutoffs[mode] + 1)
    for m, (band, first) in enumerate(zip(bands, np.searchsorted(lowest, range(len(bands))))):
        out[slot[first:] - m] += band[p[first:] - m] * band[q[first:] - m] * values[first:]
    # slot s of a ray starting at slot `start` is its end plus (s - start) steps
    out_flat = np.repeat(ends - start * step, length) + np.arange(len(out)) * step
    kept = out != 0
    return FockDensity.from_entries(rho.cutoffs, out_flat[kept], out[kept])


# ---------------------------------------------------------------------------
# conditioning
# ---------------------------------------------------------------------------


def on_off_weights(eta: float, dim: int) -> np.ndarray:
    """Diagonal weights of the on-POVM, 1 - (1 - eta)^n."""
    if not 0.0 < eta <= 1.0:
        raise ValueError("detector efficiency must lie in (0, 1]")
    return 1.0 - (1.0 - eta) ** np.arange(dim)


def lossy_projector_weights(T: float, dim: int) -> np.ndarray:
    """Diagonal weights of a single-photon projector preceded by loss T:
    the probability n T (1-T)^(n-1) that exactly one of n photons survives
    (with 0^0 = 1, the single-photon projector at T = 1).  A T outside
    [0, 1] raises ValueError."""
    if not 0.0 <= T <= 1.0:
        raise ValueError("transmissivity must lie in [0, 1]")
    n = np.arange(dim)
    return n * T * (1.0 - T) ** np.clip(n - 1, 0, None)


# ---------------------------------------------------------------------------
# characteristic functions
# ---------------------------------------------------------------------------


def _phases(alphas: np.ndarray, dim: int) -> np.ndarray:
    """The complex factor P_q of every displacement element of shift q = m - n,
    row q + dim - 1 for q = -(dim - 1) .. dim - 1, one column per amplitude:
    e^(-x/2) alpha^q / sqrt(q!) for q >= 0 and e^(-x/2) (-conj alpha)^|q| /
    sqrt(|q|!) below, with x = |alpha|^2.

    The rows q >= 0 are one cumulative product, down the rows, of e^(-x/2)
    and the factors alpha / sqrt(q), and the rows below are their conjugates
    with the sign of (-1)^|q|, all in one preallocated array."""
    out = np.empty((2 * dim - 1, len(alphas)), dtype=complex)
    lower = out[dim - 1:]                                  # q = 0 .. dim - 1
    lower[0] = np.exp(-0.5 * np.abs(alphas) ** 2)
    np.multiply(alphas, 1.0 / np.sqrt(np.arange(1, dim))[:, None], out=lower[1:])
    np.cumprod(lower, axis=0, out=lower)
    upper = out[:dim - 1][::-1]                            # q = -1 .. -(dim - 1)
    np.conjugate(lower[1:], out=upper)
    np.negative(upper[::2], out=upper[::2])
    return out


def _laguerre_row(k, n, dim: int):
    """The row of R_k(n) in the table of `_laguerre_factors`."""
    return n * dim - n * (n - 1) // 2 + k


def _laguerre_factors(x: np.ndarray, dim: int) -> np.ndarray:
    """The real factor R_k(n) = sqrt(k! n! / (n+k)!) L_n^(k)(x) of the
    displacement elements <n+k|D|n> and <n|D|n+k> for n + k < dim, one row
    per (k, n) (`_laguerre_row`: n by n, k in rising order within each)
    and one column per x = |alpha|^2.

    The normalized Laguerre recurrence in n,

        sqrt((n+1)(n+1+k)) R_k(n+1) = (2n+1+k-x) R_k(n) - sqrt(n(n+k)) R_k(n-1),

    runs for every order k and every x at once from R_k(0) = 1, its
    coefficients indexed [n, k, None]: each step is multiplied by the
    scale's reciprocal, with no division.
    """
    n, k = np.indices((dim, dim), dtype=float)[..., None]
    diagonal, back, inverse_scale = (
        2 * n + 1 + k, np.sqrt(n * (n + k)), 1.0 / np.sqrt((n + 1) * (n + 1 + k)))
    out = np.empty((dim * (dim + 1) // 2, len(x)))
    h_prev = np.zeros((dim, len(x)))
    h = np.ones((dim, len(x)))
    for step in range(dim):
        ks = dim - step                                    # orders with n + k <= cutoff
        first = _laguerre_row(0, step, dim)
        out[first:first + ks] = h
        kn = slice(ks - 1)                                 # orders still needed at n + 1
        h_next = (diagonal[step, kn] - x) * h[:-1]
        h_next -= back[step, kn] * h_prev[kn]
        h_next *= inverse_scale[step, kn]
        h_prev, h = h, h_next
    return out


def _displacement_batch(alphas: np.ndarray, cutoff: int) -> np.ndarray:
    """Displacement matrices <m|D(alpha)|n> = P_(m-n) R_|m-n|(min(m, n)),
    shape (dim, dim, batch); R is computed once per distinct |alpha|^2."""
    alphas = np.asarray(alphas, dtype=complex).reshape(-1)
    dim = cutoff + 1
    xs, point = np.unique(np.abs(alphas) ** 2, return_inverse=True)
    m, n = np.indices((dim, dim))
    P = _phases(alphas, dim)[m - n + dim - 1]
    R = _laguerre_factors(xs, dim)[_laguerre_row(np.abs(m - n), np.minimum(m, n), dim)]
    return P * R[..., point]


def char_function(rho: FockDensity, beta1: complex, beta2: complex) -> complex:
    """chi(b1, b2) = Tr[rho D1(b1) D2(b2)]."""
    return complex(char_function_batch(rho, [beta1], [beta2])[0])


def char_function_state(state: FockTensor, beta1: complex, beta2: complex) -> complex:
    """<psi| D1(b1) D2(b2) |psi> for a two-mode pure state; a state of any
    other mode count raises ValueError."""
    if state.amps.ndim != 2:
        raise ValueError("char_function_state expects a two-mode state")
    d0, d1 = state.amps.shape
    D = _displacement_batch(np.array([beta1, beta2]), max(state.cutoffs))
    D1 = np.ascontiguousarray(D[:d0, :d0, 0])
    D2 = np.ascontiguousarray(D[:d1, :d1, 1])
    return complex(np.vdot(state.amps, D1 @ state.amps @ D2.T))


def _distinct_pairs(b1: np.ndarray, b2: np.ndarray) -> tuple[np.ndarray, ...]:
    """The distinct |beta|^2 of both modes, the indices into them of each
    distinct pair (|b1|^2, |b2|^2), and the index of each point's pair."""
    xs, u = np.unique(np.abs(np.concatenate([b1, b2])) ** 2, return_inverse=True)
    pairs, pair = np.unique(u[:b1.size] * len(xs) + u[b1.size:], return_inverse=True)
    return (xs, *np.divmod(pairs, len(xs)), pair)


def _shift_columns(rho: FockDensity) -> tuple[np.ndarray, ...]:
    """The density's entries rho[m, n, k, l], read from `rho.flat` and
    `rho.values` with no scan of its matrix, as the table t[min(k, m),
    column], one column per (q1, q2, min(l, n)) with the shifts q1 = k - m
    and q2 = l - n, ordered by q1, then q2, then min(l, n); and per column
    its q1, q2, min(l, n) and the key of its (q1, q2) block."""
    d0, d1 = rho.cutoffs[0] + 1, rho.cutoffs[1] + 1
    m, n, k, l = np.unravel_index(rho.flat, (d0, d1, d0, d1))
    key = ((k - m + d0 - 1) * (2 * d1 - 1) + l - n + d1 - 1) * d1 + np.minimum(l, n)
    keys, col = np.unique(key, return_inverse=True)
    t = np.zeros((d0, len(keys)), dtype=complex)
    t[np.minimum(k, m), col] = rho.values
    block, j2 = np.divmod(keys, d1)
    q1, q2 = np.divmod(block, 2 * d1 - 1)
    return t, q1 - (d0 - 1), q2 - (d1 - 1), j2, block


def _block_sums(columns: tuple[np.ndarray, ...], xs: np.ndarray, p1: np.ndarray,
                p2: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S[block, pair] = sum R_|q1|(i, x1) R_|q2|(j, x2) t[i, column] over the
    columns of each (q1, q2) block of `_shift_columns`, at the pairs
    (x1, x2) = (xs[p1], xs[p2]) of distinct |beta|^2; and the q1 and q2 of
    each block.  The columns are grouped by q1: each group is one real GEMM
    of R_|q1| against its columns, for every pair at once, multiplied by
    R_|q2| per column and summed by block; a group holds one q1's columns
    only, which bounds the products a call holds at once.  The Laguerre
    table lives only here."""
    t, q1, q2, j2, block = columns
    d0 = t.shape[0]
    R = _laguerre_factors(xs, dim)
    rows1 = _laguerre_row(0, np.arange(d0), dim)          # R_|q1|(i): row i + |q1|
    rows2 = _laguerre_row(np.abs(q2), j2, dim)
    # column edges of the q1 groups, and of the (q1, q2) blocks in each
    groups = np.flatnonzero(np.diff(q1, prepend=d0, append=d0))
    blocks = np.flatnonzero(np.diff(block, prepend=-1))
    within = np.searchsorted(blocks, groups)
    S = np.empty((len(blocks), len(p1)), dtype=complex)
    for a, z, first, last in zip(groups[:-1], groups[1:], within[:-1], within[1:]):
        o = abs(q1[a])
        # real GEMM of R_|q1| on the interleaved real and imaginary parts of t
        A = (R[rows1[:d0 - o] + o][:, p1].T @ t[:d0 - o, a:z].view(float)).view(complex)
        r2 = R[rows2[a:z]][:, p2].T
        A.real *= r2
        A.imag *= r2
        S[first:last] = np.add.reduceat(A, blocks[first:last] - a, axis=1).T
        del A, r2                                  # freed before the next group's
    return S, q1[blocks], q2[blocks]


def char_function_batch(rho: FockDensity, betas1: np.ndarray,
                        betas2: np.ndarray) -> np.ndarray:
    """Vectorized chi over paired arrays of amplitudes.

    chi[b] = sum rho[m, n, k, l] D1[k, m, b] D2[l, n, b], with every
    displacement element <k|D(beta)|m> = P_q(beta) R_|q|(min(k, m), |beta|^2)
    for the shift q = k - m (`_phases`, `_laguerre_factors`).  So

        chi[b] = sum_(q1, q2) P1_q1[b] P2_q2[b] S[q1, q2, |b1|^2, |b2|^2],
        S = sum_(i, j) R1_|q1|(i) R2_|q2|(j) rho entries of shifts (q1, q2),

    and the real factors are needed only per distinct |beta|^2 (R) and per
    distinct (|beta1|^2, |beta2|^2) pair (S).  R is one recurrence over the
    distinct |beta|^2 of both modes, and S of every (q1, q2) block is
    gathered first (`_shift_columns`, `_block_sums`).  The phases are then
    contracted with S over the points in fixed chunks of a few hundred, so
    the (blocks, points) products of a pass stay cache-sized; the
    fidelity's 48 x 48 Gauss-Hermite grid has 2304 points but 300 distinct
    pairs.  No (d^2, batch), (blocks, batch) or (2d - 1, batch) array is
    built.  Only exact zeros are skipped and only exactly equal |beta|^2
    merged, so the result is the full contraction's for any density and
    any amplitudes.  Arrays of different sizes raise ValueError.
    """
    b1 = np.asarray(betas1, dtype=complex).reshape(-1)
    b2 = np.asarray(betas2, dtype=complex).reshape(-1)
    if b1.size != b2.size:
        raise ValueError(f"betas1 holds {b1.size} amplitudes and betas2 "
                         f"{b2.size}; chi pairs them one to one")
    d0, d1 = rho.cutoffs[0] + 1, rho.cutoffs[1] + 1
    xs, p1, p2, pair = _distinct_pairs(b1, b2)
    S, q1, q2 = _block_sums(_shift_columns(rho), xs, p1, p2, max(d0, d1))
    chi = np.empty(b1.size, dtype=complex)
    for c in range(0, b1.size, _CHI_CHUNK):
        points = slice(c, c + _CHI_CHUNK)
        terms = _phases(b2[points], d1)[q2 + d1 - 1]
        terms *= S[:, pair[points]]
        terms *= _phases(b1[points], d0)[q1 + d0 - 1]
        chi[points] = terms.sum(axis=0)
    return chi


# ---------------------------------------------------------------------------
# scheme oracle
# ---------------------------------------------------------------------------


def _scheme_amplitudes(cfg: SchemeConfig, cutoff: int) -> np.ndarray:
    """The scheme's four-mode state B1 B2 S(r) S(s)|0> in the box of
    `cutoff` photons per mode, as psi[M, n1, n2] = <n1, n2, M - n1, M - n2|psi>
    for M = 0 .. 2 cutoff.  The squeezers make photons in pairs of modes
    (1, 2) and (3, 4), and B1 mixes modes (1, 3) and B2 modes (2, 4), so
    n1 + n3 = n2 + n4 = M on every nonzero amplitude.

    S(r) S(s)|0> = exp(l_r a1^dag a2^dag + l_s a3^dag a4^dag)|0> / (cosh r cosh s)
    with l = -e^(i phase) tanh|z|, and the beam splitters map
    a_k^dag -> sqrt(T) a_k^dag - sqrt(1-T) a_l^dag and
    a_l^dag -> sqrt(1-T) a_k^dag + sqrt(T) a_l^dag, which turns the exponent
    into sum C_ij a_i^dag a_j^dag over (i, j) = (1, 2), (1, 4), (3, 2), (3, 4).
    Commuting a1 (a3 at n1 = 0) through the exponential gives the recurrence

        sqrt(n1) psi(n) = C12 sqrt(n2) psi(n - e1 - e2) + C14 sqrt(n4) psi(n - e1 - e4)

    (Miatto and Quesada, Quantum 4, 366 (2020)).  Each step lowers photon
    numbers only, so every amplitude in the box is exact up to rounding,
    and 1 - sum |psi|^2 is the norm outside it."""
    d = cutoff + 1
    l_r = -np.exp(1j * cfg.phi_zeta) * np.tanh(cfg.r)
    l_s = -np.exp(1j * cfg.phi_xi) * np.tanh(cfg.s)
    t1, q1, t2, q2 = np.sqrt([cfg.T1, 1.0 - cfg.T1, cfg.T2, 1.0 - cfg.T2])
    c12, c14 = l_r * t1 * t2 + l_s * q1 * q2, l_s * q1 * t2 - l_r * t1 * q2
    c32, c34 = l_s * t1 * q2 - l_r * q1 * t2, l_r * q1 * q2 + l_s * t1 * t2
    root = np.sqrt(np.arange(2 * d - 1))
    psi = np.zeros((2 * d - 1, d, d), dtype=complex)
    psi[0, 0, 0] = 1.0 / (np.cosh(cfg.r) * np.cosh(cfg.s))
    for M in range(1, 2 * d - 1):
        # sqrt(n2) psi[M - 1, :, n2 - 1] and sqrt(n4) psi[M - 1, :, n2], n4 = M - n2
        pair2 = np.zeros((d, d), dtype=complex)
        pair2[:, 1:] = psi[M - 1, :, :-1] * root[1:d]
        pair4 = psi[M - 1] * root[np.clip(M - np.arange(d), 0, None)]
        psi[M, 1:] = (c12 * pair2[:-1] + c14 * pair4[:-1]) / root[1:d, None]
        psi[M, 0] = (c32 * pair2[0] + c34 * pair4[0]) / root[M]
        # n3 = M - n1 and n4 = M - n2 above the cutoff lie outside the box
        outside = slice(max(0, M - cutoff))
        psi[M, outside] = psi[M, :, outside] = 0.0
    return psi


def _herald(psi: np.ndarray, w3: np.ndarray,
            w4: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized heralded density of modes 1 and 2, the sum over (n3, n4)
    of w3[n3] w4[n4] <n3, n4|psi><psi|n3, n4>, from the amplitudes
    psi[M, n1, n2] of `_scheme_amplitudes`, as its nonzero entries: their
    flat indices into the (d^2, d^2) matrix and their values.

    An outcome (n3, n4) heralds only the rows of its group
    g = n2 - n1 = n3 - n4, so the density is block diagonal in g: each block
    is A_g diag(w3[n3] w4[n3 - g]) A_g^dag with A_g[n1, n3] =
    psi[n1 + n3, n1, n1 + g], every block in one batched GEMM.  No two
    groups share a row, so the entries of the blocks' rows that lie in the
    box are the density's, each once; its exact zeros are dropped, and no
    (d^2, d^2) array is built."""
    d = psi.shape[1]
    g = np.arange(1 - d, d)[:, None, None]
    n1, n3 = np.ogrid[:d, :d]
    n2, n4 = n1 + g, (n3 - g)[:, 0]
    row = (0 <= n2) & (n2 < d)
    A = psi[n1 + n3, n1, np.where(row, n2, 0)] * row
    W = np.where((0 <= n4) & (n4 < d), w3 * w4[np.clip(n4, 0, d - 1)], 0.0)
    G = (A * W[:, None]) @ A.conj().transpose(0, 2, 1)
    pair = row & row.transpose(0, 2, 1)
    flat = n1 * d + n2
    values = G[pair]
    kept = values != 0
    return (flat * d * d + flat.transpose(0, 2, 1))[pair][kept], values[kept]


def _detector_weights(cfg: SchemeConfig, detector: str,
                      dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal POVM weights of modes 3 and 4, with the detector-mode loss
    folded in."""
    if detector == "ideal":
        w = lossy_projector_weights(cfg.T_loss, dim)
        return w, w
    return (on_off_weights(cfg.eta3 * cfg.T_loss, dim),
            on_off_weights(cfg.eta4 * cfg.T_loss, dim))


def scheme_oracle(cfg: SchemeConfig, detector: str = "ideal", *,
                  cutoff: int) -> tuple[FockDensity, float]:
    """Conditioned two-mode density operator of the scheme, built in Fock space,
    and its success probability.

    Pure loss on every mode only: `n_thermal > 0`, or loss on the signal
    modes alone, raises ValueError.  Loss of equal transmissivity on every
    mode commutes with the mixing beam splitters, so the detector-mode loss
    is folded into the diagonal POVM weights and the signal-mode loss is
    applied to the heralded density, which is normalized once, after it (a
    trace of 1e-300 or less raises DegeneratePostselectionError); the
    success probability is the heralded trace.  A cutoff above MAX_CUTOFF,
    or below 1 (heralding needs the n = 1 outcome), raises ValueError.  The
    four-mode norm outside the box of `cutoff` photons per mode,
    1 - sum |psi|^2, above DEFAULT_LEAK_TOL raises CutoffTooSmallError.
    """
    if detector not in ("ideal", "on-off"):
        raise ValueError(f"unknown detector kind {detector!r}")
    if cfg.n_thermal > 0:
        raise ValueError("the Fock oracle models pure loss only (n_thermal = 0)")
    if cfg.T_loss < 1.0 and not cfg.loss_on_detector_modes:
        raise ValueError("the Fock oracle models loss on every mode only "
                         "(loss_on_detector_modes)")
    if cutoff > MAX_CUTOFF:
        raise ValueError(f"cutoff {cutoff} exceeds the limit {MAX_CUTOFF}")
    if cutoff < 1:
        raise ValueError(f"cutoff {cutoff} is below 1, the photon number heralding needs")
    psi = _scheme_amplitudes(cfg, cutoff)
    deficit = 1.0 - float(np.vdot(psi, psi).real)
    if deficit > DEFAULT_LEAK_TOL:
        raise CutoffTooSmallError(f"{deficit:.3e} of the four-mode norm lies above "
                                  f"cutoffs {(cutoff,) * 4}", deficit=deficit)
    rho = FockDensity.from_entries(
        (cutoff, cutoff), *_herald(psi, *_detector_weights(cfg, detector, cutoff + 1)))
    del psi  # heralded: the amplitudes need not outlive the loss step
    success = rho.trace()
    if cfg.T_loss < 1.0:
        # the loss is linear and trace-preserving: one normalization after it
        rho = loss_kraus(rho, 0, cfg.T_loss)
        rho = loss_kraus(rho, 1, cfg.T_loss)
    trace = rho.trace()
    if trace <= 1e-300:
        raise DegeneratePostselectionError(f"conditioning probability {trace:.3e} is degenerate")
    # the oracle's one normalization: rho's entries were built here, so they
    # are divided in place, with no copy; numpy divides a complex by a real
    # as both parts times the reciprocal, so this is rho.values / trace bit
    # for bit (up to the sign of a zero)
    rho.values.view(float)[...] *= 1.0 / trace
    return rho, success


def theoretical_oracle(family: str, r: float, delta: float | None = None, *,
                       cutoff: int, leak_tol: float = DEFAULT_LEAK_TOL) -> FockTensor:
    """Fock-space construction of the analytic two-mode resource families.

    Every family is S(r)[cos d|0,0> + sin d|1,1>] with S(r) the squeezer of
    phase pi, so its state is sum_n c_n |n, n> with closed-form c_n.  With
    t = tanh r and v_n = t^n / cosh r, the squeezed vacuum:

        twin beam          c_n = v_n
        a1 a2 S|0,0>       c_n = (n + 1) v_(n+1) / (sinh r sqrt(cosh 2r))
        a1^dag a2^dag      c_n = n v_(n-1) / (cosh r sqrt(cosh 2r))
        S|1,1>             c_n = t^(n-1) (n - sinh^2 r) / cosh^3 r
                           (c_0 = -sinh r / cosh^2 r)
        squeezed Bell      cos delta v_n + sin delta (S|1,1>)_n

    Each state is exactly normalized, so `leak`, 1 - sum c_n^2 over the box
    of `cutoff` photons per mode, is the norm outside the box to rounding;
    above `leak_tol` it raises CutoffTooSmallError.  The amplitudes are
    taken in t and 1 / cosh r, which are finite at every r, so none
    overflows where cosh r does.  Only `squeezed-bell` takes delta; a
    non-finite delta, a cutoff below 1, an r that is negative or not
    finite, or a NaN `leak_tol` raises ValueError.  Photon subtraction at
    r = 0 annihilates the vacuum and raises ZeroNormStateError.
    """
    if family != "squeezed-bell" and delta is not None:
        raise ValueError(f"family {family!r} does not take delta")
    if cutoff < 1:
        raise ValueError(f"cutoff {cutoff} is below 1")
    if not 0.0 <= r < np.inf:
        raise ValueError("squeezing amplitude must be finite and nonnegative")
    if np.isnan(leak_tol):
        raise ValueError("a NaN leak tolerance bounds no leak")
    n = np.arange(cutoff + 1)
    t = np.tanh(r)
    sech = 2.0 * np.exp(-r) / (1.0 + np.exp(-2.0 * r))   # 1 / cosh r, at every r
    power = t ** n
    # 1 / (cosh^2 r sqrt(cosh 2r)), with cosh 2r = cosh^2 r (1 + t^2)
    ladder = sech ** 3 / np.sqrt(1.0 + t * t)
    vacuum = power * sech
    number = np.concatenate([[-t], power[:-1] * (n[1:] * sech ** 2 - t * t)]) * sech
    if family == "twin-beam":
        c = vacuum
    elif family == "squeezed-number":
        c = number
    elif family == "squeezed-bell":
        if delta is None or not np.isfinite(delta):
            raise ValueError("squeezed-bell requires a finite mixing angle delta")
        c = np.cos(delta) * vacuum + np.sin(delta) * number
    elif family == "photon-subtracted":
        if r == 0.0:
            raise ZeroNormStateError("photon subtraction annihilates the vacuum")
        c = (n + 1) * power * ladder
    elif family == "photon-added":
        c = n * np.concatenate([[0.0], power[:-1]]) * ladder
    else:
        raise ValueError(f"unknown family {family!r}")
    leak = 1.0 - float(c @ c)
    if leak > leak_tol:
        raise CutoffTooSmallError(
            f"{leak:.3e} of the norm lies above cutoffs {(cutoff, cutoff)}", deficit=leak)
    return FockTensor((cutoff, cutoff), np.diag(c.astype(complex)), leak=leak)
