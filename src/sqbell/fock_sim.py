"""Brute-force oracle in truncated Fock space.

Everything the closed-form pipeline computes is re-derived here by array
code on photon-number tensors, with one path per operation:

- pair unitaries: `two_mode_squeeze_operator` and `beam_splitter_operator`,
  exact exponentials of the truncated generators taken block by block of
  their conserved quantity, cached on their exact arguments;
- the squeezer: `apply_two_mode_squeeze`, on two-mode states only, built
  on a padded pair space from the blocks of n1 - n2 where the state has a
  nonzero amplitude only, and the norm it pushes above the cutoffs
  measured as the leak; it does not go through the cached
  `two_mode_squeeze_operator`, which builds every block for its direct
  callers;
- loss: `loss_kraus` on two-mode densities, one shifted, weighted
  indexed add of the nonzero entries per Kraus order;
- conditioning: `condition_with_diagonal_weights` on diagonal POVM weights
  (`lossy_projector_weights`, `on_off_weights`), normalized by
  `FockDensity.normalized`, which raises on a zero heralding probability;
- characteristic functions: `char_function_batch` (`char_function` and
  `char_function_state` at one point), Tr[rho D1 D2] with every displacement
  element a complex phase per amplitude times a real Laguerre factor per
  distinct |beta|^2 (`_phases`, `_laguerre_factors`); `char_function_state`
  takes two-mode states only and builds both displacement matrices in one
  `_displacement_batch`;
- `scheme_oracle` and `theoretical_oracle`, built from the steps above.

The scheme is the paper's: linear optics and photon detection on a pair of
uncorrelated two-mode squeezed states.  Its four-mode state is built from
the signal twin beam t = S(r)|0,0> and the ancilla twin beam
u = S(s)|0,0> as one sparse product B1 X B2^T, with
X[(n1, n3), (n2, n4)] = t[n1, n2] u[n3, n4] and B1, B2 the mixing beam
splitters of modes (1, 3) and (2, 4); its leak is the twin beams' leaks
summed.  The product's entries are rearranged into the sparse matrix
Psi[(n1, n2), (n3, n4)] and heralded as such (`_herald`): the scheme
oracle never holds a dense four-mode tensor, and `scheme_proto_state` is
the one place that densifies one.

The states the oracle builds are mostly exact zeros: squeezers conserve
n_i - n_j, beam splitters n_k + n_l, and the loss Kraus maps and diagonal
POVMs shift ket and bra together, so the scheme's four-mode state is
nonzero only where n0 + n2 = n1 + n3 (11.7k of 457k amplitudes at cutoff
25).  Every costly contraction runs over the nonzero entries only.  Each
skipped term is an exact zero, so the result is the full contraction's for
any input, and none of the steps assumes the structure of the states it is
asked to check.

The scheme oracle models pure loss only and has one pipeline: twin beams,
loss branches of the signal pair, the beam-splitter product, heralded
densities summed over branches.  Loss on every mode needs one branch,
and its signal-mode part is applied to the heralded density before its one
normalization; loss on the signal modes alone needs one per pair of Kraus
orders, which caps that path at cutoff 16 (48 for the others).  A leaking
cutoff is escalated up to the cap of its path, and a leak at the cap is
raised.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.linalg import eigh_tridiagonal

from .errors import CutoffTooSmallError, DegeneratePostselectionError, ZeroNormStateError
from .resources import SchemeConfig
from .symplectic import SqueezeParam

DEFAULT_LEAK_TOL = 1e-8
# pair unitaries kept per process: the scheme oracle's beam splitters, and
# the squeezers of direct `two_mode_squeeze_operator` callers; the oracle's
# squeezer builds only the blocks its state occupies, uncached
UNITARY_CACHE_SIZE = 64
# largest scheme-oracle cutoff, with loss on the signal modes only / otherwise
SIGNAL_LOSS_MAX_CUTOFF = 16
MAX_CUTOFF = 48
# smallest r the photon-subtracted oracle accepts.  a1 a2 leaves amplitudes
# of order r, each carrying the squeezer's rounding of about 1e-16, so the
# normalized state errs like 1e-32 / r^2: |amps[0, 0]| is off its exact value
# by 1.8e-5 at r = 1e-13 and by 2.4e-13 at r = 1e-8 (cutoff 48), and by at
# most 1.4e-14 from r = 1e-7 on (cutoffs 1 to 60)
_MIN_SUBTRACTION_R = 1e-7


@dataclass
class FockTensor:
    """Pure-state amplitude tensor indexed by photon numbers, one axis per mode.

    `leak` accumulates the squared-norm deficits incurred by truncated
    squeezing operations; it is diagnostic and never renormalized away.
    """

    cutoffs: tuple[int, ...]
    amps: np.ndarray
    leak: float = 0.0

    def __post_init__(self):
        expected = tuple(c + 1 for c in self.cutoffs)
        if self.amps.shape != expected:
            raise ValueError(f"amplitude shape {self.amps.shape} != {expected}")

    @property
    def n_modes(self) -> int:
        return len(self.cutoffs)

    def norm_squared(self) -> float:
        return float(np.vdot(self.amps, self.amps).real)


@dataclass
class FockDensity:
    """Two-mode density operator in the product Fock basis."""

    cutoffs: tuple[int, int]
    matrix: np.ndarray

    def __post_init__(self):
        d = (self.cutoffs[0] + 1) * (self.cutoffs[1] + 1)
        if self.matrix.shape != (d, d):
            raise ValueError("density matrix shape mismatch")

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def normalized(self) -> "FockDensity":
        """The density divided by its real trace; a trace of 1e-300 or less
        (a heralding probability of zero) raises DegeneratePostselectionError."""
        success = self.trace()
        if success <= 1e-300:
            raise DegeneratePostselectionError(
                f"conditioning probability {success:.3e} is degenerate")
        return FockDensity(self.cutoffs, self.matrix / success)

    def validate(self) -> None:
        if np.max(np.abs(self.matrix - self.matrix.conj().T)) > 1e-10:
            raise ValueError("density matrix is not Hermitian")
        if np.linalg.eigvalsh(self.matrix).min() < -1e-9:
            raise ValueError("density matrix has a negative eigenvalue")

    def as_tensor(self) -> np.ndarray:
        d0, d1 = self.cutoffs[0] + 1, self.cutoffs[1] + 1
        return self.matrix.reshape(d0, d1, d0, d1)


def vacuum_state(cutoffs: Sequence[int]) -> FockTensor:
    return basis_state(cutoffs, (0,) * len(cutoffs))


def basis_state(cutoffs: Sequence[int], occupations: Sequence[int]) -> FockTensor:
    amps = np.zeros(tuple(c + 1 for c in cutoffs), dtype=complex)
    amps[tuple(occupations)] = 1.0
    return FockTensor(tuple(cutoffs), amps)


def annihilator(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


# ---------------------------------------------------------------------------
# pair unitaries, block-diagonalized by their conserved quantity
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=UNITARY_CACHE_SIZE)
def two_mode_squeeze_operator(p: SqueezeParam, dims: tuple[int, int]) -> sparse.csr_matrix:
    """exp(-z adag_i adag_j + conj(z) a_i a_j) on the truncated pair space.

    The generator conserves n_i - n_j, so the exponential is taken block by
    block; the result is exactly unitary on the truncated space.
    """
    return _squeeze_unitary(p, dims, range(-(dims[1] - 1), dims[0]))


def _squeeze_unitary(p: SqueezeParam, dims: tuple[int, int], qs) -> sparse.csr_matrix:
    """The squeezer on the truncated pair space restricted to the blocks
    q = n_i - n_j in `qs`: its rows and columns in those blocks are the full
    operator's, every other entry is zero."""
    d1, d2 = dims
    z = p.amplitude * np.exp(1j * p.phase)
    blocks = []
    for q in qs:
        if q >= 0:
            n2s = np.arange(0, min(d2, d1 - q))
            n1s = n2s + q
        else:
            n1s = np.arange(0, min(d1, d2 + q))
            n2s = n1s - q
        # raising both photon numbers by one within the block
        amps = -z * np.sqrt((n1s[:-1] + 1.0) * (n2s[:-1] + 1.0))
        blocks.append((n1s * d2 + n2s, amps))
    return _block_unitary(blocks, d1 * d2)


@functools.lru_cache(maxsize=UNITARY_CACHE_SIZE)
def beam_splitter_operator(T: float, dims: tuple[int, int]) -> sparse.csr_matrix:
    """exp(kappa (adag_l a_k - a_l adag_k)) with tan(kappa) = sqrt((1-T)/T).

    Photon-number conserving, hence exactly unitary and leak-free on the
    truncated pair space.
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
    return _block_unitary(blocks, d1 * d2)


def _block_unitary(blocks, D: int) -> sparse.csr_matrix:
    """Sparse exp(G) of a generator that is block diagonal in the pair basis.

    Each block is (indices, lower): the flat pair-basis indices of the block
    and the subdiagonal of its generator, which is tridiagonal and
    anti-Hermitian (its superdiagonal is -conj(lower)).
    """
    if not blocks:
        return sparse.csr_matrix((D, D), dtype=complex)
    rows, cols, vals = [], [], []
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
            w, V = eigh_tridiagonal(np.zeros(size), np.abs(lower))
            DV = np.exp(1j * theta)[:, None] * V
            U = (DV * np.exp(-1j * w)) @ DV.conj().T
        a, b = np.nonzero(U)
        rows.append(idx[a])
        cols.append(idx[b])
        vals.append(U[a, b])
    return sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(D, D))


def _squeezed_padded(state: FockTensor, p: SqueezeParam) -> np.ndarray:
    """S(p) on a two-mode state, as amplitudes on its pair space padded by
    max(8, cutoff // 2) levels per mode: the padded operator's columns of
    the state's pair space times its amplitudes, each row summed by scipy
    in the order of the full product.  The squeezer conserves n1 - n2, so
    only the blocks of that quantity where the state has a nonzero
    amplitude are exponentiated; every other row of the full product sums
    exact zeros.  A state of more modes raises ValueError."""
    if state.n_modes != 2:
        raise ValueError("the two-mode squeezer expects a two-mode state")
    dims = state.amps.shape
    pad = max(8, max(state.cutoffs) // 2)
    padded = (dims[0] + pad, dims[1] + pad)
    # flat indices of the state's pair space within the padded one
    inner = (np.arange(dims[0])[:, None] * padded[1] + np.arange(dims[1])).ravel()
    n1, n2 = np.nonzero(state.amps)
    op = _squeeze_unitary(p, padded, np.unique(n1 - n2))
    big = op[:, inner] @ state.amps.reshape(-1)
    return big.reshape(padded)


def _truncated(big: np.ndarray, cutoffs: tuple[int, int], leak: float,
               leak_tol: float) -> FockTensor:
    """The block of a two-mode amplitude array within the cutoffs, with the
    squared norm outside it added to `leak`; CutoffTooSmallError when that
    norm exceeds `leak_tol`.  Nothing is renormalized."""
    box = (slice(cutoffs[0] + 1), slice(cutoffs[1] + 1))
    outside = np.ones(big.shape, dtype=bool)
    outside[box] = False
    leaked = big[outside]
    deficit = float(np.vdot(leaked, leaked).real)
    if deficit > leak_tol:
        raise CutoffTooSmallError(
            f"{deficit:.3e} of the norm leaked above cutoffs {cutoffs}", deficit=deficit)
    return FockTensor(cutoffs, big[box].copy(), leak=leak + deficit)


def apply_two_mode_squeeze(state: FockTensor, p: SqueezeParam,
                           leak_tol: float = DEFAULT_LEAK_TOL) -> FockTensor:
    """Apply the two-mode squeezer to a two-mode state, exponentiated on a
    pair space padded by max(8, cutoff // 2) levels per mode; raise
    CutoffTooSmallError when the norm leaked above the cutoffs exceeds
    `leak_tol`, else add it to `leak`."""
    return _truncated(_squeezed_padded(state, p), state.cutoffs, state.leak, leak_tol)


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

    Sum over m of K_m rho K_m^dag.  K_m has the single band K_m[i, i + m],
    so order m moves every nonzero entry whose lossy-mode ket and bra photon
    numbers p and q are both at least m to (p - m, q - m), weighted by
    band[p - m] band[q - m]: one indexed add per order, whose destinations
    are distinct.  The orders are added in rising m, as the order-by-order
    sum would, and the cost is set by the nonzero entries times their
    orders, not d^4 per order.
    """
    tensor = rho.as_tensor()
    flat = np.flatnonzero(tensor)
    idx = np.unravel_index(flat, tensor.shape)
    p, q = idx[mode], idx[mode + 2]
    values = tensor.reshape(-1)[flat]
    # order m lowers the ket and bra photon numbers of the lossy mode by m
    shift = np.zeros(4, dtype=int)
    shift[[mode, mode + 2]] = 1
    step = np.ravel_multi_index(shift, tensor.shape)
    out = np.zeros(tensor.size, dtype=complex)
    for m, band in enumerate(_loss_kraus_bands(T, rho.cutoffs[mode] + 1)):
        keep = np.minimum(p, q) >= m
        flat, p, q, values = flat[keep], p[keep], q[keep], values[keep]
        out[flat - m * step] += band[p - m] * band[q - m] * values
    return FockDensity(rho.cutoffs, out.reshape(rho.matrix.shape))


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
    (with 0^0 = 1, the single-photon projector at T = 1)."""
    n = np.arange(dim)
    return n * T * (1.0 - T) ** np.clip(n - 1, 0, None)


def condition_with_diagonal_weights(state: FockTensor, w3: np.ndarray,
                                    w4: np.ndarray) -> tuple[FockDensity, float]:
    """Condition a pure four-mode state on a diagonal POVM of modes 3 and 4.

    Returns the normalized reduced density operator on modes 1 and 2 and
    the success probability Tr[rho (W3 x W4)].  Ideal single-photon
    projectors are `lossy_projector_weights(1.0, dim)`, on/off detectors
    `on_off_weights(eta, dim)`.
    """
    if state.n_modes != 4:
        raise ValueError("conditioning expects a four-mode state")
    rho = FockDensity(state.cutoffs[:2], _heralded(state, w3, w4))
    return rho.normalized(), rho.trace()


def _heralded(state: FockTensor, w3: np.ndarray, w4: np.ndarray) -> np.ndarray:
    """`_herald` of a dense four-mode state, its amplitudes read as the
    sparse matrix Psi[(a, b), (k, l)] of their nonzero entries."""
    d0, d1 = state.amps.shape[:2]
    return _herald(sparse.csr_matrix(state.amps.reshape(d0 * d1, -1)), w3, w4)


def _herald(psi: sparse.csr_matrix, w3: np.ndarray, w4: np.ndarray) -> np.ndarray:
    """Unnormalized heralded density Psi W Psi^dag of modes 1 and 2, from the
    amplitudes as a sparse matrix Psi[(a, b), (k, l)] with sorted indices,
    summed over the (k, l) of nonzero weight only (one for ideal
    projectors).  The cost is set by the nonzero products, not by a
    d^2 x d^2 x d^2 GEMM."""
    weighted = psi.copy()
    weighted.data *= np.outer(w3, w4).reshape(-1)[weighted.indices]
    weighted.eliminate_zeros()
    return (weighted @ psi.conj().T).toarray()


# ---------------------------------------------------------------------------
# characteristic functions
# ---------------------------------------------------------------------------


def _phases(alphas: np.ndarray, x: np.ndarray, dim: int) -> np.ndarray:
    """The complex factor P_q of every displacement element of shift q = m - n,
    row q + dim - 1 for q = -(dim - 1) .. dim - 1, one column per amplitude:
    e^(-x/2) alpha^q / sqrt(q!) for q >= 0 and e^(-x/2) (-conj alpha)^|q| /
    sqrt(|q|!) below, with x = |alpha|^2."""
    powers = np.ones((dim, len(alphas)), dtype=complex)
    for order in range(1, dim):
        powers[order] = powers[order - 1] * alphas / np.sqrt(order)
    damp = np.exp(-0.5 * x)
    k = np.arange(dim, dtype=float)[:, None]
    lower = powers * damp                                  # alpha^k e^(-x/2) / sqrt(k!)
    upper = (-1.0) ** k * powers.conj() * damp             # (-conj alpha)^k ...
    return np.concatenate([upper[:0:-1], lower])


def _laguerre_factors(x: np.ndarray, dim: int) -> np.ndarray:
    """The real factor R_k(n) = sqrt(k! n! / (n+k)!) L_n^(k)(x) of the
    displacement elements <n+k|D|n> and <n|D|n+k>, as the table R[k, n, x]
    for each x = |alpha|^2, zero where n + k >= dim.

    The normalized Laguerre recurrence in n,

        sqrt((n+1)(n+1+k)) R_k(n+1) = (2n+1+k-x) R_k(n) - sqrt(n(n+k)) R_k(n-1),

    runs for every order k and every x at once from R_k(0) = 1.
    """
    # the recurrence's coefficients, indexed [n, k, None]
    n, k = np.indices((dim, dim), dtype=float)[..., None]
    diagonal = 2 * n + 1 + k
    back = np.sqrt(n * (n + k))
    scale = np.sqrt((n + 1) * (n + 1 + k))
    out = np.zeros((dim, dim, len(x)))
    h_prev = np.zeros((dim, len(x)))
    h = np.ones((dim, len(x)))
    for step in range(dim):
        ks = dim - step                                    # orders with n + k <= cutoff
        out[:ks, step] = h
        kn = slice(ks - 1)                                 # orders still needed at n + 1
        h_next = ((diagonal[step, kn] - x) * h[:-1] - back[step, kn] * h_prev[kn]
                  ) / scale[step, kn]
        h_prev, h = h, h_next
    return out


def _displacement_batch(alphas: np.ndarray, cutoff: int) -> np.ndarray:
    """Displacement matrices <m|D(alpha)|n> = P_(m-n) R_|m-n|(min(m, n)),
    shape (dim, dim, batch); R is computed once per distinct |alpha|^2."""
    alphas = np.asarray(alphas, dtype=complex).reshape(-1)
    dim = cutoff + 1
    x = np.abs(alphas) ** 2
    xs, point = np.unique(x, return_inverse=True)
    m, n = np.indices((dim, dim))
    P = _phases(alphas, x, dim)[m - n + dim - 1]
    R = _laguerre_factors(xs, dim)[np.abs(m - n), np.minimum(m, n)]
    return P * R[..., point]


def displacement_matrix(alpha: complex, cutoff: int) -> np.ndarray:
    """Matrix elements <m|D(alpha)|n> via the associated-Laguerre closed form."""
    return _displacement_batch(np.array([alpha]), cutoff)[:, :, 0]


def char_function(rho: FockDensity, beta1: complex, beta2: complex) -> complex:
    """chi(b1, b2) = Tr[rho D1(b1) D2(b2)]."""
    return complex(char_function_batch(rho, [beta1], [beta2])[0])


def char_function_state(state: FockTensor, beta1: complex, beta2: complex) -> complex:
    """<psi| D1(b1) D2(b2) |psi> for a two-mode pure state; a state of any
    other mode count raises ValueError."""
    if state.n_modes != 2:
        raise ValueError("char_function_state expects a two-mode state")
    d0, d1 = state.amps.shape
    D = _displacement_batch(np.array([beta1, beta2]), max(state.cutoffs))
    D1 = np.ascontiguousarray(D[:d0, :d0, 0])
    D2 = np.ascontiguousarray(D[:d1, :d1, 1])
    return complex(np.vdot(state.amps, D1 @ state.amps @ D2.T))


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
    distinct |beta|^2 of both modes.  The nonzero entries of rho are grouped
    by |q1|; each group is one real GEMM of R against the group's nonzero
    columns (q1, q2, min(l, n)), whose product is multiplied by R2 per
    distinct pair and summed by (q1, q2); the phases are applied per point
    last.  The cost is the nonzero entries times the distinct |beta|^2, plus
    their columns times the distinct pairs, plus the (q1, q2) blocks times
    the batch; the fidelity's 48 x 48 Gauss-Hermite grid has 2304 points but
    300 distinct pairs.  No (d^2, batch) displacement array is built.  Only
    exact zeros are skipped and only exactly equal |beta|^2 merged, so the
    result is the full contraction's for any density and any amplitudes.
    Arrays of different sizes raise ValueError.
    """
    b1 = np.asarray(betas1, dtype=complex).reshape(-1)
    b2 = np.asarray(betas2, dtype=complex).reshape(-1)
    if b1.size != b2.size:
        raise ValueError(f"betas1 holds {b1.size} amplitudes and betas2 "
                         f"{b2.size}; chi pairs them one to one")
    d0, d1 = rho.cutoffs[0] + 1, rho.cutoffs[1] + 1
    chi = np.zeros(b1.size, dtype=complex)
    flat = np.flatnonzero(rho.matrix != 0)
    if not flat.size or not b1.size:
        return chi
    m, n, k, l = np.unravel_index(flat, (d0, d1, d0, d1))
    q = k - m
    # one column per (q1, q2, min(l, n)), ordered by |q1|, then q1, then q2
    key = ((2 * np.abs(q) + (q > 0)) * (2 * d1 - 1) + l - n + d1 - 1) * d1 + np.minimum(l, n)
    keys, col = np.unique(key, return_inverse=True)
    t = np.zeros((d0, len(keys)), dtype=complex)
    t[np.minimum(k, m), col] = rho.matrix.reshape(-1)[flat]
    # the (q1, q2) block, q1, q2 and min(l, n) of each column
    block, j2 = np.divmod(keys, d1)
    signed, q2 = np.divmod(block, 2 * d1 - 1)
    q2 -= d1 - 1
    order1, positive = np.divmod(signed, 2)
    q1 = np.where(positive, order1, -order1)

    # one recurrence over the distinct |beta|^2 of both modes
    x1, x2 = np.abs(b1) ** 2, np.abs(b2) ** 2
    xs, u = np.unique(np.concatenate([x1, x2]), return_inverse=True)
    pairs, pair = np.unique(u[:b1.size] * len(xs) + u[b1.size:], return_inverse=True)
    p1, p2 = np.divmod(pairs, len(xs))
    dim = max(d0, d1)
    R = _laguerre_factors(xs, dim)
    P1, P2 = _phases(b1, x1, d0), _phases(b2, x2, d1)

    R2 = R[:, :, p2]
    # column edges of the |q1| groups, and of the (q1, q2) blocks in each
    groups = np.flatnonzero(np.diff(order1, prepend=-1, append=d0))
    blocks = np.flatnonzero(np.diff(block, prepend=-1))
    within = np.searchsorted(blocks, groups)
    shift1, shift2 = q1[blocks] + d0 - 1, q2[blocks] + d1 - 1
    for a, z, first, last in zip(groups[:-1], groups[1:], within[:-1], within[1:]):
        o = order1[a]
        r1 = R[o, :d0 - o]
        # real GEMM on the interleaved real and imaginary parts of t
        A = (r1.T @ t[:d0 - o, a:z].view(float)).view(complex)
        S = np.add.reduceat(A[p1] * R2[np.abs(q2[a:z]), j2[a:z]].T,
                            blocks[first:last] - a, axis=1)
        chi += np.sum(P1[shift1[first:last]] * (P2[shift2[first:last]] * S[pair].T), axis=0)
    return chi


# ---------------------------------------------------------------------------
# scheme oracle
# ---------------------------------------------------------------------------


def default_cutoff(amplitude: float) -> int:
    return 20 if amplitude <= 1.0 else 30


def _twin_beams(cfg: SchemeConfig, cutoff: int,
                leak_tol: float) -> tuple[FockTensor, FockTensor]:
    """The signal twin beam S(r)|0,0> of modes 1, 2 and the ancilla twin
    beam S(s)|0,0> of modes 3, 4."""
    vacuum = vacuum_state((cutoff, cutoff))
    return (apply_two_mode_squeeze(vacuum, SqueezeParam(cfg.r, cfg.phi_zeta), leak_tol),
            apply_two_mode_squeeze(vacuum, SqueezeParam(cfg.s, cfg.phi_xi), leak_tol))


def _mixed(t: np.ndarray, u: np.ndarray, cfg: SchemeConfig) -> sparse.csr_matrix:
    """The four-mode state after the mixing beam splitters B1 of modes
    (1, 3) and B2 of modes (2, 4), from signal pair amplitudes t and
    ancilla pair amplitudes u, as the sparse matrix Psi[(n1, n2), (n3, n4)]
    with sorted indices: the entries of the sparse product B1 X B2^T, with
    X[(n1, n3), (n2, n4)] = t[n1, n2] u[n3, n4] over the nonzero entries
    of t and u."""
    d = t.shape[0]
    i, j = np.nonzero(t)
    k, l = np.nonzero(u)
    X = sparse.csr_matrix(((t[i, j][:, None] * u[k, l]).ravel(),
                           ((i[:, None] * d + k).ravel(), (j[:, None] * d + l).ravel())),
                          shape=(d * d, d * d))
    Y = (beam_splitter_operator(cfg.T1, (d, d)) @ X
         @ beam_splitter_operator(cfg.T2, (d, d)).T).tocoo()
    n1, n3 = np.divmod(Y.row, d)
    n2, n4 = np.divmod(Y.col, d)
    # built from COO, so its indices are sorted
    return sparse.csr_matrix((Y.data, (n1 * d + n2, n3 * d + n4)), shape=(d * d, d * d))


def scheme_proto_state(cfg: SchemeConfig, cutoff: int,
                       leak_tol: float = DEFAULT_LEAK_TOL) -> FockTensor:
    """Four-mode state after both squeezers and both mixing beam splitters,
    with the two twin beams' leaks summed; the one place the oracle holds a
    dense four-mode tensor."""
    t, u = _twin_beams(cfg, cutoff, leak_tol)
    d = cutoff + 1
    amps = _mixed(t.amps, u.amps, cfg).toarray().reshape((d,) * 4)
    return FockTensor((cutoff,) * 4, amps, leak=t.leak + u.leak)


def _signal_loss_only(cfg: SchemeConfig) -> bool:
    return cfg.T_loss < 1.0 and not cfg.loss_on_detector_modes


def _detector_weights(cfg: SchemeConfig, detector: str,
                      dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal POVM weights of modes 3 and 4, with the detector-mode loss
    folded in when the loss is on every mode."""
    T = cfg.T_loss if cfg.loss_on_detector_modes else 1.0
    if detector == "ideal":
        w = lossy_projector_weights(T, dim)
        return w, w
    return on_off_weights(cfg.eta3 * T, dim), on_off_weights(cfg.eta4 * T, dim)


def _branches(t: FockTensor, cfg: SchemeConfig):
    """The signal pair amplitudes whose mixed, heralded densities sum to the
    scheme's: one Kraus branch of t per pair of signal loss orders (m1, m2)
    with signal-only loss, else t's own."""
    if not _signal_loss_only(cfg):
        yield t.amps
        return
    bands = _loss_kraus_bands(cfg.T_loss, t.cutoffs[0] + 1)
    for m1, band1 in enumerate(bands):
        for m2, band2 in enumerate(bands):
            # K_m1 x K_m2, whose only entries are K_m[i, i + m] = band[i]
            amps = np.zeros_like(t.amps)
            amps[:len(band1), :len(band2)] = band1[:, None] * t.amps[m1:, m2:] * band2
            yield amps


def scheme_oracle(cfg: SchemeConfig, detector: str = "ideal",
                  cutoff: int | None = None) -> tuple[FockDensity, float]:
    """Conditioned two-mode density operator of the scheme, built in Fock space,
    and its success probability.

    Pure loss only: `n_thermal > 0` raises ValueError.  Loss of equal
    transmissivity on every mode commutes with the mixing beam splitters, so
    the detector-mode loss is folded into the diagonal POVM weights and the
    signal-mode loss is applied to the heralded density, which is
    normalized once, after it; the success probability is the heralded
    trace.  Signal-only loss is kept
    ahead of the beam splitters as a sum over Kraus branches, which limits
    that path to cutoff 16 (48 otherwise).  A cutoff above that limit, or
    below 1 (heralding needs the n = 1 outcome), raises ValueError; a
    leaking cutoff is escalated by half, clamped to the limit, and
    CutoffTooSmallError is raised when the limit itself leaks.
    """
    if detector not in ("ideal", "on-off"):
        raise ValueError(f"unknown detector kind {detector!r}")
    if cfg.n_thermal > 0:
        raise ValueError("the Fock oracle models pure loss only (n_thermal = 0)")
    cap = SIGNAL_LOSS_MAX_CUTOFF if _signal_loss_only(cfg) else MAX_CUTOFF
    c = cutoff if cutoff is not None else min(default_cutoff(max(cfg.r, cfg.s)), cap)
    if c > cap:
        raise ValueError(f"cutoff {c} exceeds this configuration's limit {cap}")
    if c < 1:
        raise ValueError(f"cutoff {c} is below 1, the photon number heralding needs")
    while True:
        try:
            return _scheme_oracle_at(cfg, detector, c)
        except CutoffTooSmallError:
            if c >= cap:
                raise
            c = min(int(np.ceil(c * 1.5)), cap)


def _scheme_oracle_at(cfg: SchemeConfig, detector: str,
                      cutoff: int) -> tuple[FockDensity, float]:
    w3, w4 = _detector_weights(cfg, detector, cutoff + 1)
    t, u = _twin_beams(cfg, cutoff, DEFAULT_LEAK_TOL)
    # the first branch's density is used as is and the others added into it
    rho = FockDensity((cutoff, cutoff), functools.reduce(
        operator.iadd, (_herald(_mixed(b, u.amps, cfg), w3, w4) for b in _branches(t, cfg))))
    success = rho.trace()
    if cfg.T_loss < 1.0 and cfg.loss_on_detector_modes:
        # the loss is linear and trace-preserving: one normalization after it
        rho = loss_kraus(rho, 0, cfg.T_loss)
        rho = loss_kraus(rho, 1, cfg.T_loss)
    return rho.normalized(), success


def theoretical_oracle(family: str, r: float, delta: float | None = None,
                       cutoff: int | None = None,
                       leak_tol: float = DEFAULT_LEAK_TOL) -> FockTensor:
    """Fock-space construction of the analytic two-mode resource families.

    Only `squeezed-bell` takes delta.  A cutoff below 1 raises ValueError.
    The ladder families apply a1 a2 or a1^dag a2^dag to the squeezed vacuum
    on the squeezer's padded pair space and normalize there, so no amplitude
    within the cutoff is missing and `leak` is the norm above it; above
    `leak_tol` that norm raises CutoffTooSmallError.  Photon subtraction at r below 1e-7, where the
    subtracted state would be the squeezer's rounding divided by r (from
    the vacuum itself at r = 0), raises ZeroNormStateError.
    """
    if family != "squeezed-bell" and delta is not None:
        raise ValueError(f"family {family!r} does not take delta")
    if family == "photon-subtracted" and 0.0 <= r < _MIN_SUBTRACTION_R:
        raise ZeroNormStateError(
            f"photon subtraction at r = {r:.3g} < {_MIN_SUBTRACTION_R:g} is lost "
            "to rounding (at r = 0 it annihilates the vacuum)")
    c = cutoff if cutoff is not None else default_cutoff(r)
    if c < 1:
        raise ValueError(f"cutoff {c} is below 1")
    p = SqueezeParam(r, np.pi)
    if family == "squeezed-bell":
        if delta is None:
            raise ValueError("squeezed-bell requires delta")
        bare = basis_state((c, c), (0, 0))
        bare.amps[0, 0] = np.cos(delta)
        bare.amps[1, 1] = np.sin(delta)
    elif family == "twin-beam":
        bare = vacuum_state((c, c))
    elif family == "squeezed-number":
        bare = basis_state((c, c), (1, 1))
    elif family in ("photon-subtracted", "photon-added"):
        sq = _squeezed_padded(vacuum_state((c, c)), p)
        a = annihilator(len(sq))
        op = a if family == "photon-subtracted" else a.conj().T
        amps = op @ sq @ op.T
        nrm = np.linalg.norm(amps)
        if nrm < 1e-15:
            raise ZeroNormStateError("ladder action annihilated the state")
        return _truncated(amps / nrm, (c, c), 0.0, leak_tol)
    else:
        raise ValueError(f"unknown family {family!r}")
    return apply_two_mode_squeeze(bare, p, leak_tol)
