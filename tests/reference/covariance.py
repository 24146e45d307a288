"""Covariance-matrix reference for the scheme's source, heralding and fidelity.

It imports numpy and the standard library only and shares no code with
``sqbell``.  Conventions: quadratures x = (a + a^dag)/sqrt 2 and
p = (a - a^dag)/(i sqrt 2), ordered (x1, p1, ..., x4, p4); the vacuum
covariance is I/2.  A Gaussian unitary acts on the quadratures as
r -> M r, so on the covariance as V -> M V M^T.

The source is the scheme's: two-mode squeezers (r, phi_zeta) on modes 1, 2
and (s, phi_xi) on modes 3, 4; a thermal loss channel V -> T V +
(1 - T)(n + 1/2) I on modes 1, 2, and on 3, 4 where the loss is on the
detector modes; then beam splitters T1 on (1, 3) and T2 on (2, 4).  Its
characteristic function is chi(v) = exp(-1/2 v^T S v) over
v = (Re b1, Im b1, ...), with S = 2 Omega V Omega^T and Omega the direct
sum of [[0, 1], [-1, 0]]; a unitary M substitutes v -> L v with
L = Omega M^T Omega^T.

Heralding is read off the generating function of the ancilla photon
numbers.  For |t| < 1, t^n = rho_th / (1 - t) with rho_th the thermal state
of covariance (1 + t) / (2 (1 - t)) I, and two Gaussian states overlap as
1 / sqrt(det(V1 + V2)).  With V_a, C and V_s the ancilla, cross and signal
blocks of V, A = V_a + I/2, B = V_a - I/2 and T = diag(t3, t3, t4, t4),

    G(t) = sum P(n3, n4) t3^n3 t4^n4 = 1 / sqrt(det(A - B T)),

and the signal state that goes with t3^n3 t4^n4 is G(t) times the Gaussian
of covariance V_s(t) = V_s - C (I - T) (A - B T)^-1 C^T.  At t_k = 1 mode k
drops out, so the same formulas hold on the closed unit polydisk.

* Ideal projectors: P, P F and P chi(b1, b2) are the t3 t4 coefficients,
  taken by a 2-D FFT on the torus |t3| = |t4| = RADIUS with GRID x GRID
  points.  G has nonnegative coefficients that sum to one, so the aliased
  coefficients add at most RADIUS^GRID to P.
* On/off detectors: a click is one minus the no-click operator
  (1 - eta)^n, so each term is G at t = 1 - eta on the modes of a subset K
  of the ancillas, t = 1 on the others, with sign (-1)^|K|.
* The fidelity of a Gaussian signal is 1 / sqrt(det(I + Sigma)), Sigma the
  covariance of (x1 - x2, p1 + p2).

On the torus the principal square roots of both determinants are the
analytic continuations of the real ones.  A^-1 B is symmetric with
eigenvalues in (-1, 1), so det(A - B T) = det(A) prod(1 - nu) with every
|nu| < RADIUS and the four arguments together below pi.  V_s(t) is the
Schur complement of V + diag(0, (1 + t) / (2 (1 - t))), whose Hermitian
part is positive definite, so I + Sigma(t) has a positive definite
Hermitian part too and its eigenvalues lie in the right half-plane.
"""

from __future__ import annotations

import numpy as np

RADIUS = 0.4
GRID = 32
# covariances per pass, which bounds the (chunk, points, 4, 4) arrays
CHUNK = 64
# the source's parameters, in the order `covariance` takes them
FIELDS = ("r", "s", "phi_zeta", "phi_xi", "T1", "T2", "T_loss", "n_thermal",
          "loss_on_detector_modes")

# (x1 - x2, p1 + p2) as rows over (x1, p1, x2, p2)
_EPR = np.array([[1.0, 0.0, -1.0, 0.0],
                 [0.0, 1.0, 0.0, 1.0]])


def omega(n_modes: int) -> np.ndarray:
    """The direct sum of n_modes copies of [[0, 1], [-1, 0]]."""
    return np.kron(np.eye(n_modes), [[0.0, 1.0], [-1.0, 0.0]])


def exponent(V) -> np.ndarray:
    """The characteristic-function exponent S = 2 Omega V Omega^T (V real,
    or complex as a conditioned V_s(t) is)."""
    V = np.asarray(V)
    W = omega(V.shape[-1] // 2)
    return 2.0 * W @ V @ W.T


def variable_map(M) -> np.ndarray:
    """The substitution v -> L v, L = Omega M^T Omega^T, that the unitary of
    symplectic matrix M makes in the characteristic function's variables."""
    M = np.asarray(M, dtype=float)
    W = omega(M.shape[-1] // 2)
    return W @ np.swapaxes(M, -1, -2) @ W.T


def squeezer(r, phase, i: int, j: int, n_modes: int) -> np.ndarray:
    """Symplectic matrix of exp(-z a_i^dag a_j^dag + conj(z) a_i a_j),
    z = r e^{i phase}, which maps a_i -> a_i cosh r - e^{i phase} a_j^dag
    sinh r (and i <-> j); r and phase broadcast."""
    r, phase = np.broadcast_arrays(np.asarray(r, dtype=float),
                                   np.asarray(phase, dtype=float))
    M = np.broadcast_to(np.eye(2 * n_modes), r.shape + (2 * n_modes,) * 2).copy()
    c, s = np.cosh(r), np.sinh(r)
    # -e^{i phase} a^dag in quadratures: -(cos x + sin p) and -(sin x - cos p)
    cross = -s[..., None, None] * np.stack(
        [np.stack([np.cos(phase), np.sin(phase)], -1),
         np.stack([np.sin(phase), -np.cos(phase)], -1)], -2)
    for a, b in ((i, j), (j, i)):
        M[..., 2 * a:2 * a + 2, 2 * a:2 * a + 2] = c[..., None, None] * np.eye(2)
        M[..., 2 * a:2 * a + 2, 2 * b:2 * b + 2] = cross
    return M


def beam_splitter(T, k: int, l: int, n_modes: int) -> np.ndarray:
    """Symplectic matrix of the mixing beam splitter a_k -> sqrt(T) a_k +
    sqrt(1 - T) a_l, a_l -> sqrt(T) a_l - sqrt(1 - T) a_k; T broadcasts."""
    T = np.asarray(T, dtype=float)
    M = np.broadcast_to(np.eye(2 * n_modes), T.shape + (2 * n_modes,) * 2).copy()
    t, q = np.sqrt(T)[..., None, None], np.sqrt(1.0 - T)[..., None, None]
    for a, b, sign in ((k, l, 1.0), (l, k, -1.0)):
        M[..., 2 * a:2 * a + 2, 2 * a:2 * a + 2] = t * np.eye(2)
        M[..., 2 * a:2 * a + 2, 2 * b:2 * b + 2] = sign * q * np.eye(2)
    return M


def covariance(r, s, phi_zeta, phi_xi, T1, T2, T_loss, n_thermal,
               loss_on_detector_modes) -> np.ndarray:
    """Covariances V, shape (n, 8, 8), of the scheme's four modes before
    detection; the arguments broadcast to one batch of n."""
    r, s, phi_zeta, phi_xi, T1, T2, T_loss, n_thermal, on_det = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(x, dtype=float)) for x in (
            r, s, phi_zeta, phi_xi, T1, T2, T_loss, n_thermal,
            loss_on_detector_modes)))
    V = 0.5 * np.eye(8)
    for M in (squeezer(r, phi_zeta, 0, 1, 4), squeezer(s, phi_xi, 2, 3, 4)):
        V = M @ V @ np.swapaxes(M, 1, 2)
    lossy = np.ones((len(r), 8))
    lossy[:, 4:] = on_det[:, None]
    g = np.where(lossy > 0, np.sqrt(T_loss)[:, None], 1.0)
    V = V * g[:, :, None] * g[:, None, :]
    noise = ((1.0 - T_loss) * (n_thermal + 0.5))[:, None] * lossy
    V = V + noise[:, :, None] * np.eye(8)
    for M in (beam_splitter(T1, 0, 2, 4), beam_splitter(T2, 1, 3, 4)):
        V = M @ V @ np.swapaxes(M, 1, 2)
    return V


def covariance_of(cfgs) -> np.ndarray:
    """`covariance` of a sequence of objects carrying the FIELDS."""
    return covariance(*np.array([[getattr(c, f) for f in FIELDS] for c in cfgs],
                                dtype=float).reshape(-1, len(FIELDS)).T)


def _conditioned(V, t3, t4):
    """G(t) and V_s(t), shapes (n, m) and (n, m, 4, 4), at the points
    t3, t4 (shape (n, m) or broadcasting to it) of each covariance V."""
    V = np.asarray(V, dtype=float)[:, None]
    t3, t4 = np.broadcast_arrays(t3, t4)
    t = np.stack([t3, t3, t4, t4], -1).astype(complex)
    Vs, C, Va = V[..., :4, :4], V[..., :4, 4:], V[..., 4:, 4:]
    D = Va + 0.5 * np.eye(4) - (Va - 0.5 * np.eye(4)) * t[..., None, :]
    G = 1.0 / np.sqrt(np.linalg.det(D))
    Vt = Vs - (C * (1.0 - t)[..., None, :]) @ np.linalg.solve(D, np.swapaxes(C, -1, -2))
    return G, Vt


def _torus(grid: int):
    """The FFT points (t3, t4) of the torus, one of each conjugate pair, and
    the number of points each stands for: V is real, so the terms at t and
    conj(t) are conjugates and add twice the real part of one."""
    half = grid // 2
    j, k = (x.reshape(-1) for x in np.meshgrid(
        np.arange(grid), np.arange(half + 1), indexing="ij"))
    keep = ((0 < k) & (k < half)) | (j <= half)
    j, k = j[keep], k[keep]
    count = np.where((j % half == 0) & (k % half == 0), 1.0, 2.0)
    roots = RADIUS * np.exp(2j * np.pi * np.arange(grid) / grid)
    return roots[j], roots[k], count


def _terms(V, detector: str, eta3, eta4, grid: int):
    """The signed terms the heralded state sums: weights w (shape (n, m))
    and signal covariances V_s(t) (shape (n, m, 4, 4)), so that P is the real
    part of sum_m w and P chi that of sum_m w chi_m."""
    if detector == "ideal":
        t3, t4, count = _torus(grid)
        G, Vt = _conditioned(V, t3, t4)
        return G * count / (grid * grid * t3 * t4), Vt
    if detector == "on-off":
        one = np.ones_like(eta3)
        t3 = np.stack([one, 1.0 - eta3, one, 1.0 - eta3], 1)
        t4 = np.stack([one, one, 1.0 - eta4, 1.0 - eta4], 1)
        G, Vt = _conditioned(V, t3, t4)
        return G * np.array([1.0, -1.0, -1.0, 1.0]), Vt
    raise ValueError(f"unknown detector kind {detector!r}")


def _chunks(V, eta3, eta4):
    """V and both efficiencies, broadcast to one per covariance, in chunks
    of CHUNK covariances."""
    V = np.asarray(V, dtype=float)
    etas = [np.broadcast_to(np.asarray(e, dtype=float), len(V)) for e in (eta3, eta4)]
    for i in range(0, len(V), CHUNK):
        yield (V[i:i + CHUNK], *(e[i:i + CHUNK] for e in etas))


def scheme_pf(V, detector: str, eta3=np.nan, eta4=np.nan, grid: int = GRID):
    """P, F and the sum of the magnitudes of P's terms of the state heralded
    from each covariance V (shape (n, 8, 8)), eta3 and eta4 (on/off only)
    broadcasting to n: plain sums of the terms, with no status, cap or
    guard.  Ideal projectors take the FFT on `grid` x `grid` points, whose
    aliasing adds at most RADIUS^grid to P."""
    out = []
    for Vc, e3, e4 in _chunks(V, eta3, eta4):
        w, Vt = _terms(Vc, detector, e3, e4, grid)
        sigma = _EPR @ Vt @ _EPR.T
        P = np.sum(w, axis=1).real
        PF = np.sum(w / np.sqrt(np.linalg.det(np.eye(2) + sigma)), axis=1).real
        out.append((P, PF / P, np.sum(np.abs(w), axis=1)))
    return tuple(np.concatenate(x) for x in zip(*out))


def heralded_chi(V, detector: str, b1, b2, eta3=np.nan, eta4=np.nan) -> np.ndarray:
    """P chi(b1, b2), shape (n, k), of the state heralded from each
    covariance V at the k paired amplitudes b1, b2."""
    b1, b2 = (np.asarray(b, dtype=complex).reshape(-1) for b in (b1, b2))
    x = np.stack([b1.real, b1.imag, b2.real, b2.imag], -1)
    out = []
    for Vc, e3, e4 in _chunks(V, eta3, eta4):
        w, Vt = _terms(Vc, detector, e3, e4, GRID)
        quad = np.einsum("ki,nmij,kj->nmk", x, exponent(Vt), x)
        out.append(np.einsum("nm,nmk->nk", w, np.exp(-0.5 * quad)).real)
    return np.concatenate(out)
