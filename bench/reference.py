"""Reference figures and computations for the benchmark's correctness checks.

Nothing here imports ``sqbell``.  The figures are either the paper's
published numbers or are computed in the covariance-matrix formalism, which
shares no code with the package's characteristic-function algebra.

Conventions: quadratures x = (a + a^dag)/sqrt(2), p = (a - a^dag)/(i sqrt(2)),
ordered (x1, p1, x2, p2, ...); the vacuum covariance is I/2.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Table 2: optimal ancillary squeezing s* per principal squeezing r,
# single-photon projectors, T = 0.99, no loss.
TABLE2_S_STAR = {0.6: 0.00057, 0.8: 0.0046, 1.0: 0.011, 1.2: 0.022,
                 1.4: 0.036, 1.6: 0.056, 1.8: 0.082, 2.0: 0.12}

# The r = 1.6 cluster: optimized squeezed Bell, photon-subtracted and
# scheme-optimized fidelities, the last at s* = 0.056 (Table 2).
R16 = 1.6
R16_FIDELITY = {"squeezed-bell": 0.977, "photon-subtracted": 0.965,
                "scheme": 0.974}
R16_TOL = 0.002

# Realistic loss sweep (r = 1.6, eta = 0.15): band of the optimal s.
FIG7_S_STAR_BAND = (0.043, 0.055)


def twin_beam_fidelity(r: float) -> float:
    """Teleportation fidelity of the pure two-mode squeezed vacuum."""
    return 1.0 / (1.0 + math.exp(-2.0 * r))


def table2_s_within(r: float, s_star: float) -> bool:
    """s* within max(10 % relative, 0.002) of the published value."""
    s_paper = TABLE2_S_STAR[r]
    return abs(s_star - s_paper) <= max(0.1 * s_paper, 0.002)


def same_to_digits(value: float, ref: float, digits: int = 6) -> bool:
    """`value`, as printed to `digits` significant digits, rounds from `ref`.

    Allows half a unit in the last printed digit plus a relative 1e-9, so a
    reference that sits on a rounding boundary does not flip the check.
    """
    if ref == 0.0:
        return value == 0.0
    unit = 10.0 ** (math.floor(math.log10(abs(ref))) - (digits - 1))
    return abs(value - ref) <= 0.5 * unit + 1e-9 * abs(ref)


# ---------------------------------------------------------------------------
# Gaussian covariance matrices of the generation scheme
# ---------------------------------------------------------------------------


def _two_mode_squeezer(r: float) -> np.ndarray:
    """Symplectic matrix of a two-mode squeezer (EPR correlations in x1 - x2
    and p1 + p2) on (x1, p1, x2, p2)."""
    c, s = math.cosh(r), math.sinh(r)
    z = np.diag([1.0, -1.0])
    return np.block([[c * np.eye(2), s * z], [s * z, c * np.eye(2)]])


def _beam_splitter(T: float) -> np.ndarray:
    """Real beam splitter of transmissivity T on (x1, p1, x2, p2)."""
    t, q = math.sqrt(T), math.sqrt(1.0 - T)
    return np.block([[t * np.eye(2), q * np.eye(2)],
                     [-q * np.eye(2), t * np.eye(2)]])


def _on_modes(M: np.ndarray, modes: tuple[int, int], n_modes: int) -> np.ndarray:
    """Embed a two-mode symplectic matrix into n modes."""
    idx = [2 * modes[0], 2 * modes[0] + 1, 2 * modes[1], 2 * modes[1] + 1]
    out = np.eye(2 * n_modes)
    out[np.ix_(idx, idx)] = M
    return out


def _attenuate(V: np.ndarray, modes, T: float) -> np.ndarray:
    """Pure-loss channel of transmissivity T on the named modes."""
    g = np.ones(V.shape[0])
    for m in modes:
        g[2 * m] = g[2 * m + 1] = math.sqrt(T)
    W = V * np.outer(g, g)
    for m in modes:
        W[2 * m, 2 * m] += 0.5 * (1.0 - T)
        W[2 * m + 1, 2 * m + 1] += 0.5 * (1.0 - T)
    return W


def source_covariance(r: float, s: float, T1: float, T2: float,
                      T_loss: float = 1.0) -> np.ndarray:
    """8x8 covariance of the scheme's four modes before detection.

    Squeezers r on modes (1, 2) and s on (3, 4), loss T_loss on all four
    modes, then beam splitters T1 on (1, 3) and T2 on (2, 4).
    """
    V = 0.5 * np.eye(8)
    for S in (_on_modes(_two_mode_squeezer(r), (0, 1), 4),
              _on_modes(_two_mode_squeezer(s), (2, 3), 4)):
        V = S @ V @ S.T
    V = _attenuate(V, range(4), T_loss)
    for S in (_on_modes(_beam_splitter(T1), (0, 2), 4),
              _on_modes(_beam_splitter(T2), (1, 3), 4)):
        V = S @ V @ S.T
    return V


# x1 - x2 and p1 + p2 as rows over (x1, p1, x2, p2)
_EPR = np.array([[1.0, 0.0, -1.0, 0.0],
                 [0.0, 1.0, 0.0, 1.0]])


def gaussian_fidelity(V2: np.ndarray) -> float:
    """Coherent-state teleportation fidelity of a zero-mean two-mode Gaussian
    resource: 1 / sqrt(det(I + Sigma)), Sigma the covariance of the EPR
    quadratures x1 - x2 and p1 + p2."""
    sigma = _EPR @ V2 @ _EPR.T
    return 1.0 / math.sqrt(np.linalg.det(np.eye(2) + sigma))


def _no_click(V: np.ndarray, ancillas: tuple[int, ...],
              etas: tuple[float, ...]) -> tuple[float, np.ndarray]:
    """Probability that the named ancilla modes, seen with efficiencies
    `etas`, register no photon, and the signal covariance given that event."""
    sig = list(range(4))
    if not ancillas:
        return 1.0, V[np.ix_(sig, sig)]
    W = V
    for m, eta in zip(ancillas, etas):
        W = _attenuate(W, [m], eta)
    anc = [i for m in ancillas for i in (2 * m, 2 * m + 1)]
    A = W[np.ix_(anc, anc)] + 0.5 * np.eye(len(anc))
    C = W[np.ix_(sig, anc)]
    prob = 1.0 / math.sqrt(np.linalg.det(A))
    return prob, W[np.ix_(sig, sig)] - C @ np.linalg.solve(A, C.T)


def onoff_reference(r: float, s: float, T1: float = 0.99, T2: float = 0.99,
                    T_loss: float = 1.0, eta3: float = 0.15,
                    eta4: float = 0.15) -> tuple[float, float]:
    """(P, F) of the scheme heralded by both on/off detectors clicking.

    A click is 1 minus the no-click projector, so the heralded operator is
    an inclusion-exclusion of four Gaussian no-click terms:
    rho = sum_A (-1)^|A| p_A rho_A over subsets A of the two ancillas.
    P sums the no-click probabilities; F is linear in rho and sums the
    four Gaussian fidelities with the same weights.
    """
    V = source_covariance(r, s, T1, T2, T_loss)
    eta = {2: eta3, 3: eta4}
    P = F = 0.0
    for k in range(3):
        for subset in itertools.combinations((2, 3), k):
            p, Vs = _no_click(V, subset, tuple(eta[m] for m in subset))
            sign = (-1.0) ** k
            P += sign * p
            F += sign * p * gaussian_fidelity(Vs)
    return P, F / P
