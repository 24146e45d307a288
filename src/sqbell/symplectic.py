"""Zero-mean Gaussian characteristic functions and their linear-optics evolution.

A GaussianChar stores the real symmetric exponent matrix S of
chi(v) = exp(-1/2 v^T S v) in the interleaved coordinate order
(Re b1, Im b1, ..., Re bn, Im bn).  Squeezers and beam splitters act as
exact linear variable substitutions; loss channels rescale a mode and add
the environment exponent.  The module ends in the four-mode source function feeding the
detector-conditioning stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatchError, PhysicalityError
from .kernel import exponents_of, mix_into, squeeze_into

if TYPE_CHECKING:
    from .resources import SchemeConfig


@dataclass(frozen=True)
class SqueezeParam:
    """Complex squeezing amplitude |z| e^{i phase} with nonnegative modulus."""

    amplitude: float
    phase: float = np.pi

    def __post_init__(self):
        if not 0.0 <= self.amplitude < np.inf:
            raise ValueError("squeezing amplitude must be finite and nonnegative")
        if not np.isfinite(self.phase):
            raise ValueError("squeezing phase must be finite")


class GaussianChar:
    """chi(v) = exp(-1/2 v^T S v) for a zero-mean n-mode Gaussian state."""

    __slots__ = ("n_modes", "exponent")

    def __init__(self, n_modes: int, exponent: np.ndarray):
        S = np.asarray(exponent, dtype=float)
        if S.shape != (2 * n_modes, 2 * n_modes):
            raise DimensionMismatchError("exponent matrix shape mismatch")
        if np.max(np.abs(S - S.T)) > 1e-10:
            raise PhysicalityError("exponent matrix is not symmetric")
        self.n_modes = n_modes
        self.exponent = 0.5 * (S + S.T)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.exponent).min())

    def evaluate(self, betas) -> float:
        b = np.asarray(betas, dtype=complex)
        v = np.stack([b.real, b.imag], axis=-1).reshape(-1)
        return np.exp(-0.5 * v @ self.exponent @ v)

    def mean_photons(self, mode: int) -> float:
        """<a^dag a> of one mode, from the second derivatives of chi at zero."""
        S = self.exponent
        return 0.25 * (S[2 * mode, 2 * mode] + S[2 * mode + 1, 2 * mode + 1]) - 0.5

    def total_mean_photons(self) -> float:
        return sum(self.mean_photons(m) for m in range(self.n_modes))

    def quadrature_variances(self, mode: int) -> tuple[float, float]:
        """(Var X, Var Y) of one mode with X = (a + a^dag)/sqrt(2)."""
        S = self.exponent
        return (0.5 * S[2 * mode + 1, 2 * mode + 1], 0.5 * S[2 * mode, 2 * mode])


def vacuum_char(n_modes: int) -> GaussianChar:
    return GaussianChar(n_modes, np.eye(2 * n_modes))


def squeeze_matrix(p: SqueezeParam, modes: tuple[int, int], n_modes: int) -> np.ndarray:
    """Real linear map v -> v' realizing chi -> chi(v') for a two-mode squeezer.

    Each transformed amplitude is  b_i cosh|z| + conj(b_j) e^{i phase} sinh|z|.
    """
    L = np.eye(2 * n_modes)
    squeeze_into(L, p.amplitude, p.phase, *modes)
    return L


def beam_splitter_matrix(modes: tuple[int, int], T: float, n_modes: int) -> np.ndarray:
    """Variable map of a beam splitter: b_k -> sqrt(T) b_k - sqrt(R) b_l on the
    first named mode and b_l -> sqrt(T) b_l + sqrt(R) b_k on the second."""
    if not 0.0 <= T <= 1.0:
        raise ValueError("transmissivity must lie in [0, 1]")
    M = np.eye(2 * n_modes)
    mix_into(M, T, *modes)
    return M


def apply_linear(chi: GaussianChar, L: np.ndarray) -> GaussianChar:
    return GaussianChar(chi.n_modes, L.T @ chi.exponent @ L)


def two_mode_squeezed_char(p: SqueezeParam) -> GaussianChar:
    """Two-mode squeezed vacuum."""
    return apply_linear(vacuum_char(2), squeeze_matrix(p, (0, 1), 2))


def beam_splitter_substitute(chi: GaussianChar, modes: tuple[int, int],
                             T: float) -> GaussianChar:
    """Mix two modes of a GaussianChar exactly."""
    return apply_linear(chi, beam_splitter_matrix(modes, T, chi.n_modes))


def loss_channel(chi: GaussianChar, mode: int, T_loss: float,
                 n_thermal: float = 0.0) -> GaussianChar:
    """Mix one mode with a (thermal) environment of transmissivity T_loss.

    chi'(b) = chi(sqrt(T) b on the mode) * exp(-1/2 (2 n + 1)(1 - T)|b_mode|^2).
    """
    if not 0.0 < T_loss <= 1.0:
        raise ValueError("loss transmissivity must lie in (0, 1]")
    if n_thermal < 0:
        raise ValueError("thermal occupation must be nonnegative")
    S = chi.exponent.copy()
    scale = np.ones(2 * chi.n_modes)
    scale[2 * mode] = scale[2 * mode + 1] = np.sqrt(T_loss)
    S = S * np.outer(scale, scale)
    add = (2.0 * n_thermal + 1.0) * (1.0 - T_loss)
    S[2 * mode, 2 * mode] += add
    S[2 * mode + 1, 2 * mode + 1] += add
    return GaussianChar(chi.n_modes, S)


def scheme_four_mode_char(cfg: "SchemeConfig") -> GaussianChar:
    """Source function of the generation scheme, modes ordered (1, 2, 3, 4).

    Two independent two-mode squeezers feed modes (1,2) and (3,4); per-mode
    loss is applied on the source beams, then the two mixing beam splitters
    couple (1,3) and (2,4).  A batch of one of
    :func:`sqbell.kernel.source_exponents`.
    """
    return GaussianChar(4, exponents_of([cfg])[0])
