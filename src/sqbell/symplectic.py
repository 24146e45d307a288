"""Zero-mean Gaussian characteristic functions.

A GaussianChar stores the real symmetric exponent matrix S of
chi(v) = exp(-1/2 v^T S v) in the interleaved coordinate order
(Re b1, Im b1, ..., Re bn, Im bn).  The two-mode squeezed vacuum is the
vacuum under the squeezer's exact linear variable substitution; a loss
channel rescales a mode and adds the environment exponent.  The four-mode
source function of the scheme is one of :func:`sqbell.kernel.source_exponents`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatchError, PhysicalityError
from .kernel import columns_of, source_exponents, squeeze_into

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
        if not np.isfinite(S).all():
            raise PhysicalityError("exponent matrix is not finite")
        if np.max(np.abs(S - S.T)) > 1e-10:
            raise PhysicalityError("exponent matrix is not symmetric")
        self.n_modes = n_modes
        self.exponent = 0.5 * (S + S.T)

    def evaluate(self, betas) -> float:
        b = np.asarray(betas, dtype=complex)
        v = np.stack([b.real, b.imag], axis=-1).reshape(-1)
        return np.exp(-0.5 * v @ self.exponent @ v)


def two_mode_squeezed_char(p: SqueezeParam) -> GaussianChar:
    """Two-mode squeezed vacuum: the vacuum exponent I under the squeezer's
    substitution L, b_i -> b_i cosh|z| + conj(b_j) e^{i phase} sinh|z|."""
    L = np.eye(4)
    squeeze_into(L, p.amplitude, p.phase, 0, 1)
    return GaussianChar(2, L.T @ L)


def loss_channel(chi: GaussianChar, mode: int, T_loss: float,
                 n_thermal: float = 0.0) -> GaussianChar:
    """Mix one mode with a (thermal) environment of transmissivity T_loss.

    chi'(b) = chi(sqrt(T) b on the mode) * exp(-1/2 (2 n + 1)(1 - T)|b_mode|^2).
    A mode outside 0 .. n_modes - 1 raises ValueError.
    """
    if not 0 <= mode < chi.n_modes:
        raise ValueError(f"modes {(mode,)} must be distinct and lie in 0 .. {chi.n_modes - 1}")
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
    return GaussianChar(4, source_exponents(columns_of([cfg]))[0])
