"""Closed-form detector conditioning of the four-mode source function.

Projecting the two ancilla modes with either ideal single-photon projectors or
realistic on/off detectors turns the Gaussian four-mode characteristic
function into a two-mode non-Gaussian one:

    chi_out(b1, b2) = (1/(N pi^2)) Int d^2b3 d^2b4 chi_1234 k3(b3) k4(b4),

where k is the detector kernel and N the success probability of the
conditioning event.  The integral is the array code of
:func:`sqbell.kernel.heralded_chi`; N is computed once, and normalization is
applied exactly once, when chi is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import kernel
from .errors import DegeneratePostselectionError, PhysicalityError
from .kernel import LossyProjectorWarning  # noqa: F401  (re-exported)
from .symplectic import GaussianChar

DEFAULT_EFFICIENCY = 0.15


@dataclass(frozen=True)
class DetectorKernel:
    """Characteristic kernel of one conditioning detector on a single mode."""

    kind: str  # 'ideal-projector' or 'on-off'
    efficiency: Optional[float]

    @staticmethod
    def ideal() -> "DetectorKernel":
        """Single-photon projector kernel (1 - |b|^2) exp(-|b|^2 / 2)."""
        return DetectorKernel("ideal-projector", None)

    @staticmethod
    def on_off(efficiency: float = DEFAULT_EFFICIENCY) -> "DetectorKernel":
        """On/off POVM kernel pi delta^2(b) - (1/eta) exp(-(2-eta)/(2 eta) |b|^2)."""
        if not 0.0 < efficiency <= 1.0:
            raise ValueError("detector efficiency must lie in (0, 1]")
        return DetectorKernel("on-off", efficiency)


@dataclass(frozen=True)
class ConditionedState:
    """Normalized two-mode characteristic function and its success probability.

    `chi(b1, b2)` evaluates over arrays of amplitudes that broadcast together.
    """

    chi: Callable
    success_prob: float

    def chi_at(self, beta1: complex, beta2: complex) -> complex:
        return complex(self.chi(beta1, beta2))


def status_error(success_prob: float, status: int) -> Exception | None:
    """The error a heralded point of one :mod:`sqbell.kernel` status raises:
    DegeneratePostselectionError, PhysicalityError, or None when it is OK."""
    if status == kernel.DEGENERATE:
        return DegeneratePostselectionError(
            f"conditioning probability {success_prob:.3e} is degenerate")
    if status == kernel.UNPHYSICAL:
        return PhysicalityError(
            f"success probability {success_prob} or its fidelity is unphysical")
    return None


def condition(chi4: GaussianChar, d3: DetectorKernel,
              d4: DetectorKernel) -> ConditionedState:
    """Condition the four-mode function on both detectors firing.

    Returns the normalized two-mode characteristic function together with the
    success probability of the conditioning event (the value of the raw
    integral at the origin).  A probability the kernel's
    :func:`sqbell.kernel.heralding_prob` reports degenerate or unphysical
    raises the error of :func:`status_error`.  Both detectors must be of
    one kind.
    """
    if chi4.n_modes != 4:
        raise PhysicalityError("conditioning requires a four-mode source function")
    if d3.kind != d4.kind:
        raise ValueError("both detectors must be of one kind")
    S = chi4.exponent[None]
    detector = "ideal" if d3.kind == "ideal-projector" else "on-off"
    etas = (d3.efficiency, d4.efficiency)
    P, status = kernel.heralding_prob(S, detector, *etas)
    success = float(P[0])
    error = status_error(success, status[0])
    if error is not None:
        raise error

    heralded = kernel.heralded_chi(S, detector, *etas)

    def chi(beta1, beta2):
        return heralded(beta1, beta2)[0] / success

    return ConditionedState(chi, success)
