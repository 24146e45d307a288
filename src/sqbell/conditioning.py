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
from .kernel import degenerate_below, warn_if_lossy
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
    """Normalized two-mode characteristic function plus conditioning metadata.

    `chi(b1, b2)` evaluates over arrays of amplitudes that broadcast together.
    """

    chi: Callable
    success_prob: float
    provenance: dict

    def chi_at(self, beta1: complex, beta2: complex) -> complex:
        return complex(self.chi(beta1, beta2))


def condition(chi4: GaussianChar, d3: DetectorKernel,
              d4: DetectorKernel, provenance: dict | None = None) -> ConditionedState:
    """Condition the four-mode function on both detectors firing.

    Returns the normalized two-mode characteristic function together with the
    success probability of the conditioning event (the value of the raw
    integral at the origin).  The event is degenerate, and raises
    DegeneratePostselectionError, when that probability is at or below
    :func:`sqbell.kernel.degenerate_below` of the sum of the magnitudes of
    its signed terms; a probability that is not a number or exceeds one
    raises PhysicalityError.  Both detectors must be of one kind.
    """
    if chi4.n_modes != 4:
        raise PhysicalityError("conditioning requires a four-mode source function")
    if d3.kind != d4.kind:
        raise ValueError("both detectors must be of one kind")
    S = chi4.exponent[None]
    if d3.kind == "ideal-projector":
        warn_if_lossy(S)
        detector = "ideal"
    else:
        detector = "on-off"
    etas = (d3.efficiency, d4.efficiency)
    P, scale = kernel.heralding_prob(S, detector, *etas)
    success = float(P[0])
    if success <= degenerate_below(scale[0]):
        raise DegeneratePostselectionError(
            f"conditioning probability {success:.3e} is degenerate")
    if not success <= 1.0 + 1e-9:
        raise PhysicalityError(f"success probability {success} is unphysical")

    heralded = kernel.heralded_chi(S, detector, *etas)

    def chi(beta1, beta2):
        return heralded(beta1, beta2)[0] / success

    meta = dict(provenance or {})
    meta.setdefault("detectors", (d3.kind, d4.kind))
    meta.setdefault("efficiencies", etas)
    return ConditionedState(chi, success, meta)
