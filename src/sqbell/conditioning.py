"""Closed-form detector conditioning of the four-mode source function.

Projecting the two ancilla modes with either ideal single-photon projectors or
realistic on/off detectors turns the Gaussian four-mode characteristic
function into a two-mode polynomial-Gaussian one:

    chi_out(b1, b2) = (1/(N pi^2)) Int d^2b3 d^2b4 chi_1234 k3(b3) k4(b4),

where k is the detector kernel and N the success probability of the
conditioning event.  Normalization is applied exactly once, at the end; all
raw 1/pi and 1/eta prefactors are kept exact until then.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import gauss_poly as gp
from .errors import (
    DegeneratePostselectionError,
    DivergentIntegralError,
    PhysicalityError,
)
from .kernel import LossyProjectorWarning  # noqa: F401  (re-exported)
from .kernel import degenerate_below, warn_if_lossy
from .symplectic import GaussianChar

DEFAULT_EFFICIENCY = 0.15


@dataclass(frozen=True)
class DetectorKernel:
    """Characteristic kernel of one conditioning detector on a single mode."""

    kind: str  # 'ideal-projector' or 'on-off'
    efficiency: Optional[float]
    kernel: gp.PolyGaussFunction

    @staticmethod
    def ideal() -> "DetectorKernel":
        """Single-photon projector kernel (1 - |b|^2) exp(-|b|^2 / 2)."""
        poly = gp.Polynomial(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0})
        term = gp.GaussPolyTerm(1.0, poly, np.eye(2), np.zeros(2, dtype=complex))
        return DetectorKernel("ideal-projector", None,
                              gp.PolyGaussFunction(2, [term]))

    @staticmethod
    def on_off(efficiency: float = DEFAULT_EFFICIENCY) -> "DetectorKernel":
        """On/off POVM kernel pi delta^2(b) - (1/eta) exp(-(2-eta)/(2 eta) |b|^2)."""
        if not 0.0 < efficiency <= 1.0:
            raise ValueError("detector efficiency must lie in (0, 1]")
        delta_part = gp.PolyGaussFunction.point_mass(2, 0)
        gauss_part = gp.PolyGaussFunction.gaussian(
            ((2.0 - efficiency) / efficiency) * np.eye(2),
            coeff=-1.0 / efficiency)
        return DetectorKernel("on-off", efficiency, delta_part + gauss_part)

    def magnitude(self) -> "DetectorKernel":
        """The kernel with every signed piece replaced by its magnitude.

        Integrated against a positive Gaussian it gives the sum of the
        magnitudes of the signed terms that the kernel itself adds up.
        """
        terms = [gp.GaussPolyTerm(
                     abs(t.coeff),
                     gp.Polynomial(t.poly.n_vars,
                                   {k: abs(c) for k, c in t.poly.coeffs.items()}),
                     t.quad, t.lin, t.deltas)
                 for t in self.kernel.terms]
        return DetectorKernel(self.kind, self.efficiency,
                              gp.PolyGaussFunction(self.kernel.n_vars, terms))


@dataclass(frozen=True)
class ConditionedState:
    """Normalized two-mode characteristic function plus conditioning metadata."""

    chi: gp.PolyGaussFunction
    success_prob: float
    provenance: dict

    def chi_at(self, beta1: complex, beta2: complex) -> complex:
        return gp.evaluate_at_betas(self.chi, [beta1, beta2])


def _raw_conditioned(chi4: GaussianChar, d3: DetectorKernel,
                     d4: DetectorKernel) -> gp.PolyGaussFunction:
    if chi4.n_modes != 4:
        raise PhysicalityError("conditioning requires a four-mode source function")
    f = chi4.to_polygauss()
    k3 = gp.embed(d3.kernel, 8, 4)
    k4 = gp.embed(d4.kernel, 8, 6)
    product = gp.multiply(gp.multiply(f, k3), k4)
    try:
        reduced = gp.integrate_out(product, {2, 3})
    except DivergentIntegralError as exc:
        raise PhysicalityError(f"conditioning integral diverges: {exc}") from exc
    return reduced.scaled(1.0 / np.pi ** 2)


def condition(chi4: GaussianChar, d3: DetectorKernel,
              d4: DetectorKernel, provenance: dict | None = None) -> ConditionedState:
    """Condition the four-mode function on both detectors firing.

    Returns the normalized two-mode characteristic function together with the
    success probability of the conditioning event (the value of the raw
    integral at the origin).  The event is degenerate, and raises
    DegeneratePostselectionError, when that probability is at or below
    :func:`sqbell.kernel.degenerate_below` of the same integral taken with
    the magnitudes of the kernels' signed pieces.
    """
    if d3.kind == "ideal-projector" or d4.kind == "ideal-projector":
        warn_if_lossy(chi4.exponent[None])
    raw = _raw_conditioned(chi4, d3, d4)
    norm = gp.evaluate(raw, np.zeros(4))
    if abs(norm.imag) > 1e-10 * max(1.0, abs(norm.real)):
        raise PhysicalityError(f"success probability is not real: {norm}")
    success = norm.real
    if success <= degenerate_below(
            success_probability(chi4, d3.magnitude(), d4.magnitude())):
        raise DegeneratePostselectionError(
            f"conditioning probability {success:.3e} is degenerate")
    if success > 1.0 + 1e-9:
        raise PhysicalityError(f"success probability {success} exceeds one")
    meta = dict(provenance or {})
    meta.setdefault("detectors", (d3.kind, d4.kind))
    meta.setdefault("efficiencies", (d3.efficiency, d4.efficiency))
    return ConditionedState(raw.scaled(1.0 / success), success, meta)


def success_probability(chi4: GaussianChar, d3: DetectorKernel,
                        d4: DetectorKernel) -> float:
    """Probability that both detectors fire, without building the full state."""
    if chi4.n_modes != 4:
        raise PhysicalityError("conditioning requires a four-mode source function")
    # restrict to the ancilla modes first: chi(0, 0, b3, b4)
    sub = GaussianChar(2, chi4.exponent[4:, 4:]).to_polygauss()
    k3 = gp.embed(d3.kernel, 4, 0)
    k4 = gp.embed(d4.kernel, 4, 2)
    product = gp.multiply(gp.multiply(sub, k3), k4)
    try:
        value = gp.integrate_out(product, {0, 1}).constant_value()
    except DivergentIntegralError as exc:
        raise PhysicalityError(f"conditioning integral diverges: {exc}") from exc
    return value.real / np.pi ** 2
