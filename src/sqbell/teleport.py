"""Teleportation fidelity of an unknown coherent state for a two-mode resource.

For the standard continuous-variable protocol the fidelity reduces to

    F = (1/pi) Int d^2 lam  exp(-|lam|^2) chi_res(-conj(lam), -lam),

independent of the input amplitude (the input phase factors cancel pairwise).
The closed-form path performs the two remaining Gaussian integrals inside the
polynomial-Gaussian algebra; an adaptive cubature path (Gauss-Kronrod product
rule over a square, the integrand evaluated on whole node arrays)
cross-checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import integrate

from . import gauss_poly as gp
from .errors import (
    DivergentIntegralError,
    PhysicalityError,
    QuadratureConvergenceError,
    UnsupportedEvaluationError,
)
from .resources import ResourceState

LAMBDA_MAX = 6.0
# subdivisions allowed to the adaptive cubature before it raises
# QuadratureConvergenceError; the cross-checks converge within about ten
QUADRATURE_MAX_SUBDIVISIONS = 100

# (Re b1, Im b1, Re b2, Im b2) = (-u, v, -u, -v) for lam = u + i v
_IDENTIFY = np.array([
    [-1.0, 0.0],
    [0.0, 1.0],
    [-1.0, 0.0],
    [0.0, -1.0],
])


@dataclass(frozen=True)
class FidelityResult:
    fidelity: float
    method: str
    residual: Optional[float] = None
    tail_bound: Optional[float] = None


def _fidelity_integrand(res: ResourceState) -> gp.PolyGaussFunction:
    chi = res.chi
    if chi.n_vars != 4:
        raise PhysicalityError("fidelity requires a two-mode resource")
    if chi.has_deltas():
        raise UnsupportedEvaluationError(
            "resource characteristic function carries point masses")
    reduced = gp.substitute(chi, _IDENTIFY)
    damping = gp.PolyGaussFunction.gaussian(2.0 * np.eye(2))
    return gp.multiply(reduced, damping)


def fidelity_closed_form(res: ResourceState) -> float:
    integrand = _fidelity_integrand(res)
    try:
        value = gp.integrate_real(integrand, [0, 1]).constant_value()
    except DivergentIntegralError as exc:
        raise PhysicalityError(f"fidelity integral diverges: {exc}") from exc
    f = value.real / np.pi
    if abs(value.imag) > 1e-9 * max(1.0, abs(value.real)):
        raise PhysicalityError(f"fidelity integral is not real: {value}")
    if not 0.0 < f <= 1.0 + 1e-9:
        raise PhysicalityError(f"fidelity {f} outside (0, 1]")
    return min(f, 1.0)


def _cubature(integrand, lambda_max: float, tol: float) -> float:
    """Integral of a real function of N x (u, v) rows over the square
    [-lambda_max, lambda_max]^2, to atol = rtol = tol."""
    result = integrate.cubature(integrand, [-lambda_max] * 2, [lambda_max] * 2,
                                rule="gk21", atol=tol, rtol=tol,
                                max_subdivisions=QUADRATURE_MAX_SUBDIVISIONS)
    if result.status != "converged":
        raise QuadratureConvergenceError(
            f"cubature stopped after {result.subdivisions} subdivisions with "
            f"error estimate {float(result.error):.3e} above tolerance {tol:.1e}",
            estimate=float(result.estimate), error=float(result.error))
    return float(result.estimate)


def fidelity_quadrature(res: ResourceState, lambda_max: float = LAMBDA_MAX,
                        tol: float = 1e-9) -> tuple[float, float]:
    """Adaptive 2-D cubature of the fidelity integrand; returns (F, tail bound).

    |chi| <= 1 for a characteristic function, so the neglected tail is bounded
    by (1/pi) times the mass of exp(-|lam|^2) outside the square.  Raises
    QuadratureConvergenceError if the cubature does not reach `tol` within
    QUADRATURE_MAX_SUBDIVISIONS subdivisions.
    """
    integrand = _fidelity_integrand(res)

    def real_part(uv: np.ndarray) -> np.ndarray:
        return gp.evaluate(integrand, uv).real

    value = _cubature(real_part, lambda_max, tol)
    tail = float(np.exp(-lambda_max ** 2))
    return value / np.pi, tail


def fidelity(res: ResourceState, cross_check: bool = False) -> FidelityResult:
    """Teleportation fidelity of `res`; optionally also run the quadrature path."""
    f = fidelity_closed_form(res)
    if not cross_check:
        return FidelityResult(f, "closed-form")
    fq, tail = fidelity_quadrature(res)
    return FidelityResult(f, "closed-form+quadrature",
                          residual=abs(f - fq), tail_bound=tail)


def fidelity_alpha_explicit(res: ResourceState, alpha: complex,
                            lambda_max: float = LAMBDA_MAX,
                            tol: float = 1e-10) -> float:
    """Fidelity with the input-amplitude phase factors evaluated explicitly.

    Integrates chi_in(lam) chi_in(-lam) chi_res(-conj(lam), -lam) by cubature
    without using the analytic cancellation of the alpha-dependent phases.
    Raises QuadratureConvergenceError as `fidelity_quadrature` does.
    """
    chi = res.chi
    if chi.has_deltas():
        raise UnsupportedEvaluationError(
            "resource characteristic function carries point masses")

    def integrand(uv: np.ndarray) -> np.ndarray:
        lam = uv[:, 0] + 1j * uv[:, 1]
        phase_in = np.exp(-0.5 * np.abs(lam) ** 2
                          + 2j * np.imag(lam * np.conj(alpha)))
        phase_out = np.exp(-0.5 * np.abs(lam) ** 2
                           + 2j * np.imag(-lam * np.conj(alpha)))
        chi_res = gp.evaluate_at_betas(chi, np.stack([-np.conj(lam), -lam], axis=1))
        return (phase_in * phase_out * chi_res).real

    return _cubature(integrand, lambda_max, tol) / np.pi


def twin_beam_fidelity(r: float) -> float:
    """Closed form 1/(1 + e^(-2r)) for the pure twin-beam resource."""
    return 1.0 / (1.0 + np.exp(-2.0 * r))
