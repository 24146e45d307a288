"""Teleportation fidelity of an unknown coherent state for a two-mode resource.

For the standard continuous-variable protocol the fidelity reduces to

    F = (1/pi) Int d^2 lam  exp(-|lam|^2) chi_res(-conj(lam), -lam),

independent of the input amplitude (the input phase factors cancel pairwise).
The closed-form path is the kernel's: :func:`sqbell.kernel.scheme_pf` for
scheme states and :func:`sqbell.kernel.squeezed_bell_fidelity` for the
analytic families.  An adaptive cubature path (Gauss-Kronrod product rule
over a square, the resource's chi evaluated on whole node arrays)
cross-checks it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import integrate

from .errors import QuadratureConvergenceError
from .kernel import LossyProjectorWarning, squeezed_bell_fidelity
from .resources import SCHEME_DETECTORS, ResourceState, bell_angle, scheme_fidelities

# the cubature covers [-LAMBDA_MAX, LAMBDA_MAX]^2, to atol = rtol of
# QUADRATURE_TOL (fidelity_quadrature) or ALPHA_EXPLICIT_TOL
LAMBDA_MAX = 6.0
QUADRATURE_TOL = 1e-9
ALPHA_EXPLICIT_TOL = 1e-10
# subdivisions allowed to the adaptive cubature before it raises
# QuadratureConvergenceError; the cross-checks converge within about ten
QUADRATURE_MAX_SUBDIVISIONS = 100


@dataclass(frozen=True)
class FidelityResult:
    fidelity: float
    method: str
    residual: Optional[float] = None
    tail_bound: Optional[float] = None


def fidelity_closed_form(res: ResourceState) -> float:
    """The kernel's fidelity of a scheme state or an analytic family.

    Raises as :func:`sqbell.resources.scheme_fidelities` does when the
    kernel reports the scheme state degenerate or unphysical.
    """
    if res.family in SCHEME_DETECTORS:
        with warnings.catch_warnings():
            # building the state already warned about a lossy source
            warnings.simplefilter("ignore", LossyProjectorWarning)
            return scheme_fidelities([res.params], SCHEME_DETECTORS[res.family])[0]
    r = res.params["r"]
    return float(squeezed_bell_fidelity(r, bell_angle(res.family, r, res.params["delta"])))


def _cubature(integrand, tol: float) -> float:
    """Integral of a real function of N x (u, v) rows over the square
    [-LAMBDA_MAX, LAMBDA_MAX]^2, to atol = rtol = tol."""
    result = integrate.cubature(integrand, [-LAMBDA_MAX] * 2, [LAMBDA_MAX] * 2,
                                rule="gk21", atol=tol, rtol=tol,
                                max_subdivisions=QUADRATURE_MAX_SUBDIVISIONS)
    if result.status != "converged":
        raise QuadratureConvergenceError(
            f"cubature stopped after {result.subdivisions} subdivisions with "
            f"error estimate {float(result.error):.3e} above tolerance {tol:.1e}",
            estimate=float(result.estimate), error=float(result.error))
    return float(result.estimate)


def fidelity_quadrature(res: ResourceState) -> tuple[float, float]:
    """Adaptive 2-D cubature of the fidelity integrand; returns (F, tail bound).

    |chi| <= 1 for a characteristic function, so the neglected tail is bounded
    by (1/pi) times the mass of exp(-|lam|^2) outside the square.  Raises
    QuadratureConvergenceError if the cubature does not reach QUADRATURE_TOL within
    QUADRATURE_MAX_SUBDIVISIONS subdivisions.
    """
    def real_part(uv: np.ndarray) -> np.ndarray:
        lam = uv[:, 0] + 1j * uv[:, 1]
        return np.exp(-np.abs(lam) ** 2) * res.chi(-np.conj(lam), -lam).real

    value = _cubature(real_part, QUADRATURE_TOL)
    tail = float(np.exp(-LAMBDA_MAX ** 2))
    return value / np.pi, tail


def fidelity(res: ResourceState, cross_check: bool = False) -> FidelityResult:
    """Teleportation fidelity of `res`; optionally also run the quadrature path."""
    f = fidelity_closed_form(res)
    if not cross_check:
        return FidelityResult(f, "closed-form")
    fq, tail = fidelity_quadrature(res)
    return FidelityResult(f, "closed-form+quadrature",
                          residual=abs(f - fq), tail_bound=tail)


def fidelity_alpha_explicit(res: ResourceState, alpha: complex) -> float:
    """Fidelity with the input-amplitude phase factors evaluated explicitly.

    Integrates chi_in(lam) chi_in(-lam) chi_res(-conj(lam), -lam) by cubature
    without using the analytic cancellation of the alpha-dependent phases.
    Raises QuadratureConvergenceError as `fidelity_quadrature` does.
    """
    def integrand(uv: np.ndarray) -> np.ndarray:
        lam = uv[:, 0] + 1j * uv[:, 1]
        phase_in = np.exp(-0.5 * np.abs(lam) ** 2
                          + 2j * np.imag(lam * np.conj(alpha)))
        phase_out = np.exp(-0.5 * np.abs(lam) ** 2
                           + 2j * np.imag(-lam * np.conj(alpha)))
        chi_res = res.chi(-np.conj(lam), -lam)
        return (phase_in * phase_out * chi_res).real

    return _cubature(integrand, ALPHA_EXPLICIT_TOL) / np.pi


def twin_beam_fidelity(r: float) -> float:
    """Closed form 1/(1 + e^(-2r)) for the pure twin-beam resource."""
    return 1.0 / (1.0 + np.exp(-2.0 * r))
