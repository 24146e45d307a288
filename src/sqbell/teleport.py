"""Teleportation fidelity of an unknown coherent state for a two-mode resource.

For the standard continuous-variable protocol the fidelity reduces to

    F = (1/pi) Int d^2 lam  exp(-|lam|^2) chi_res(-conj(lam), -lam),

independent of the input amplitude (the input phase factors cancel pairwise).
The closed form is the `fidelity` every resource state carries, computed by
the kernel when the state was built.  An adaptive cubature path cross-checks
it: the QUADPACK 21-point Gauss-Kronrod rule in product form over a square,
refined in batches, with every round's new regions evaluated in one call of
the resource's chi on their whole node array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import QuadratureConvergenceError
from .resources import ResourceState

# the cubature covers [-LAMBDA_MAX, LAMBDA_MAX]^2, to atol = rtol of
# QUADRATURE_TOL (fidelity_quadrature) or ALPHA_EXPLICIT_TOL
LAMBDA_MAX = 6.0
QUADRATURE_TOL = 1e-9
ALPHA_EXPLICIT_TOL = 1e-10
# subdivisions (one region split into four) allowed to the adaptive cubature
# before it raises QuadratureConvergenceError; the cross-checks of the
# analytic families at r = 0.25 to 2.5 and of the twelve oracle
# configurations converge after five to nine, in three or four rounds
QUADRATURE_MAX_SUBDIVISIONS = 100

# QUADPACK qk21 (Piessens et al., QUADPACK, Springer 1983): the 21-point
# Kronrod nodes on [-1, 1] and their weights, as halves from the outermost node
# to the centre; the 10-point Gauss rule sits on the odd-indexed nodes.
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208067366738, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
_NODES = np.concatenate([-_XGK, _XGK[-2::-1]])
_KRONROD = np.concatenate([_WGK, _WGK[-2::-1]])
_GAUSS = np.zeros(21)
_GAUSS[1::2] = np.concatenate([_WG, _WG[::-1]])
# lower corners of a region's four children, in units of its half-width
_QUADRANTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


@dataclass(frozen=True)
class FidelityResult:
    fidelity: float
    method: str
    residual: Optional[float] = None


def fidelity_closed_form(res: ResourceState) -> float:
    """The kernel's closed-form fidelity, which every resource state carries."""
    return res.fidelity


def _cubature(integrand, tol: float) -> float:
    """Integral of a real function of N x (u, v) rows over the square
    [-LAMBDA_MAX, LAMBDA_MAX]^2, to atol = rtol = tol.

    Each leaf region keeps its lower corner, half-width, Kronrod estimate and
    error |Kronrod - Gauss|.  Until the summed error is at most
    tol + tol |estimate|, each round splits into four the fewest leaves of
    largest error whose removal brings the rest under that bound, and
    evaluates all their children in one `integrand` call.
    """
    n = len(_NODES)
    corner, half = np.full((1, 2), -LAMBDA_MAX), np.array([LAMBDA_MAX])
    est, err = np.empty(0), np.empty(0)
    new = slice(0, 1)  # the leaves not yet evaluated
    budget = QUADRATURE_MAX_SUBDIVISIONS
    while True:
        # the new leaves' 21 x 21 product nodes, u along axis 1, v along axis 2
        u, v = (corner[new, i, None] + half[new, None] * (1.0 + _NODES) for i in (0, 1))
        uv = np.stack(np.broadcast_arrays(u[:, :, None], v[:, None, :]), axis=-1)
        values = integrand(uv.reshape(-1, 2)).reshape(-1, n, n)
        if not np.all(np.isfinite(values)):
            raise QuadratureConvergenceError(
                "cubature integrand returned a non-finite value",
                estimate=float("nan"), error=float("nan"))
        kronrod = half[new] ** 2 * (values @ _KRONROD @ _KRONROD)
        gauss = half[new] ** 2 * (values @ _GAUSS @ _GAUSS)
        est = np.concatenate([est, kronrod])
        err = np.concatenate([err, np.abs(kronrod - gauss)])
        estimate, error = est.sum(), err.sum()
        bound = tol + tol * abs(estimate)
        if error <= bound:
            return float(estimate)
        order = np.argsort(-err)
        rest = error - np.cumsum(err[order])
        count = min(np.count_nonzero(rest > bound) + 1, budget)
        if count == 0:
            raise QuadratureConvergenceError(
                f"cubature stopped after {QUADRATURE_MAX_SUBDIVISIONS} subdivisions "
                f"with error estimate {error:.3e} above tolerance {tol:.1e}",
                estimate=float(estimate), error=float(error))
        budget -= count
        split, keep = order[:count], order[count:]
        children = (corner[split, None, :]
                    + half[split, None, None] * _QUADRANTS).reshape(-1, 2)
        corner = np.concatenate([corner[keep], children])
        half = np.concatenate([half[keep], np.repeat(half[split] / 2, 4)])
        est, err = est[keep], err[keep]
        new = slice(len(keep), None)


def fidelity_quadrature(res: ResourceState) -> float:
    """Adaptive 2-D cubature of the fidelity integrand over the square.

    |chi| <= 1 for a characteristic function, so the neglected tail is bounded
    by (1/pi) times the mass of exp(-|lam|^2) outside the square, at most its
    mass outside the disk of radius LAMBDA_MAX: exp(-LAMBDA_MAX^2) = 2.3e-16.
    Raises QuadratureConvergenceError if the cubature does not reach
    QUADRATURE_TOL within QUADRATURE_MAX_SUBDIVISIONS subdivisions, or if chi
    is not finite at a node.
    """
    def real_part(uv: np.ndarray) -> np.ndarray:
        lam = uv[:, 0] + 1j * uv[:, 1]
        return np.exp(-np.abs(lam) ** 2) * res.chi(-np.conj(lam), -lam).real

    return _cubature(real_part, QUADRATURE_TOL) / np.pi


def fidelity(res: ResourceState, cross_check: bool = False) -> FidelityResult:
    """Teleportation fidelity of `res`; optionally also run the quadrature path."""
    f = fidelity_closed_form(res)
    if not cross_check:
        return FidelityResult(f, "closed-form")
    fq = fidelity_quadrature(res)
    return FidelityResult(f, "closed-form+quadrature", residual=abs(f - fq))


def fidelity_alpha_explicit(res: ResourceState, alpha: complex) -> float:
    """Fidelity with the input-amplitude phase factors evaluated explicitly.

    Integrates chi_in(lam) chi_in(-lam) chi_res(-conj(lam), -lam) by cubature
    without using the analytic cancellation of the alpha-dependent phases.
    Raises ValueError for a non-finite `alpha`, and QuadratureConvergenceError
    as `fidelity_quadrature` does.
    """
    if not np.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")

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
    """Closed form 1/(1 + e^(-2r)) for the pure twin-beam resource; an r
    that is negative or not finite raises ValueError."""
    if not 0.0 <= r < np.inf:
        raise ValueError("squeezing amplitude must be finite and nonnegative")
    return 1.0 / (1.0 + np.exp(-2.0 * r))
