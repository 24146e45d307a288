"""Factories for every entangled resource family handled by the package.

Covers the analytically defined two-mode states (twin beam, photon-subtracted
and photon-added squeezed states, squeezed number state, squeezed Bell family)
and the states produced by the generation scheme, ideal or realistic.  Every
resource is exposed as a normalized two-mode characteristic function.

Ladder operators act on characteristic functions through exact first-order
rules: with chi(b) = Tr[rho D(b)],

    a rho      -> (-b/2 - d/d conj(b)) chi        rho a      -> (+b/2 - d/d conj(b)) chi
    adag rho   -> (d/db - conj(b)/2) chi          rho adag   -> (d/db + conj(b)/2) chi
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict, replace
from typing import Optional

import numpy as np

from . import gauss_poly as gp
from . import kernel
from .conditioning import (
    DEFAULT_EFFICIENCY,
    ConditionedState,
    DetectorKernel,
    condition,
)
from .errors import DegeneratePostselectionError, PhysicalityError, ZeroNormStateError
from .symplectic import (
    GaussianChar,
    SqueezeParam,
    scheme_four_mode_char,
    squeeze_matrix,
    two_mode_squeezed_char,
)

THEORETICAL_FAMILIES = (
    "twin-beam", "photon-subtracted", "photon-added", "squeezed-number",
    "squeezed-bell",
)
SCHEME_FAMILIES = ("scheme-ideal", "scheme-realistic")


@dataclass(frozen=True)
class SchemeConfig:
    """Full parameter set of one generation-scheme evaluation."""

    r: float
    s: float = 0.0
    phi_zeta: float = np.pi
    phi_xi: float = np.pi
    T1: float = 0.99
    T2: float = 0.99
    T_loss: float = 1.0
    eta3: float = DEFAULT_EFFICIENCY
    eta4: float = DEFAULT_EFFICIENCY
    n_thermal: float = 0.0
    cutoff: Optional[int] = None
    loss_on_detector_modes: bool = True

    def __post_init__(self):
        if self.r < 0 or self.s < 0:
            raise ValueError("squeezing amplitudes must be nonnegative")
        for name in ("T1", "T2", "T_loss"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")
        for name in ("eta3", "eta4"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")
        if self.n_thermal < 0:
            raise ValueError("n_thermal must be nonnegative")
        if self.cutoff is not None and self.cutoff < 1:
            raise ValueError("cutoff must be a positive integer")

    def to_dict(self) -> dict:
        return asdict(self)

    def with_(self, **kwargs) -> "SchemeConfig":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class ResourceState:
    """A normalized two-mode characteristic function plus its provenance."""

    family: str
    chi: gp.PolyGaussFunction
    params: object
    success_prob: Optional[float] = None
    extra: dict = field(default_factory=dict)

    def chi_at(self, beta1: complex, beta2: complex) -> complex:
        return gp.evaluate_at_betas(self.chi, [beta1, beta2])


# ---------------------------------------------------------------------------
# ladder-operator rules on characteristic functions
# ---------------------------------------------------------------------------


def _mult_beta(f: gp.PolyGaussFunction, mode: int, conjugate: bool) -> gp.PolyGaussFunction:
    n = f.n_vars
    sign = -1.0 if conjugate else 1.0
    terms = []
    for t in f.terms:
        poly = t.poly * (gp.Polynomial.coordinate(n, 2 * mode)
                         + gp.Polynomial.coordinate(n, 2 * mode + 1, sign * 1.0j))
        terms.append(gp.GaussPolyTerm(t.coeff, poly, t.quad, t.lin, t.deltas))
    return gp.PolyGaussFunction(n, terms)


def _wirtinger(f: gp.PolyGaussFunction, mode: int, conjugate: bool) -> gp.PolyGaussFunction:
    dx = gp.differentiate(f, 2 * mode)
    dy = gp.differentiate(f, 2 * mode + 1)
    sign = 1.0j if conjugate else -1.0j
    return dx.scaled(0.5) + dy.scaled(0.5 * sign)


def apply_ladder(f: gp.PolyGaussFunction, mode: int, op: str, side: str) -> gp.PolyGaussFunction:
    """Apply a creation/annihilation operator to rho on the left or right."""
    if op == "a" and side == "left":
        out = _mult_beta(f, mode, conjugate=False).scaled(-0.5) \
            + _wirtinger(f, mode, conjugate=True).scaled(-1.0)
    elif op == "a" and side == "right":
        out = _mult_beta(f, mode, conjugate=False).scaled(0.5) \
            + _wirtinger(f, mode, conjugate=True).scaled(-1.0)
    elif op == "adag" and side == "left":
        out = _wirtinger(f, mode, conjugate=False) \
            + _mult_beta(f, mode, conjugate=True).scaled(-0.5)
    elif op == "adag" and side == "right":
        out = _wirtinger(f, mode, conjugate=False) \
            + _mult_beta(f, mode, conjugate=True).scaled(0.5)
    else:
        raise ValueError(f"unknown ladder action {op!r}/{side!r}")
    return gp.canonicalize(out)


def _normalized(chi: gp.PolyGaussFunction, zero_tol: float = 1e-14) -> gp.PolyGaussFunction:
    norm = gp.evaluate(chi, np.zeros(chi.n_vars))
    if abs(norm) < zero_tol:
        raise ZeroNormStateError("state construction produced the zero operator")
    return chi.scaled(1.0 / norm)


# ---------------------------------------------------------------------------
# state factories
# ---------------------------------------------------------------------------


def theoretical_state(family: str, r: float, delta: float | None = None,
                      phase: float = np.pi) -> ResourceState:
    """Analytic two-mode resource of one of the named families.

    The squeezed Bell family takes the mixing angle `delta`; all other
    families are fixed by the squeezing amplitude alone.
    """
    if family not in THEORETICAL_FAMILIES:
        raise ValueError(f"unknown theoretical family {family!r}")
    if family == "squeezed-bell":
        if delta is None:
            raise ValueError("squeezed-bell requires the mixing angle delta")
    elif delta is not None:
        raise ValueError(f"family {family!r} does not take delta")
    p = SqueezeParam(r, phase)

    if family == "twin-beam":
        chi = two_mode_squeezed_char(p).to_polygauss()
    elif family == "photon-subtracted":
        chi = two_mode_squeezed_char(p).to_polygauss()
        for mode in (0, 1):
            chi = apply_ladder(chi, mode, "a", "left")
            chi = apply_ladder(chi, mode, "adag", "right")
        chi = _normalized(chi)
    elif family == "photon-added":
        chi = two_mode_squeezed_char(p).to_polygauss()
        for mode in (0, 1):
            chi = apply_ladder(chi, mode, "adag", "left")
            chi = apply_ladder(chi, mode, "a", "right")
        chi = _normalized(chi)
    else:
        # build on the bare two-mode vacuum, then squeeze by substitution
        vac = GaussianChar(2, np.eye(4)).to_polygauss()
        number = vac
        for mode in (0, 1):
            number = apply_ladder(number, mode, "adag", "left")
            number = apply_ladder(number, mode, "a", "right")
        if family == "squeezed-number":
            bare = number
        else:  # squeezed-bell
            c0, c1 = np.cos(delta), np.sin(delta)
            cross_lr = vac
            for mode in (0, 1):
                cross_lr = apply_ladder(cross_lr, mode, "adag", "left")
            cross_rl = vac
            for mode in (0, 1):
                cross_rl = apply_ladder(cross_rl, mode, "a", "right")
            bare = (vac.scaled(c0 ** 2) + number.scaled(c1 ** 2)
                    + cross_lr.scaled(c0 * c1) + cross_rl.scaled(c0 * c1))
        chi = gp.substitute(bare, squeeze_matrix(p, (0, 1), 2))
        chi = _normalized(gp.canonicalize(chi))

    params = {"r": r, "delta": delta, "phase": phase}
    return ResourceState(family, chi, params)


def scheme_state(cfg: SchemeConfig, detector: str = "ideal") -> ResourceState:
    """Resource generated by the scheme and conditioned on both detectors firing."""
    chi4 = scheme_four_mode_char(cfg)
    if detector == "ideal":
        d3 = d4 = DetectorKernel.ideal()
        family = "scheme-ideal"
    elif detector in ("on-off", "onoff"):
        d3 = DetectorKernel.on_off(cfg.eta3)
        d4 = DetectorKernel.on_off(cfg.eta4)
        family = "scheme-realistic"
    else:
        raise ValueError(f"unknown detector kind {detector!r}")
    cond: ConditionedState = condition(chi4, d3, d4, provenance={"config": cfg})
    return ResourceState(family, cond.chi, cfg, cond.success_prob,
                         extra={"detector": detector})


def scheme_pf(cfgs, detector: str = "ideal"):
    """Heralding probability, fidelity and status of each configuration.

    One batched call of :func:`sqbell.kernel.scheme_pf`; it agrees with
    :func:`scheme_state` followed by the closed-form fidelity, which stays
    the independent cross-check.  Turn a status into an error with
    :func:`status_error`.
    """
    cfgs = list(cfgs)
    return kernel.scheme_pf(kernel.exponents_of(cfgs), detector,
                            [c.eta3 for c in cfgs], [c.eta4 for c in cfgs])


def status_error(success_prob: float, status: int) -> Exception | None:
    """The error `scheme_state` and the fidelity would raise for one status."""
    if status == kernel.DEGENERATE:
        return DegeneratePostselectionError(
            f"conditioning probability {success_prob:.3e} is degenerate")
    if status == kernel.UNPHYSICAL:
        return PhysicalityError(
            f"success probability {success_prob} or its fidelity is unphysical")
    return None


def delta_equivalent(cfg: SchemeConfig) -> float:
    """Mixing angle of the squeezed Bell state the small-mixing scheme approximates.

    Valid in the lossless, ideal-detector regime with T1 = T2; the mixing angle
    kappa obeys tan(kappa) = sqrt((1 - T)/T).
    """
    kappa = np.arctan(np.sqrt((1.0 - cfg.T1) / cfg.T1))
    k2 = kappa ** 2
    num = k2 * np.sinh(cfg.r) ** 2
    den = cfg.s + k2 * np.sinh(cfg.r) * np.cosh(cfg.r)
    if num == 0.0 and den == 0.0:
        return 0.0
    return float(np.arctan2(num, den))


def effective_squeezing(r: float, T_loss: float) -> float:
    """Squeezing amplitude actually observed after a loss channel of
    transmissivity T_loss:  r' = -1/2 ln[1 - T_loss (1 - e^(-2r))]."""
    if r < 0:
        raise ValueError("squeezing amplitude must be nonnegative")
    if not 0.0 < T_loss <= 1.0:
        raise ValueError("loss transmissivity must lie in (0, 1]")
    return float(-0.5 * np.log1p(-T_loss * (1.0 - np.exp(-2.0 * r))))


def squeezing_db(r: float) -> float:
    """Squeezing amplitude expressed in decibels, 10 log10(e^(2r))."""
    return float(10.0 * np.log10(np.exp(2.0 * r)))
