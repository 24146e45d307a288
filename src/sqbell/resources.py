"""Factories for every entangled resource family handled by the package.

Covers the analytically defined two-mode states (twin beam, photon-subtracted
and photon-added squeezed states, squeezed number state, squeezed Bell family)
and the states produced by the generation scheme, ideal or realistic.  Every
resource is exposed as a normalized two-mode characteristic function.

The analytic families are all points of the squeezed Bell family
S(r)[cos d|0,0> + sin d|1,1>]; `bell_angle` gives each one's angle.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import kernel
from .conditioning import DEFAULT_EFFICIENCY, DetectorKernel, condition
from .errors import ZeroNormStateError
from .symplectic import scheme_four_mode_char

THEORETICAL_FAMILIES = (
    "twin-beam", "photon-subtracted", "photon-added", "squeezed-number",
    "squeezed-bell",
)
# detector kind of each scheme family
SCHEME_DETECTORS = {"scheme-ideal": "ideal", "scheme-realistic": "on-off"}
SCHEME_FAMILIES = tuple(SCHEME_DETECTORS)


class SchemeFlag(NamedTuple):
    """One scheme flag: the fields it sets, all to `at` of its value (a float,
    or an array of them along a sweep; `at` raises ValueError, naming the
    flag, for a value the map cannot take), its help, its place among the
    sweep axes (None where no sweep scans it) and the detector kinds that
    read it.  A switch takes no value; given, its value is True."""

    fields: tuple[str, ...]
    help: Optional[str] = None
    at: Callable = lambda v: v
    axis: Optional[int] = None
    detectors: tuple[str, ...] = ("ideal", "on-off")
    switch: bool = False


def _transmissivity(loss):
    """The channel transmissivity 1 - ell of loss level ell (a float, or an
    array of them along a sweep); ValueError unless ell lies in [0, 1)."""
    if not np.all((loss >= 0.0) & (loss < 1.0)):
        raise ValueError("--loss must lie in [0, 1)")
    return 1.0 - loss


# every scheme flag.  --delta sets the angle of the squeezed Bell family, which
# no SchemeConfig holds, and single-photon projectors have no efficiency
SCHEME_FLAGS = {
    "r": SchemeFlag(("r",), "principal squeezing", axis=1),
    "s": SchemeFlag(("s",), "ancillary squeezing", axis=0),
    "delta": SchemeFlag(("delta",), "squeezed-bell mixing angle", detectors=()),
    "phi-zeta": SchemeFlag(("phi_zeta",)),
    "phi-xi": SchemeFlag(("phi_xi",)),
    "T": SchemeFlag(("T1", "T2"), "set both scheme transmissivities", axis=3),
    "T1": SchemeFlag(("T1",)),
    "T2": SchemeFlag(("T2",)),
    "loss": SchemeFlag(("T_loss",), "loss level ell; the channel transmissivity is 1 - ell",
                       _transmissivity, axis=2),
    "eta": SchemeFlag(("eta3", "eta4"), "set both detector efficiencies", axis=4,
                      detectors=("on-off",)),
    "eta3": SchemeFlag(("eta3",), detectors=("on-off",)),
    "eta4": SchemeFlag(("eta4",), detectors=("on-off",)),
    "n-thermal": SchemeFlag(("n_thermal",)),
    "signal-loss-only": SchemeFlag(("loss_on_detector_modes",), "apply the loss channel"
                                   " to the signal modes only", operator.not_, switch=True),
}
SWEEP_FLAGS = tuple(sorted((f for f, row in SCHEME_FLAGS.items() if row.axis is not None),
                           key=lambda f: SCHEME_FLAGS[f].axis))


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
    loss_on_detector_modes: bool = True

    def __post_init__(self):
        for name in ("r", "s", "n_thermal"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and nonnegative")
        for name in ("phi_zeta", "phi_xi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("T1", "T2", "T_loss", "eta3", "eta4"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1]")
        if not isinstance(self.loss_on_detector_modes, (bool, np.bool_)):
            raise ValueError("loss_on_detector_modes must be a bool")

    def with_(self, **kwargs) -> "SchemeConfig":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class ResourceState:
    """A normalized two-mode characteristic function, its fidelity and provenance.

    `chi(b1, b2)` evaluates over arrays of amplitudes that broadcast together.
    """

    family: str
    chi: Callable
    params: object
    fidelity: float
    success_prob: Optional[float] = None

    def chi_at(self, beta1: complex, beta2: complex) -> complex:
        return complex(self.chi(beta1, beta2))


# ---------------------------------------------------------------------------
# state factories
# ---------------------------------------------------------------------------


def bell_angle(family: str, r: float, delta: float | None = None) -> float:
    """Squeezed Bell angle of a theoretical family at squeezing amplitude r.

    Every family is S(r)[cos d|0,0> + sin d|1,1>].  The phase-pi squeezer
    moves a ladder operator past itself as a1 S = S(a1 cosh r + a2^dag sinh r)
    (and 1 <-> 2), so on the twin beam S|0,0>

        a1 a2 S|0,0>         = sinh r S(cosh r|0,0> + sinh r|1,1>),
        a1^dag a2^dag S|0,0> = cosh r S(sinh r|0,0> + cosh r|1,1>):

    d = atan(tanh r) for photon subtraction and atan2(1, tanh r) for photon
    addition (no sinh or cosh to overflow), and d = 0 and pi/2 for the twin
    beam and the squeezed number state.  Only `squeezed-bell` takes delta.
    """
    if family not in THEORETICAL_FAMILIES:
        raise ValueError(f"unknown theoretical family {family!r}")
    if family == "squeezed-bell":
        if delta is None or not math.isfinite(delta):
            raise ValueError("squeezed-bell requires a finite mixing angle delta")
        return float(delta)
    if delta is not None:
        raise ValueError(f"family {family!r} does not take delta")
    if family == "twin-beam":
        return 0.0
    if family == "photon-subtracted":
        if r == 0.0:
            raise ZeroNormStateError("photon subtraction annihilates the vacuum")
        return math.atan(math.tanh(r))
    if family == "photon-added":
        return math.atan2(1.0, math.tanh(r))
    return np.pi / 2.0  # squeezed-number


def theoretical_state(family: str, r: float, delta: float | None = None) -> ResourceState:
    """Analytic two-mode resource of one of the named families.

    The squeezed Bell family takes the mixing angle `delta`; all other
    families are fixed by the squeezing amplitude alone (see `bell_angle`).
    The characteristic function of cos d|0,0> + sin d|1,1>, over
    (x1, y1, x2, y2) = (Re b1, Im b1, Re b2, Im b2), is

        e^{-(|b1|^2 + |b2|^2)/2} [c^2 + s^2 (1 - |b1|^2)(1 - |b2|^2)
                                  + 2 c s (x1 x2 - y1 y2)],

    which :func:`sqbell.kernel.squeezed_bell_chi` evaluates at the arguments
    mapped by the two-mode squeezer of phase pi; its fidelity is
    :func:`sqbell.kernel.squeezed_bell_fidelity` at the same angle.
    """
    if not 0.0 <= r < np.inf:
        raise ValueError("squeezing amplitude must be finite and nonnegative")
    d = bell_angle(family, r, delta)
    return ResourceState(family, partial(kernel.squeezed_bell_chi, r, d),
                         {"r": r, "delta": delta, "phase": np.pi},
                         float(kernel.squeezed_bell_fidelity(r, d)))


def scheme_state(cfg: SchemeConfig, detector: str = "ideal") -> ResourceState:
    """Resource generated by the scheme and conditioned on both detectors
    firing; warns LossyProjectorWarning for ideal projectors on a lossy source."""
    chi4 = scheme_four_mode_char(cfg)
    if detector == "ideal":
        d3 = d4 = DetectorKernel.ideal()
    elif detector == "on-off":
        d3 = DetectorKernel.on_off(cfg.eta3)
        d4 = DetectorKernel.on_off(cfg.eta4)
    else:
        raise ValueError(f"unknown detector kind {detector!r}")
    kernel.warn_if_lossy(detector, kernel.columns_of([cfg]))
    family = next(f for f, d in SCHEME_DETECTORS.items() if d == detector)
    cond = condition(chi4, d3, d4)
    return ResourceState(family, cond.chi, cfg, cond.fidelity, cond.success_prob)


def delta_equivalent(cfg: SchemeConfig) -> float:
    """Mixing angle of the squeezed Bell state the small-mixing scheme approximates.

    Valid in the lossless, ideal-detector regime with T1 = T2; the mixing angle
    kappa obeys tan(kappa) = sqrt((1 - T)/T).  A configuration with T1 != T2
    or T_loss < 1 raises ValueError.
    """
    if cfg.T1 != cfg.T2 or cfg.T_loss < 1.0:
        raise ValueError("delta_equivalent needs T1 = T2 and no loss (T_loss = 1)")
    if cfg.r == 0.0:
        return 0.0
    k2 = math.atan(math.sqrt((1.0 - cfg.T1) / cfg.T1)) ** 2
    # atan2(k2 sinh^2 r, s + k2 sinh r cosh r), both arguments divided by
    # sinh r cosh r = -expm1(-4r) e^{2r} / 4, which overflows nothing
    return math.atan2(k2 * math.tanh(cfg.r),
                      k2 - 4.0 * cfg.s * math.exp(-2.0 * cfg.r) / math.expm1(-4.0 * cfg.r))


def effective_squeezing(r: float, T_loss: float) -> float:
    """Squeezing amplitude actually observed after a loss channel of
    transmissivity T_loss:  r' = -1/2 ln[(1 - T_loss) + T_loss e^(-2r)], as
    log1p(T_loss expm1(-2r)) while that argument is at least -1/2."""
    if not 0.0 <= r < np.inf:
        raise ValueError("squeezing amplitude must be finite and nonnegative")
    if not 0.0 < T_loss <= 1.0:
        raise ValueError("loss transmissivity must lie in (0, 1]")
    if T_loss == 1.0:
        return float(r)
    u = T_loss * math.expm1(-2.0 * r)
    if u >= -0.5:
        return -0.5 * math.log1p(u)
    return -0.5 * math.log((1.0 - T_loss) + T_loss * math.exp(-2.0 * r))


def squeezing_db(r: float) -> float:
    """Squeezing amplitude expressed in decibels, 10 log10(e^(2r)) = 20 r / ln 10."""
    return float(20.0 * r / math.log(10.0))
