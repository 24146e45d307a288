"""Fidelity maximization over the ancillary squeezing, and sweep campaigns.

The optimizer is a deterministic coarse grid, evaluated in one batched call
of the closed-form kernel, followed by golden-section refinement of the
bracket around the grid maximum.  Sweeps evaluate all their rows in one
batched call, optionally nesting the optimizer, and record per-point errors
without aborting the campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import kernel
from .conditioning import status_error
from .errors import DegeneratePostselectionError
from .resources import SchemeConfig, scheme_fidelities, scheme_pf

COARSE_POINTS = 41
BRACKET_TOL = 1e-4
_INV_PHI = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SweepSpec:
    """One sweep campaign: a base configuration and the axis to scan."""

    base: SchemeConfig
    axis: str  # 's' | 'r' | 'loss' | 'T' | 'eta'
    grid: tuple[float, ...]
    detector: str = "ideal"
    optimize_s_at_each: bool = False

    def __post_init__(self):
        if self.axis not in ("s", "r", "loss", "T", "eta"):
            raise ValueError(f"unknown sweep axis {self.axis!r}")
        g = tuple(float(v) for v in self.grid)
        if not g:
            raise ValueError("sweep grid is empty")
        if any(b <= a for a, b in zip(g, g[1:])):
            raise ValueError("sweep grid must be strictly increasing")
        object.__setattr__(self, "grid", g)
        for v in g:
            self.config_at(v)  # validates range via SchemeConfig

    def config_at(self, value: float) -> SchemeConfig:
        if self.axis == "s":
            return self.base.with_(s=value)
        if self.axis == "r":
            return self.base.with_(r=value)
        if self.axis == "loss":
            return self.base.with_(T_loss=1.0 - value)
        if self.axis == "T":
            return self.base.with_(T1=value, T2=value)
        return self.base.with_(eta3=value, eta4=value)


@dataclass(frozen=True)
class OptResult:
    s_star: float
    f_star: float
    trace: tuple[tuple[float, float], ...]
    bracket: tuple[float, float]
    plateau: bool = False
    multi_peak: bool = False


def golden_section_max(f: Callable[[float], float], a: float, b: float,
                       tol: float) -> tuple[float, float, tuple[float, float]]:
    """Deterministic golden-section maximization on [a, b] to bracket width tol.

    Returns (x_star, f(x_star), final bracket).
    """
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    x_star = 0.5 * (a + b)
    return x_star, f(x_star), (a, b)


def optimize_s(cfg: SchemeConfig, detector: str = "ideal") -> OptResult:
    """Maximize the teleportation fidelity over the ancillary squeezing s in
    [0, r]: COARSE_POINTS grid points, then golden section to BRACKET_TOL."""
    if cfg.r == 0.0:
        f0 = scheme_fidelities([cfg.with_(s=0.0)], detector)[0]
        return OptResult(0.0, f0, ((0.0, f0),), (0.0, 0.0), plateau=True)

    grid = np.linspace(0.0, cfg.r, COARSE_POINTS)
    values = np.array(scheme_fidelities(
        [cfg.with_(s=float(s)) for s in grid], detector))
    trace = [(float(s), float(f)) for s, f in zip(grid, values)]

    def ev(s: float) -> float:
        f = scheme_fidelities([cfg.with_(s=float(s))], detector)[0]
        trace.append((float(s), f))
        return f

    i_best = int(np.argmax(values))
    spread = float(values.max() - values.min())
    if spread < 1e-12:
        return OptResult(float(grid[0]), float(values[0]), tuple(trace),
                         (float(grid[0]), float(grid[0])), plateau=True)

    # unimodality on [0, r] is assumed by the bracketing step, not proven;
    # flag any coarse-grid evidence against it
    peaks = sum(1 for k in range(1, COARSE_POINTS - 1)
                if values[k] > values[k - 1] and values[k] > values[k + 1])
    edge_max = i_best in (0, COARSE_POINTS - 1)
    multi_peak = peaks > 1 or (peaks == 1 and edge_max)

    lo = float(grid[max(0, i_best - 1)])
    hi = float(grid[min(COARSE_POINTS - 1, i_best + 1)])
    s_star, f_star, bracket = golden_section_max(ev, lo, hi, BRACKET_TOL)
    best_s, best_f = max(trace, key=lambda t: t[1])
    if best_f > f_star:
        s_star, f_star = best_s, best_f
    return OptResult(float(s_star), float(f_star), tuple(trace), bracket,
                     plateau=False, multi_peak=multi_peak)


def optimize_delta(r: float) -> OptResult:
    """Maximize the fidelity of the analytic squeezed Bell family over its angle.

    The fidelity of S(r)[cos d|0,0> + sin d|1,1>] is the quadratic form
    A cos^2 d + B sin^2 d + 2 C sin d cos d of
    :func:`sqbell.kernel.squeezed_bell_fidelity`, with A and B its values at
    d = 0 and pi/2 and C = x / (1 + x)^2 > 0 (x = e^{-2r}); the trace holds
    its values at d = 0, pi/2 and pi/4.  The optimum is the top eigenpair of
    [[A, C], [C, B]]: d* = atan2(2C, A - B) / 2, which lies in (0, pi/2)
    because C > 0, and F* = (A + B) / 2 + hypot((A - B) / 2, C).
    """
    angles = (0.0, np.pi / 2.0, np.pi / 4.0)
    trace = tuple((d, float(f)) for d, f in
                  zip(angles, kernel.squeezed_bell_fidelity(r, angles)))
    (_, A), (_, B), (_, F45) = trace
    C = F45 - 0.5 * (A + B)
    d_star = float(0.5 * np.arctan2(2.0 * C, A - B))
    f_star = float(0.5 * (A + B) + np.hypot(0.5 * (A - B), C))
    return OptResult(d_star, f_star, trace, (d_star, d_star))


@dataclass
class SweepRow:
    axis: str
    value: float
    fidelity: Optional[float] = None
    success_prob: Optional[float] = None
    s_star: Optional[float] = None
    error: Optional[str] = None


def _describe(exc: Exception) -> str:
    if isinstance(exc, DegeneratePostselectionError):
        return f"degenerate-postselection: {exc}"
    return f"{type(exc).__name__}: {exc}"


def sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate every grid point of the spec; rows keep their grid order.

    All points go through the closed-form kernel in one batched call (after
    the per-point optimizer when `optimize_s_at_each`); a point that fails
    records its error in its own row.
    """
    rows = [SweepRow(axis=spec.axis, value=v) for v in spec.grid]
    todo: list[tuple[SweepRow, SchemeConfig]] = []
    for row in rows:
        cfg = spec.config_at(row.value)
        if spec.optimize_s_at_each:
            try:
                opt = optimize_s(cfg, spec.detector)
            except Exception as exc:  # recorded in-row, sweep continues
                row.error = _describe(exc)
                continue
            cfg = cfg.with_(s=opt.s_star)
            row.s_star = opt.s_star
        todo.append((row, cfg))
    if not todo:
        return rows
    try:
        P, F, status = scheme_pf([cfg for _, cfg in todo], spec.detector)
    except Exception as exc:  # recorded in every row, sweep returns
        for row, _ in todo:
            row.error = _describe(exc)
        return rows
    for (row, _), p, f, st in zip(todo, P, F, status):
        exc = status_error(p, st)
        if exc is not None:
            row.error = _describe(exc)
        else:
            row.fidelity, row.success_prob = float(f), float(p)
    return rows
