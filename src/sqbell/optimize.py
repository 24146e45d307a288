"""Fidelity maximization over the ancillary squeezing, and sweep campaigns.

The optimizer is a deterministic coarse grid followed by golden-section
refinement of the bracket around the grid maximum, written once as a
generator per configuration.  The searches of many configurations run in
lockstep, each round of all of them one batched call of the closed-form
kernel on parameter columns (one float row per field, one column per point;
no configuration object per point).  Sweeps scan an axis of `SCHEME_FLAGS`,
evaluate all their rows in one batched call, optionally nesting the
optimizer, and record per-point errors without aborting the campaign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernel
from .conditioning import status_error
from .errors import DegeneratePostselectionError
from .resources import SCHEME_DETECTORS, SCHEME_FLAGS, SWEEP_FLAGS, SchemeConfig

COARSE_POINTS = 41
BRACKET_TOL = 1e-4
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_S_ROW, _R_ROW = kernel.COLUMN_FIELDS.index("s"), kernel.COLUMN_FIELDS.index("r")


@dataclass(frozen=True)
class SweepSpec:
    """One sweep campaign: a base configuration and the axis to scan."""

    base: SchemeConfig
    axis: str  # one of SWEEP_FLAGS
    grid: tuple[float, ...]
    detector: str = "ideal"
    optimize_s_at_each: bool = False

    def __post_init__(self):
        if self.axis not in SWEEP_FLAGS:
            raise ValueError(f"unknown sweep axis {self.axis!r}")
        if self.detector not in SCHEME_DETECTORS.values():
            raise ValueError(f"unknown detector kind {self.detector!r}")
        if self.axis == "s" and self.optimize_s_at_each:
            raise ValueError("a sweep along s cannot also optimize s at each point")
        if self.detector not in SCHEME_FLAGS[self.axis].detectors:
            raise ValueError(f"ideal projectors have no efficiency to sweep along {self.axis}")
        g = tuple(float(v) for v in self.grid)
        if not g:
            raise ValueError("sweep grid is empty")
        if not all(math.isfinite(v) for v in g):
            raise ValueError("sweep grid values must be finite")
        if any(b <= a for a, b in zip(g, g[1:])):
            raise ValueError("sweep grid must be strictly increasing")
        object.__setattr__(self, "grid", g)
        # each SchemeConfig rule is an interval, and each axis sets its fields
        # monotonically, so the endpoints validate every point between them
        self.config_at(g[0])
        self.config_at(g[-1])

    def config_at(self, value: float) -> SchemeConfig:
        row = SCHEME_FLAGS[self.axis]
        return self.base.with_(**dict.fromkeys(row.fields, row.at(value)))

    def columns(self) -> np.ndarray:
        """Parameter columns of every grid point (see
        :func:`sqbell.kernel.columns_of`): the base configuration's, with the
        axis rows set to the floats :meth:`config_at` gives."""
        columns = np.repeat(kernel.columns_of([self.base]), len(self.grid), axis=1)
        row = SCHEME_FLAGS[self.axis]
        columns[[kernel.COLUMN_FIELDS.index(f) for f in row.fields]] = row.at(np.array(self.grid))
        return columns


@dataclass(frozen=True)
class OptResult:
    s_star: float
    f_star: float
    trace: tuple[tuple[float, float], ...]
    bracket: tuple[float, float]
    plateau: bool = False
    multi_peak: bool = False


def optimize_s(cfg: SchemeConfig, detector: str = "ideal") -> OptResult:
    """Maximize the teleportation fidelity over the ancillary squeezing s in
    [0, r]: COARSE_POINTS grid points, then golden section to BRACKET_TOL.

    Raises the error of the first point that is degenerate or unphysical.
    Warns as :func:`sqbell.resources.scheme_state` does."""
    columns = kernel.columns_of([cfg])
    kernel.warn_if_lossy(detector, columns)
    (result,) = _optimize_columns(columns, detector)
    if isinstance(result, Exception):
        raise result
    return result


def _search(r: float):
    """The search of one configuration at squeezing r: yields each array of
    s it needs evaluated, is sent their F, and returns its OptResult."""
    if r == 0.0:  # [0, r] is the one point s = 0
        (f0,) = (yield np.zeros(1)).tolist()
        return OptResult(0.0, f0, ((0.0, f0),), (0.0, 0.0), plateau=True)
    grid = np.linspace(0.0, r, COARSE_POINTS)
    values = yield grid
    trace = list(zip(grid.tolist(), values.tolist()))
    if float(values.max() - values.min()) < 1e-12:
        return OptResult(0.0, float(values[0]), tuple(trace), (0.0, 0.0), plateau=True)
    # unimodality on [0, r] is assumed by the bracketing step, not proven;
    # flag any coarse-grid evidence against it
    k = int(np.argmax(values))
    peaks = sum(1 for j in range(1, COARSE_POINTS - 1)
                if values[j - 1] < values[j] > values[j + 1])
    multi_peak = peaks > 1 or (peaks == 1 and k in (0, COARSE_POINTS - 1))
    a, b = float(grid[max(0, k - 1)]), float(grid[min(COARSE_POINTS - 1, k + 1)])
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = (yield np.array([c, d])).tolist()
    trace += [(c, fc), (d, fd)]
    while b - a > BRACKET_TOL:
        if fc > fd:  # the maximum lies in [a, d]
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            (fc,) = (yield np.array([c])).tolist()
            trace.append((c, fc))
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            (fd,) = (yield np.array([d])).tolist()
            trace.append((d, fd))
    s_star = 0.5 * (a + b)
    (f_star,) = (yield np.array([s_star])).tolist()
    trace.append((s_star, f_star))
    best_s, best_f = max(trace, key=lambda t: t[1])
    if best_f > f_star:
        s_star, f_star = best_s, best_f
    return OptResult(s_star, f_star, tuple(trace), (a, b), multi_peak=multi_peak)


def _optimize_columns(columns, detector: str) -> list[OptResult | Exception]:
    """:func:`optimize_s` of each point of the parameter columns `columns`,
    the searches run in lockstep; does not warn.

    Each round is one kernel call on the points every unfinished search asks
    for next: the coarse grids, then the opening points of the brackets,
    then one golden-section step or final midpoint per search.  The kernel
    is batch-invariant bit for bit, so each search visits the same points,
    and returns the same result, as on its own.  A point whose search meets a
    degenerate or unphysical point gets that point's error in place of its
    result; the other searches go on.
    """
    results: list[OptResult | Exception | None] = [None] * columns.shape[1]
    searches = [_search(r) for r in columns[_R_ROW].tolist()]
    asks = {i: next(search) for i, search in enumerate(searches)}
    while asks:
        ids = list(asks)
        sizes = [len(asks[i]) for i in ids]
        points = columns[:, np.repeat(ids, sizes)]
        points[_S_ROW] = np.concatenate([asks[i] for i in ids])
        P, F, status = kernel.columns_pf(points, detector)
        edges = np.cumsum([0] + sizes)
        failing = np.add.reduceat(status != kernel.OK, edges[:-1])
        for i, lo, hi, fails in zip(ids, edges[:-1].tolist(), edges[1:].tolist(),
                                    failing.tolist()):
            if fails:
                # a search ends at its first failing point, in the order it asked
                result = next(e for e in map(status_error, P[lo:hi], status[lo:hi])
                              if e is not None)
            else:
                try:
                    asks[i] = searches[i].send(F[lo:hi])
                    continue
                except StopIteration as stop:
                    result = stop.value
            results[i] = result
            del asks[i]
    return results


def optimize_delta(r: float) -> OptResult:
    """Maximize the fidelity of the analytic squeezed Bell family over its angle.

    The fidelity of S(r)[cos d|0,0> + sin d|1,1>] is A cos^2 d + B sin^2 d
    + 2C sin d cos d (:func:`sqbell.kernel.squeezed_bell_fidelity`), where
    A - B = 2x / (1 + x)^3 and C = x / (1 + x)^2 > 0 with x = e^{-2r}.  Its
    maximum lies at tan 2d* = 2C / (A - B) = 1 + e^{-2r}, so d* falls from
    atan(2) / 2 = 0.553574 at r = 0 toward pi/8.  The trace is (d*, F*).
    """
    if not 0.0 <= r < np.inf:
        raise ValueError("squeezing amplitude must be finite and nonnegative")
    d_star = 0.5 * math.atan(1.0 + math.exp(-2.0 * r))
    f_star = float(kernel.squeezed_bell_fidelity(r, d_star))
    return OptResult(d_star, f_star, ((d_star, f_star),), (d_star, d_star))


@dataclass
class SweepRow:
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

    The points are the parameter columns of :meth:`SweepSpec.columns`; one
    batched kernel call evaluates all of them (after the lockstep searches of
    :func:`_optimize_columns` over all of them when `optimize_s_at_each`, at
    the s* of each point it optimized); a point that fails records its
    error in its own row.  Warns as :func:`sqbell.resources.scheme_state` does.
    """
    rows = [SweepRow(value=v) for v in spec.grid]
    columns = spec.columns()
    kernel.warn_if_lossy(spec.detector, columns)
    todo = rows
    if spec.optimize_s_at_each:
        for row, opt in zip(rows, _optimize_columns(columns, spec.detector)):
            if isinstance(opt, Exception):  # recorded in-row, sweep continues
                row.error = _describe(opt)
            else:
                row.s_star = opt.s_star
        ok = [i for i, row in enumerate(rows) if row.error is None]
        todo = [rows[i] for i in ok]
        columns = columns[:, ok]
        columns[_S_ROW] = [row.s_star for row in todo]
    P, F, status = kernel.columns_pf(columns, spec.detector)
    for row, p, f, st in zip(todo, P.tolist(), F.tolist(), status.tolist()):
        if st != kernel.OK:
            row.error = _describe(status_error(p, st))
        else:
            row.fidelity, row.success_prob = f, p
    return rows
