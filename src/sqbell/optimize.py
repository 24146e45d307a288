"""Fidelity maximization over the ancillary squeezing, and sweep campaigns.

The optimizer is a deterministic coarse grid followed by golden-section
refinement of the bracket around the grid maximum, written once as a
generator per configuration.  The searches of many configurations run in
lockstep, each round of all of them one batched call of the closed-form
kernel on parameter columns (one float row per field, one column per point;
no configuration object per point).  Past the coarse grid a search
speculates one step ahead, asking with each point its path needs for both
points its next step might need, so each round settles two golden-section
steps and the path stays that of one point at a time.  Sweeps scan an axis
of `SCHEME_FLAGS`, optionally nesting the optimizer, and record per-point
errors without aborting the campaign; one `sweep` call evaluates the points
of several specs together, in one batched call or in the rounds of their
searches.
"""

from __future__ import annotations

import itertools
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
# the parameter column rows each sweep axis sets
_AXIS_ROWS = {flag: [kernel.COLUMN_FIELDS.index(f) for f in SCHEME_FLAGS[flag].fields]
              for flag in SWEEP_FLAGS}


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
        columns = np.empty((len(kernel.COLUMN_FIELDS), len(self.grid)))
        columns[:] = kernel.columns_of([self.base])
        columns[_AXIS_ROWS[self.axis]] = SCHEME_FLAGS[self.axis].at(np.array(self.grid))
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
    (out,) = _lockstep(columns, detector, [_search(cfg.r)])
    if isinstance(out, Exception):
        raise out
    return out[2]


def _inner(a: float, b: float) -> tuple[float, float]:
    """The golden-section points c < d of the bracket [a, b]."""
    return b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)


def _ahead(a: float, b: float, c: float, d: float) -> list[float]:
    """The candidates for the point a search takes after its bracket [a, b]
    with inner points c < d: the new point of the golden step for each
    outcome of comparing F at c with F at d, or the midpoint once the
    bracket is closed."""
    if b - a > BRACKET_TOL:
        return [_inner(a, d)[0], _inner(c, b)[1]]
    return [0.5 * (a + b)]


def _search(r: float):
    """The search of one configuration at squeezing r: yields each array of
    s it needs evaluated, is sent the lists of their P, F and status, and
    returns (P, F, OptResult), the P and F at its s* and its result, or the
    error of the first failing point on its path, in path order.

    Past the coarse grid the search speculates one step ahead: each array
    it yields holds the points its path takes next (the opening pair, or
    the new point of a golden step) and both candidates for the point after
    them (:func:`_ahead`), so each round settles two steps.  It keeps the
    candidate its comparison takes and ignores the other, failing or not.
    Every point is the sequential search's own expression, so its path, its
    trace (which holds the path alone) and its result are that search's,
    bit for bit."""
    if r == 0.0:  # [0, r] is the one point s = 0
        (p0,), (f0,), (st0,) = yield np.zeros(1)
        if st0:
            return status_error(p0, st0)
        return p0, f0, OptResult(0.0, f0, ((0.0, f0),), (0.0, 0.0), plateau=True)
    grid = np.linspace(0.0, r, COARSE_POINTS)
    probs, values, status = yield grid  # probs: the P of each point of the trace
    if any(status):
        return next(status_error(p, st) for p, st in zip(probs, status) if st)
    trace = list(zip(grid.tolist(), values))
    top = max(values)
    if top - min(values) < 1e-12:
        return probs[0], values[0], OptResult(0.0, values[0], tuple(trace), (0.0, 0.0),
                                              plateau=True)
    # unimodality on [0, r] is assumed by the bracketing step, not proven;
    # flag any coarse-grid evidence against it
    k = values.index(top)
    peaks = sum(1 for j in range(1, COARSE_POINTS - 1)
                if values[j - 1] < values[j] > values[j + 1])
    multi_peak = peaks > 1 or (peaks == 1 and k in (0, COARSE_POINTS - 1))
    a, b = float(grid[max(0, k - 1)]), float(grid[min(COARSE_POINTS - 1, k + 1)])
    c, d = _inner(a, b)
    # the points the path takes next, with the candidates for the point after
    # them; known: s -> (P, F, status) of every point asked for
    path, ahead, known, s_star = [c, d], _ahead(a, b, c, d), {}, None
    while True:
        if path[-1] not in known:  # else a candidate of the last round
            P, F, status = yield np.array(path + ahead)
            known.update(zip(path + ahead, zip(P, F, status)))
        for s in path:
            p, f, st = known[s]
            if st:
                return status_error(p, st)
            trace.append((s, f))
            probs.append(p)
        if s_star is not None:
            break
        if b - a > BRACKET_TOL:
            if known[c][1] > known[d][1]:  # the maximum lies in [a, d]
                b, d = d, c
                c = new = _inner(a, b)[0]
            else:
                a, c = c, d
                d = new = _inner(a, b)[1]
            path, ahead = [new], _ahead(a, b, c, d)
        else:
            s_star = 0.5 * (a + b)
            path, ahead = [s_star], []
    f_star, p_star = trace[-1][1], probs[-1]
    (best_s, best_f), best_p = max(zip(trace, probs), key=lambda t: t[0][1])
    if best_f > f_star:
        s_star, f_star, p_star = best_s, best_f, best_p
    return p_star, f_star, OptResult(s_star, f_star, tuple(trace), (a, b),
                                     multi_peak=multi_peak)


def _point(s: float):
    """The one point s: yields it, is sent the lists of its P, F and status,
    and returns (P, F, None), as a search with no result, or its error."""
    (p,), (f,), (st,) = yield np.array([s])
    return status_error(p, st) if st else (p, f, None)


def _lockstep(columns, detector: str, searches) -> list:
    """Run `searches`, one generator per point of the parameter columns
    `columns` (each a :func:`_search`, or a :func:`_point` at the point's
    own s), in lockstep; returns what each returns, (P, F, OptResult | None)
    or the error of the point it failed at.  Does not warn.

    Each round is one kernel call on the points every unfinished generator
    asks for next, at its column's parameters with the s it asks for: the
    coarse grids and plain points, then the opening pairs of the brackets
    with their candidates, then two golden-section steps per search.  Each
    generator is sent the lists of its points' P, F and status, and decides
    from them how it goes on, or which error it ends with; the other
    generators go on.  The kernel is batch-invariant bit for bit, so each
    search visits the same points, and returns the same result, as on its
    own.
    """
    searches = list(searches)
    results: list = [None] * len(searches)
    asks = {i: next(search) for i, search in enumerate(searches)}
    while asks:
        ids = list(asks)
        sizes = [len(asks[i]) for i in ids]
        points = columns[:, np.repeat(ids, sizes)]
        points[_S_ROW] = np.concatenate([asks[i] for i in ids])
        answers = [v.tolist() for v in kernel.columns_pf(points, detector)]
        edges = [0, *itertools.accumulate(sizes)]
        for i, lo, hi in zip(ids, edges, edges[1:]):
            try:
                asks[i] = searches[i].send([v[lo:hi] for v in answers])
            except StopIteration as stop:
                results[i] = stop.value
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
    d_star = 0.5 * math.atan(1.0 + math.exp(-2.0 * float(r)))
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


def sweep(*specs: SweepSpec) -> list[SweepRow]:
    """Evaluate every grid point of each spec; returns the rows of every
    spec, in order, each spec's in its grid order.

    The specs must share one detector kind, else ValueError.  The points are
    the parameter columns of :meth:`SweepSpec.columns`.  Where no spec
    optimizes, one batched kernel call evaluates all of them.  Otherwise the
    searches over s of the points of the specs that do (`optimize_s_at_each`)
    run in :func:`_lockstep`, the other specs' points joining their first
    round.  Each point's (P, F, OptResult | None) makes its row, an optimized
    row taking the P and F its search found at its s*.  A point that fails
    records its error in its own row.  Warns as
    :func:`sqbell.resources.scheme_state` does.
    """
    detectors = {spec.detector for spec in specs}
    if len(detectors) != 1:
        raise ValueError("a sweep takes one or more specs of one detector kind")
    (detector,) = detectors
    columns = np.concatenate([spec.columns() for spec in specs], axis=1)
    kernel.warn_if_lossy(detector, columns)
    values = [v for spec in specs for v in spec.grid]
    if not any(spec.optimize_s_at_each for spec in specs):
        P, F, status = kernel.columns_pf(columns, detector)
        return [SweepRow(v, f, p) if st == kernel.OK
                else SweepRow(v, error=_describe(status_error(p, st)))
                for v, p, f, st in zip(values, P.tolist(), F.tolist(), status.tolist())]
    optimizing = [spec.optimize_s_at_each for spec in specs for _ in spec.grid]
    searches = [_search(r) if opt else _point(s) for opt, r, s in
                zip(optimizing, columns[_R_ROW].tolist(), columns[_S_ROW].tolist())]
    # an error is recorded in its row, and the sweep continues
    return [SweepRow(v, error=_describe(out)) if isinstance(out, Exception)
            else SweepRow(v, out[1], out[0], out[2].s_star if out[2] else None)
            for v, out in zip(values, _lockstep(columns, detector, searches))]
