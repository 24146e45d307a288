"""Fidelity maximization over the ancillary squeezing, and sweep campaigns.

The optimizer is a deterministic coarse grid followed by golden-section
refinement of the bracket around the grid maximum.  The searches of many
configurations run in lockstep, each stage of all of them one batched call
of the closed-form kernel.  Sweeps evaluate all their rows in one batched
call, optionally nesting the optimizer, and record per-point errors without
aborting the campaign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernel
from .conditioning import status_error
from .errors import DegeneratePostselectionError
from .resources import SCHEME_DETECTORS, SchemeConfig, scheme_pf

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
        if self.detector not in SCHEME_DETECTORS.values():
            raise ValueError(f"unknown detector kind {self.detector!r}")
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


def _s_evaluator(cfgs, detector: str):
    """The function (idx, s) -> (F, errors) of the configurations cfgs[idx]
    with s replaced: one kernel call over the whole batch of points, whose
    exponents are built from the configurations' field arrays.  `errors`
    holds the :func:`status_error` of each point, or None where it is OK."""
    fields = np.array([[getattr(c, f) for f in kernel.SOURCE_FIELDS] for c in cfgs],
                      dtype=float)
    eta3 = np.array([c.eta3 for c in cfgs], dtype=float)
    eta4 = np.array([c.eta4 for c in cfgs], dtype=float)
    s_col = kernel.SOURCE_FIELDS.index("s")

    def evaluate(idx, s):
        columns = fields[idx].T.copy()
        columns[s_col] = s
        P, F, status = kernel.scheme_pf(kernel.source_exponents(*columns), detector,
                                        eta3[idx], eta4[idx])
        return F, [status_error(p, st) for p, st in zip(P, status)]

    return evaluate


def optimize_s(cfg: SchemeConfig, detector: str = "ideal") -> OptResult:
    """Maximize the teleportation fidelity over the ancillary squeezing s in
    [0, r]: COARSE_POINTS grid points, then golden section to BRACKET_TOL.

    Raises the error of the first point that is degenerate or unphysical."""
    (result,) = optimize_s_many([cfg], detector)
    if isinstance(result, Exception):
        raise result
    return result


def optimize_s_many(cfgs, detector: str = "ideal") -> list[OptResult | Exception]:
    """:func:`optimize_s` of each configuration, the searches run in lockstep.

    One kernel call evaluates the coarse grids of all configurations, one
    the opening points of every golden-section bracket, one each later step
    of the brackets still wider than BRACKET_TOL, and one the final
    midpoints.  The kernel is batch-invariant bit for bit, so each search
    visits the same points, and returns the same result, as on its own.  A
    configuration whose point is degenerate or unphysical gets that point's
    error in place of its result; the other searches go on.  Warns as
    :func:`sqbell.resources.scheme_pf` does.
    """
    cfgs = list(cfgs)
    if not cfgs:
        return []
    kernel.warn_if_lossy(detector, cfgs)
    evaluate = _s_evaluator(cfgs, detector)
    results: list[OptResult | Exception | None] = [None] * len(cfgs)

    # one point at s = 0 where r = 0, else the coarse grid
    grids = [np.linspace(0.0, c.r, COARSE_POINTS) if c.r != 0.0 else np.zeros(1)
             for c in cfgs]
    sizes = [len(g) for g in grids]
    F, errors = evaluate(np.repeat(np.arange(len(cfgs)), sizes), np.concatenate(grids))
    traces: list[list[tuple[float, float]]] = []
    multi_peak: dict[int, bool] = {}
    search = []  # (index, lo, hi) of each bracket to refine
    for i, (grid, start) in enumerate(zip(grids, np.cumsum([0] + sizes[:-1]))):
        values = F[start:start + len(grid)]
        trace = [(float(s), float(f)) for s, f in zip(grid, values)]
        traces.append(trace)
        error = next((e for e in errors[start:start + len(grid)] if e is not None),
                     None)
        if error is not None:
            results[i] = error
            continue
        if cfgs[i].r == 0.0:
            results[i] = OptResult(0.0, trace[0][1], tuple(trace), (0.0, 0.0),
                                   plateau=True)
            continue
        i_best = int(np.argmax(values))
        if float(values.max() - values.min()) < 1e-12:
            results[i] = OptResult(float(grid[0]), float(values[0]), tuple(trace),
                                   (float(grid[0]), float(grid[0])), plateau=True)
            continue
        # unimodality on [0, r] is assumed by the bracketing step, not proven;
        # flag any coarse-grid evidence against it
        peaks = sum(1 for k in range(1, COARSE_POINTS - 1)
                    if values[k] > values[k - 1] and values[k] > values[k + 1])
        edge_max = i_best in (0, COARSE_POINTS - 1)
        multi_peak[i] = peaks > 1 or (peaks == 1 and edge_max)
        search.append((i, float(grid[max(0, i_best - 1)]),
                       float(grid[min(COARSE_POINTS - 1, i_best + 1)])))
    if not search:
        return results

    def step(ids, points):
        """Evaluate points of the searches ids and trace them; a search's
        first failing point ends it, with that point's error."""
        f, errs = evaluate(ids, points)
        for i, x, fx, e in zip(ids.tolist(), points, f, errs):
            traces[i].append((float(x), float(fx)))
            if e is not None and results[i] is None:
                results[i] = e
        return f, np.array([e is None for e in errs], dtype=bool)

    ids = np.array([i for i, _, _ in search])
    a = np.array([lo for _, lo, _ in search])
    b = np.array([hi for _, _, hi in search])
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    # every c comes before every d, so an opening point c's error wins
    f, ok = step(np.concatenate([ids, ids]), np.concatenate([c, d]))
    fc, fd = f[:len(ids)], f[len(ids):]
    keep = ok[:len(ids)] & ok[len(ids):]
    brackets: dict[int, tuple[float, float]] = {}
    while True:
        ids, a, b, c, d, fc, fd = (x[keep] for x in (ids, a, b, c, d, fc, fd))
        done = (b - a) <= BRACKET_TOL
        brackets.update(zip(ids[done].tolist(), zip(a[done].tolist(),
                                                    b[done].tolist())))
        ids, a, b, c, d, fc, fd = (x[~done] for x in (ids, a, b, c, d, fc, fd))
        if not len(ids):
            break
        left = fc > fd  # the maximum lies in [a, d]
        a, b = np.where(left, a, c), np.where(left, d, b)
        x = np.where(left, b - _INV_PHI * (b - a), a + _INV_PHI * (b - a))
        fx, keep = step(ids, x)
        c, d = np.where(left, x, d), np.where(left, c, x)
        fc, fd = np.where(left, fx, fd), np.where(left, fc, fx)

    if not brackets:
        return results
    ids = np.array(sorted(brackets))
    mid = [0.5 * (brackets[i][0] + brackets[i][1]) for i in ids.tolist()]
    f_mid, ok = step(ids, np.array(mid))
    for i, s_star, f_star, good in zip(ids.tolist(), mid, f_mid, ok):
        if not good:
            continue
        best_s, best_f = max(traces[i], key=lambda t: t[1])
        if best_f > f_star:
            s_star, f_star = best_s, best_f
        results[i] = OptResult(float(s_star), float(f_star), tuple(traces[i]),
                               brackets[i], plateau=False, multi_peak=multi_peak[i])
    return results


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
    if not 0.0 <= r < np.inf:
        raise ValueError("squeezing amplitude must be finite and nonnegative")
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
    :func:`optimize_s_many` over all points when `optimize_s_at_each`); a
    point that fails records its error in its own row.
    """
    rows = [SweepRow(axis=spec.axis, value=v) for v in spec.grid]
    cfgs = [spec.config_at(row.value) for row in rows]
    todo = list(zip(rows, cfgs))
    if spec.optimize_s_at_each:
        try:
            opts = optimize_s_many(cfgs, spec.detector)
        except Exception as exc:  # recorded in every row, sweep returns
            for row in rows:
                row.error = _describe(exc)
            return rows
        todo = []
        for row, cfg, opt in zip(rows, cfgs, opts):
            if isinstance(opt, Exception):  # recorded in-row, sweep continues
                row.error = _describe(opt)
            else:
                row.s_star = opt.s_star
                todo.append((row, cfg.with_(s=opt.s_star)))
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
