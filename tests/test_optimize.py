"""Tests for the fidelity optimizer and sweep campaigns."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from test_kernel import CONFIGS

from sqbell import kernel
from sqbell import optimize as op
from sqbell import resources as rs
from sqbell import teleport as tp
from sqbell.conditioning import status_error
from sqbell.errors import DegeneratePostselectionError
from sqbell.kernel import LossyProjectorWarning


def test_optimize_anchor_r16():
    res = op.optimize_s(rs.SchemeConfig(r=1.6), "ideal")
    assert res.s_star == pytest.approx(0.056, abs=0.005)
    assert res.f_star == pytest.approx(0.974, abs=0.002)
    assert not res.plateau


def test_optimize_small_r_photon_subtracted_regime():
    res = op.optimize_s(rs.SchemeConfig(r=0.6), "ideal")
    assert res.s_star == pytest.approx(0.00057, abs=5e-4)


def test_optimal_ancillary_squeezing_stays_small_at_low_r():
    for r in (0.6, 0.8, 1.0):
        res = op.optimize_s(rs.SchemeConfig(r=r), "ideal")
        assert res.s_star <= 0.02


def test_optimum_beats_both_endpoints():
    for detector, cfg in (("ideal", rs.SchemeConfig(r=1.2)),
                          ("on-off", rs.SchemeConfig(r=1.2, T_loss=0.9))):
        res = op.optimize_s(cfg, detector)
        f0 = tp.fidelity_closed_form(rs.scheme_state(cfg.with_(s=0.0), detector))
        fr = tp.fidelity_closed_form(rs.scheme_state(cfg.with_(s=cfg.r), detector))
        assert res.f_star >= max(f0, fr) - 1e-9


def test_grid_refinement_invariance(monkeypatch):
    cfg = rs.SchemeConfig(r=1.4)
    a = op.optimize_s(cfg, "ideal")
    monkeypatch.setattr(op, "COARSE_POINTS", 81)
    b = op.optimize_s(cfg, "ideal")
    assert abs(a.s_star - b.s_star) < op.BRACKET_TOL


def test_optimizer_is_deterministic():
    cfg = rs.SchemeConfig(r=1.1, T_loss=0.92)
    a = op.optimize_s(cfg, "on-off")
    b = op.optimize_s(cfg, "on-off")
    assert a.trace == b.trace
    assert a.s_star == b.s_star and a.f_star == b.f_star


def test_optimize_degenerate_r_zero():
    # nothing ever reaches the detectors, so conditioning cannot succeed
    from sqbell.errors import DegeneratePostselectionError
    with pytest.raises(DegeneratePostselectionError):
        op.optimize_s(rs.SchemeConfig(r=0.0, s=0.0, T1=0.9, T2=0.9), "on-off")


def test_bracket_width_reported():
    res = op.optimize_s(rs.SchemeConfig(r=1.0), "ideal")
    lo, hi = res.bracket
    assert hi - lo <= op.BRACKET_TOL
    assert lo <= res.s_star <= hi


# every outcome of a search: thermal light at r = 0 (a one-point plateau);
# vacuum ancillas (degenerate at the one point, or on the grid at s = 0);
# decoupled signal modes behind thermal ancillas (a plateau at r > 0); a
# lossy source; a squeezing too large to stay physical for ideal projectors
MIXED = (rs.SchemeConfig(r=0.0, T_loss=0.8, n_thermal=0.5),
         rs.SchemeConfig(r=0.0, T1=0.9, T2=0.9),
         rs.SchemeConfig(r=1.2, T1=1.0, T2=1.0),
         rs.SchemeConfig(r=1.0, T1=1.0, T2=1.0, T_loss=0.8, n_thermal=0.5),
         rs.SchemeConfig(r=1.2, T_loss=0.9),
         rs.SchemeConfig(r=1.6),
         rs.SchemeConfig(r=1.6, T_loss=0.85, eta3=0.3, eta4=0.2),
         rs.SchemeConfig(r=1e-9, T_loss=0.7, n_thermal=0.3),
         rs.SchemeConfig(r=30.0))


def _outcome(cfg, detector, optimize=op.optimize_s):
    try:
        return optimize(cfg, detector)
    except Exception as exc:
        return type(exc), str(exc)


def _fidelities(cfgs, detector):
    """kernel.columns_pf's F of each configuration; raises the
    status_error of the first configuration that is not OK."""
    P, F, status = kernel.columns_pf(kernel.columns_of(cfgs), detector)
    for p, st in zip(P, status):
        error = status_error(p, st)
        if error is not None:
            raise error
    return [float(f) for f in F]


def scalar_optimize_s(cfg, detector):
    """The optimizer one point per kernel call: the coarse grid, then a
    golden-section loop on the bracket around its maximum."""
    def f(s):
        return _fidelities([cfg.with_(s=float(s))], detector)[0]

    if cfg.r == 0.0:
        f0 = f(0.0)
        return op.OptResult(0.0, f0, ((0.0, f0),), (0.0, 0.0), plateau=True)
    grid = np.linspace(0.0, cfg.r, op.COARSE_POINTS)
    values = np.array(_fidelities([cfg.with_(s=float(s)) for s in grid], detector))
    trace = [(float(s), float(v)) for s, v in zip(grid, values)]
    if values.max() - values.min() < 1e-12:
        return op.OptResult(0.0, float(values[0]), tuple(trace), (0.0, 0.0),
                            plateau=True)
    k = int(np.argmax(values))
    peaks = sum(1 for j in range(1, op.COARSE_POINTS - 1)
                if values[j - 1] < values[j] > values[j + 1])
    multi_peak = peaks > 1 or (peaks == 1 and k in (0, op.COARSE_POINTS - 1))
    a, b = float(grid[max(0, k - 1)]), float(grid[min(op.COARSE_POINTS - 1, k + 1)])
    c, d = b - op._INV_PHI * (b - a), a + op._INV_PHI * (b - a)
    fc = f(c)
    trace.append((float(c), fc))
    fd = f(d)
    trace.append((float(d), fd))
    while b - a > op.BRACKET_TOL:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - op._INV_PHI * (b - a)
            fc = f(c)
            trace.append((float(c), fc))
        else:
            a, c, fc = c, d, fd
            d = a + op._INV_PHI * (b - a)
            fd = f(d)
            trace.append((float(d), fd))
    s_star = 0.5 * (a + b)
    f_star = f(s_star)
    trace.append((float(s_star), f_star))
    best_s, best_f = max(trace, key=lambda t: t[1])
    if best_f > f_star:
        s_star, f_star = best_s, best_f
    return op.OptResult(float(s_star), float(f_star), tuple(trace),
                        (float(a), float(b)), multi_peak=multi_peak)


def lockstep_searches(cfgs, detector):
    """The OptResult, or the error, of the search of each configuration,
    all run in one optimize._lockstep; each search's F is its f_star."""
    outs = op._lockstep(kernel.columns_of(cfgs), detector, [op._search(c.r) for c in cfgs])
    assert all(out[1] == out[2].f_star for out in outs if not isinstance(out, Exception))
    return [out if isinstance(out, Exception) else out[2] for out in outs]


@pytest.mark.parametrize("detector", ["ideal", "on-off"])
def test_lockstep_searches_equal_optimize_s_and_the_scalar_loop(detector):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LossyProjectorWarning)
        many = lockstep_searches(MIXED, detector)
        single = [_outcome(cfg, detector) for cfg in MIXED]
        scalar = [_outcome(cfg, detector, scalar_optimize_s) for cfg in MIXED]
    assert [(type(m), str(m)) if isinstance(m, Exception) else m
            for m in many] == single == scalar
    kinds = {type(m).__name__ if isinstance(m, Exception) else m.plateau
             for m in many}
    assert {True, False, "DegeneratePostselectionError"} <= kinds
    assert lockstep_searches([], detector) == []


def test_search_with_two_failing_points_in_one_round_ends_at_the_first(monkeypatch):
    # the middle search's coarse grid holds a degenerate point and, after
    # it, an unphysical one: the search ends with the error of the one it
    # asked for first, and the searches beside it go on to their optima
    cfgs = [rs.SchemeConfig(r=r) for r in (1.0, 1.2, 1.4)]
    expected = [op.optimize_s(cfg) for cfg in cfgs]
    grid = np.linspace(0.0, 1.2, op.COARSE_POINTS)
    failing = {grid[5]: kernel.DEGENERATE, grid[20]: kernel.UNPHYSICAL}
    columns_pf = kernel.columns_pf
    first_p = columns_pf(kernel.columns_of([cfgs[1].with_(s=grid[5])]), "ideal")[0][0]

    def failing_pf(columns, detector):
        P, F, status = columns_pf(columns, detector)
        for s, st in failing.items():
            status[(columns[op._R_ROW] == 1.2) & (columns[op._S_ROW] == s)] = st
        return P, F, status

    monkeypatch.setattr(kernel, "columns_pf", failing_pf)
    first, middle, last = lockstep_searches(cfgs, "ideal")
    assert (first, last) == (expected[0], expected[2])
    assert type(middle) is DegeneratePostselectionError
    assert str(middle) == str(status_error(first_p, kernel.DEGENERATE))


def _spying(monkeypatch, mark=None):
    """Patch kernel.columns_pf to record the (r, s) of every point of each
    call, in a list it returns, and to give the status `mark[(r, s)]` to
    each point listed there."""
    columns_pf, calls, mark = kernel.columns_pf, [], mark or {}

    def spy(columns, detector):
        P, F, status = columns_pf(columns, detector)
        points = list(zip(columns[op._R_ROW].tolist(), columns[op._S_ROW].tolist()))
        calls.append(points)
        status[:] = [mark.get(point, st) for point, st in zip(points, status.tolist())]
        return P, F, status

    monkeypatch.setattr(kernel, "columns_pf", spy)
    return calls


def test_optimizing_sweep_makes_one_kernel_call_per_round(monkeypatch):
    # fig4's optimizing sweep; the longest search sets the number of rounds:
    # its coarse grid, its opening pair with both candidates of its first
    # step, then one golden-section step and both candidates of the next (or
    # the midpoint) a round; each row takes its P and F from its search,
    # with no call at its s*
    rgrid = tuple(round(float(r), 10) for r in np.arange(0.1, 2.01, 0.05))
    spec = op.SweepSpec(base=rs.SchemeConfig(r=rgrid[0]), axis="r", grid=rgrid,
                        optimize_s_at_each=True)
    results = [op.optimize_s(spec.config_at(r)) for r in rgrid]
    calls = _spying(monkeypatch)
    rows = op.sweep(spec)
    longest = max(len(res.trace) for res in results)
    assert len(rows) == 39 and len(calls) == 10
    assert len(calls) == 1 + (longest - op.COARSE_POINTS) // 2
    assert [len(points) for points in calls[:3]] == [39 * op.COARSE_POINTS, 39 * 4, 39 * 3]
    evaluated = set().union(*calls)
    for r, res in zip(rgrid, results):
        assert {(r, s) for s, _ in res.trace} <= evaluated
    assert sum(map(len, calls)) > sum(len(res.trace) for res in results)
    assert [(row.s_star, row.fidelity) for row in rows] == \
        [(res.s_star, res.f_star) for res in results]


# a search of each detector kind whose bracket takes many steps
SEARCHES = (("ideal", rs.SchemeConfig(r=1.6)), ("on-off", rs.SchemeConfig(r=1.2, T_loss=0.9)))


@pytest.mark.parametrize("detector, cfg", SEARCHES)
def test_untaken_failing_candidate_does_not_end_a_search(monkeypatch, detector, cfg):
    # every point the search asked for and did not take fails: its result
    # is the unpatched one
    expected = op.optimize_s(cfg, detector)
    calls = _spying(monkeypatch)
    op.optimize_s(cfg, detector)
    path = {(cfg.r, s) for s, _ in expected.trace}
    untaken = set().union(*calls) - path
    # each round that asks for both candidates of a step leaves one of them:
    # (n + 1) // 2 rounds for the n golden-section steps past c and d
    steps = len(expected.trace) - op.COARSE_POINTS - 3
    assert len(untaken) == (steps + 1) // 2 > 0
    calls = _spying(monkeypatch, dict.fromkeys(untaken, kernel.UNPHYSICAL))
    assert op.optimize_s(cfg, detector) == expected
    assert untaken <= set().union(*calls)


@pytest.mark.parametrize("detector, cfg", SEARCHES)
@pytest.mark.parametrize("step", [0, 1, 2, 3, 4, -1])
def test_failing_golden_point_ends_the_search_with_its_error(monkeypatch, detector,
                                                             cfg, step):
    # a degenerate point on the path past the coarse grid (the opening c or
    # d, a step taken as a candidate or asked for as the next point, the
    # midpoint), and an unphysical one after it: the search ends with the
    # first one's error, as the loop that evaluates one point at a time does
    trace = op.optimize_s(cfg, detector).trace[op.COARSE_POINTS:]
    mark = {(cfg.r, trace[step][0]): kernel.DEGENERATE}
    if step != -1:
        mark[(cfg.r, trace[-1][0])] = kernel.UNPHYSICAL
    _spying(monkeypatch, mark)
    outcome = _outcome(cfg, detector)
    assert outcome[0] is DegeneratePostselectionError
    assert outcome == _outcome(cfg, detector, scalar_optimize_s)


def test_optimizing_sweep_keeps_the_kernel_working_memory_bounded(monkeypatch):
    # 300 searches send 12300 coarse points to one columns_pf call, which
    # evaluates them in passes of at most kernel._PASS_POINTS points: its
    # peak allocation stays below 20 MB (about 36 MB in one pass), and its
    # rows are those of one pass
    spec = op.SweepSpec(base=rs.SchemeConfig(r=1.2), axis="T",
                        grid=tuple(np.linspace(0.9, 0.99, 300)), optimize_s_at_each=True)
    tracemalloc.start()
    try:
        rows = op.sweep(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    monkeypatch.setattr(kernel, "_PASS_POINTS", 10**6)
    assert rows == op.sweep(spec)
    assert all(row.error is None for row in rows)


@pytest.mark.parametrize("detector", ["ideal", "on-off"])
@settings(max_examples=25, deadline=None)
@given(cfg=CONFIGS)
def test_optimize_s_equals_the_scalar_loop(detector, cfg):
    # the speculative search, two golden-section steps a kernel call, takes
    # the path of the loop that evaluates one point at a time: the same
    # result, trace included, or the same error
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LossyProjectorWarning)
        assert _outcome(cfg, detector) == _outcome(cfg, detector, scalar_optimize_s)


def test_optimize_delta_matches_scan():
    res = op.optimize_delta(1.6)
    deltas = np.linspace(0, np.pi / 2, 200)
    brute = max(tp.fidelity_closed_form(
        rs.theoretical_state("squeezed-bell", 1.6, d)) for d in deltas)
    assert res.f_star >= brute - 1e-6


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_fig3_endpoint_identities():
    r = 1.0
    spec = op.SweepSpec(base=rs.SchemeConfig(r=r), axis="s",
                        grid=(0.0, 0.5 * r, r), detector="ideal")
    rows = op.sweep(spec)
    assert [row.value for row in rows] == [0.0, 0.5, 1.0]
    # s = r recovers the twin-beam fidelity exactly
    assert rows[-1].fidelity == pytest.approx(tp.twin_beam_fidelity(r), abs=1e-9)
    # s = 0 approximates the analytic photon-subtracted fidelity to O(kappa^2)
    f_ps = tp.fidelity_closed_form(rs.theoretical_state("photon-subtracted", r))
    assert rows[0].fidelity == pytest.approx(f_ps, abs=5e-3)


def test_sweep_T_monotone_nondecreasing():
    spec = op.SweepSpec(base=rs.SchemeConfig(r=1.0, s=0.011), axis="T",
                        grid=tuple(np.arange(0.90, 0.991, 0.02)),
                        detector="ideal")
    values = [row.fidelity for row in op.sweep(spec)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_sweep_records_errors_and_continues():
    # s = 0 with r = 0 makes conditioning degenerate; the sweep keeps going
    spec = op.SweepSpec(base=rs.SchemeConfig(r=0.0, s=0.0, T1=0.9, T2=0.9),
                        axis="eta", grid=(0.1, 0.5), detector="on-off")
    rows = op.sweep(spec)
    assert all(row.error is not None and "degenerate" in row.error
               for row in rows)
    assert len(rows) == 2


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        op.SweepSpec(base=rs.SchemeConfig(r=1.0), axis="bogus", grid=(0.1,))
    with pytest.raises(ValueError):
        op.SweepSpec(base=rs.SchemeConfig(r=1.0), axis="s", grid=())
    with pytest.raises(ValueError):
        op.SweepSpec(base=rs.SchemeConfig(r=1.0), axis="s", grid=(0.2, 0.1))
    with pytest.raises(ValueError):
        op.SweepSpec(base=rs.SchemeConfig(r=1.0), axis="T", grid=(0.5, 1.5))
    # ideal projectors have no efficiency: every row would be the same
    with pytest.raises(ValueError, match="along eta"):
        op.SweepSpec(base=rs.SchemeConfig(r=1.0), axis="eta", grid=(0.1, 0.5))


def test_sweep_spec_refuses_optimizing_along_s():
    # each row would be labelled with an s it never evaluated, the optimum
    # over s in [0, r] of the same configuration
    with pytest.raises(ValueError, match="along s"):
        op.SweepSpec(base=rs.SchemeConfig(r=1.0), axis="s", grid=(0.0, 0.5),
                     optimize_s_at_each=True)


def test_sweep_spec_validates_the_grid_at_its_endpoints(monkeypatch):
    base = rs.SchemeConfig(r=1.0)
    post_init = rs.SchemeConfig.__post_init__
    built = []

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(rs.SchemeConfig, "__post_init__", counting)
    spec = op.SweepSpec(base=base, axis="loss", grid=tuple(np.linspace(0.0, 0.3, 61)))
    assert len(spec.grid) == 61 and len(built) <= 2


@pytest.mark.parametrize("axis, grid", [
    ("s", (0.1, float("nan"), 0.3)), ("s", (0.1, float("inf"))),
    ("loss", (0.1, float("nan"), 0.3)), ("r", (0.5, float("inf")))])
def test_sweep_spec_rejects_non_finite_grid_points(axis, grid):
    with pytest.raises(ValueError):
        op.SweepSpec(base=rs.SchemeConfig(r=1.0), axis=axis, grid=grid)


def test_sweep_spec_rejects_unknown_detector():
    with pytest.raises(ValueError, match="unknown detector kind 'pnr'"):
        op.SweepSpec(base=rs.SchemeConfig(r=1.0), axis="s", grid=(0.1,),
                      detector="pnr")


def test_sweep_batched_rows_match_pointwise():
    spec = op.SweepSpec(base=rs.SchemeConfig(r=1.3, eta3=0.15, eta4=0.15),
                        axis="loss", grid=(0.0, 0.1, 0.2), detector="on-off")
    for row in op.sweep(spec):
        state = rs.scheme_state(spec.config_at(row.value), "on-off")
        assert row.error is None
        assert row.success_prob == pytest.approx(state.success_prob, rel=1e-9)
        assert row.fidelity == pytest.approx(tp.fidelity_closed_form(state),
                                             abs=1e-10)


def test_nested_optimization_column():
    spec = op.SweepSpec(base=rs.SchemeConfig(r=1.6, eta3=0.15, eta4=0.15),
                        axis="loss", grid=(0.0, 0.1), detector="on-off",
                        optimize_s_at_each=True)
    rows = op.sweep(spec)
    for row in rows:
        assert row.s_star is not None
        assert 0.0 < row.s_star < 1.6


def test_nested_optimization_keeps_per_row_errors():
    # r = 0 is degenerate and r = 30 unphysical; the row between optimizes
    spec = op.SweepSpec(base=rs.SchemeConfig(r=1.0, T1=0.9, T2=0.9), axis="r",
                        grid=(0.0, 1.0, 30.0), detector="ideal",
                        optimize_s_at_each=True)
    with warnings.catch_warnings():
        # det S of the lossless source at r = 30 is lost to roundoff
        warnings.simplefilter("ignore", LossyProjectorWarning)
        rows = op.sweep(spec)
        outcomes = [_outcome(spec.config_at(row.value), "ideal") for row in rows]
    for row, outcome in zip(rows, outcomes):
        if isinstance(outcome, op.OptResult):
            assert row.error is None
            assert (row.s_star, row.fidelity) == (outcome.s_star, outcome.f_star)
        else:
            kind, message = outcome
            prefix = ("degenerate-postselection" if kind is DegeneratePostselectionError
                      else kind.__name__)
            assert row.error == f"{prefix}: {message}"
            assert row.s_star is None and row.fidelity is None
    assert [row.error is None for row in rows] == [False, True, False]


# a lossy base with thermal noise, and a base with vacuum ancillas whose
# points fail (degenerate at r = 0 or s = 0, unphysical at r = 30)
COLUMN_BASES = (rs.SchemeConfig(r=1.2, s=0.05, T1=0.95, T2=0.97, T_loss=0.9,
                                eta3=0.3, eta4=0.2, n_thermal=0.2),
                rs.SchemeConfig(r=0.0, T1=0.9, T2=0.9))
COLUMN_GRIDS = {"s": (0.0, 0.05, 0.3), "r": (0.0, 0.8, 30.0),
                "loss": (0.0, 0.1, 0.25), "T": (0.9, 0.99, 1.0),
                "eta": (0.1, 0.5, 1.0)}


def _expected_row(spec, value, cfg, s_star=None):
    """The sweep row of one configuration from kernel.columns_pf."""
    (p,), (f,), (st,) = kernel.columns_pf(kernel.columns_of([cfg]), spec.detector)
    error = status_error(p, st)
    if error is not None:
        return op.SweepRow(value, s_star=s_star, error=op._describe(error))
    return op.SweepRow(value, float(f), float(p), s_star)


@pytest.mark.parametrize("optimize_s_at_each", [False, True])
@pytest.mark.parametrize("detector", ["ideal", "on-off"])
def test_sweep_columns_match_configurations_bit_for_bit(detector, optimize_s_at_each):
    rows, expected = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LossyProjectorWarning)
        for base, (axis, grid) in itertools.product(COLUMN_BASES, COLUMN_GRIDS.items()):
            if (axis == "s" and optimize_s_at_each) or (axis == "eta" and detector == "ideal"):
                continue  # refused by SweepSpec
            spec = op.SweepSpec(base=base, axis=axis, grid=grid,
                                detector=detector, optimize_s_at_each=optimize_s_at_each)
            rows += op.sweep(spec)
            for value in grid:
                cfg = spec.config_at(value)
                if not optimize_s_at_each:
                    expected.append(_expected_row(spec, value, cfg))
                    continue
                try:
                    opt = op.optimize_s(cfg, detector)
                except Exception as exc:
                    expected.append(op.SweepRow(value, error=op._describe(exc)))
                    continue
                row = _expected_row(spec, value, cfg.with_(s=opt.s_star), opt.s_star)
                assert row.fidelity == opt.f_star
                expected.append(row)
    assert rows == expected
    assert any(row.error is not None for row in rows)
    assert any(row.error is None for row in rows)


@pytest.mark.parametrize("detector", ["ideal", "on-off"])
def test_sweep_of_several_specs_equals_their_sweeps_one_by_one(detector):
    # optimizing and plain specs, on every axis of both bases, failing
    # points among them: one sweep gives every spec's rows, in order, each
    # as its own sweep does, errors in their own rows
    specs = [op.SweepSpec(base=base, axis=axis, grid=grid, detector=detector,
                          optimize_s_at_each=optimize_s_at_each)
             for base, (axis, grid) in itertools.product(COLUMN_BASES, COLUMN_GRIDS.items())
             for optimize_s_at_each in (True, False)
             if not (axis == "s" and optimize_s_at_each)
             and not (axis == "eta" and detector == "ideal")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LossyProjectorWarning)
        rows = op.sweep(*specs)
        expected = [row for spec in specs for row in op.sweep(spec)]
    assert rows == expected
    assert any(row.error is not None for row in rows)
    assert any(row.s_star is not None for row in rows)
    assert any(row.error is None and row.s_star is None for row in rows)


def test_sweep_refuses_specs_of_two_detector_kinds():
    base = rs.SchemeConfig(r=1.0)
    specs = [op.SweepSpec(base=base, axis="s", grid=(0.0, 0.5), detector=detector)
             for detector in ("ideal", "on-off")]
    with pytest.raises(ValueError, match="one detector kind"):
        op.sweep(*specs)
    with pytest.raises(ValueError, match="one detector kind"):
        op.sweep()


@pytest.mark.parametrize("optimize_s_at_each", [False, True])
def test_sweep_builds_no_configuration_per_point(monkeypatch, optimize_s_at_each):
    base = rs.SchemeConfig(r=1.0, T_loss=0.9, eta3=0.3, eta4=0.3)
    specs = [op.SweepSpec(base=base, axis="T", grid=tuple(np.linspace(0.9, 0.99, n)),
                          detector="on-off", optimize_s_at_each=optimize_s_at_each)
             for n in (3, 61)]
    post_init = rs.SchemeConfig.__post_init__
    built = []

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(rs.SchemeConfig, "__post_init__", counting)
    counts = []
    for spec in specs:
        built.clear()
        rows = op.sweep(spec)
        assert all(row.error is None for row in rows)
        counts.append(len(built))
    assert counts[0] == counts[1]
