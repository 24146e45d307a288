#!/usr/bin/env python3
"""Benchmark of sqbell: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload datasets --seed 1 --seconds 10 --trace 0

Without ``--workload`` every workload runs in turn.  Workers
(``worker.py``) are fresh single-threaded processes; rounds of the
workload start until ``--seconds`` have passed, and every operation's time
is scaled to a reference host speed (``speed.py``).  ``--trace 0`` prints
the end-to-end metrics.  ``--trace 1`` runs the same rounds untraced and
then traced, and prints the per-layer metrics of the traced rounds with
the tracing overhead.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits with 2, printing no result, outside a sqbell
checkout, and with 1 when a worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_PROBE_S

HERE = Path(__file__).resolve().parent
WORKLOADS = ("datasets", "onoff-grid", "crosscheck")
SETUP_SAMPLES = 5  # set-up times per run, from rounds plus set-up-only probes
# crosscheck starts every round with an empty Fock unitary cache
FRESH_PROCESS = {"crosscheck"}
RUN_LIMIT_S = 170.0  # every run ends within this, or fails without a result
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

# (metric, unit, source): source is ("layer", span name, field) or
# ("counter", counter name); everything else is computed in per_layer()
LAYER_METRICS = [
    ("symplectic.source.calls", "count", ("layer", "symplectic.source", "calls")),
    ("symplectic.source.self_s", "s", ("layer", "symplectic.source", "self_s")),
    ("conditioning.ideal.calls", "count", ("layer", "conditioning.ideal", "calls")),
    ("conditioning.ideal.self_s", "s", ("layer", "conditioning.ideal", "self_s")),
    ("conditioning.onoff.calls", "count", ("layer", "conditioning.onoff", "calls")),
    ("conditioning.onoff.self_s", "s", ("layer", "conditioning.onoff", "self_s")),
    ("conditioning.degenerate", "count", ("counter", "conditioning.degenerate")),
    ("resources.scheme_state.calls", "count", ("layer", "resources.scheme_state", "calls")),
    ("resources.scheme_state.self_s", "s", ("layer", "resources.scheme_state", "self_s")),
    ("resources.theoretical_state.calls", "count",
     ("layer", "resources.theoretical_state", "calls")),
    ("resources.theoretical_state.self_s", "s",
     ("layer", "resources.theoretical_state", "self_s")),
    ("teleport.closed_form.calls", "count", ("layer", "teleport.closed_form", "calls")),
    ("teleport.closed_form.self_s", "s", ("layer", "teleport.closed_form", "self_s")),
    ("teleport.quadrature.calls", "count", ("layer", "teleport.quadrature", "calls")),
    ("teleport.quadrature.self_s", "s", ("layer", "teleport.quadrature", "self_s")),
    ("optimize.solves", "count", ("counter", "optimize.solves")),
    ("optimize.self_s", "s", ("layer", "optimize", "self_s")),
    ("optimize.sweep_points", "count", ("counter", "optimize.sweep_points")),
    ("optimize.sweep.self_s", "s", ("layer", "optimize.sweep", "self_s")),
    ("gauss_poly.multiply.self_s", "s", ("layer", "gauss_poly.multiply", "self_s")),
    ("gauss_poly.integrate.self_s", "s", ("layer", "gauss_poly.integrate", "self_s")),
    ("gauss_poly.substitute.self_s", "s", ("layer", "gauss_poly.substitute", "self_s")),
    ("gauss_poly.canonicalize.self_s", "s", ("layer", "gauss_poly.canonicalize", "self_s")),
    ("gauss_poly.canonicalize.terms_in", "count",
     ("counter", "gauss_poly.canonicalize.terms_in")),
    ("gauss_poly.canonicalize.terms_out", "count",
     ("counter", "gauss_poly.canonicalize.terms_out")),
    ("gauss_poly.evaluate.calls", "count", ("layer", "gauss_poly.evaluate", "calls")),
    ("gauss_poly.evaluate.self_s", "s", ("layer", "gauss_poly.evaluate", "self_s")),
    ("fock_sim.oracle.calls", "count", ("layer", "fock_sim.oracle", "calls")),
    ("fock_sim.oracle.self_s", "s", ("layer", "fock_sim.oracle", "self_s")),
    ("fock_sim.unitary.self_s", "s", ("layer", "fock_sim.unitary", "self_s")),
    ("fock_sim.char_function.self_s", "s", ("layer", "fock_sim.char_function", "self_s")),
    ("fock_sim.escalations", "count", ("counter", "fock_sim.escalations")),
    ("cli.reproduce.self_s", "s", ("layer", "cli.reproduce", "self_s")),
]


class BenchError(RuntimeError):
    """A worker failed, timed out or broke the protocol."""


def _worker(workload: str, seed: int, trace: bool, seconds: float | None,
            deadline: float) -> tuple[float, dict]:
    """Run one worker process for rounds of `seconds`, or only its set-up
    when `seconds` is None; return (scaled set-up seconds, result)."""
    setup_only = seconds is None
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)),
           "--seconds", str(seconds or 0.0)]
    if setup_only:
        cmd.append("--setup-only")
    src = str(Path.cwd() / "src")
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        if not select.select([proc.stdout], [], [], max(1.0, deadline - t0))[0]:
            raise subprocess.TimeoutExpired(cmd, deadline - t0)
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker overran the run limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or ready.strip() != "READY":
        raise BenchError(f"{workload} worker exited with {proc.returncode}")
    lines = [ln for ln in rest.splitlines() if ln.startswith("RESULT ")]
    if len(lines) != 1:
        raise BenchError(f"{workload} worker printed no result")
    result = json.loads(lines[0][len("RESULT "):])
    return setup_s * REFERENCE_PROBE_S / result["probe_s"], result


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((Path.cwd() / "src").rglob("*.py")):
        h.update(str(path.relative_to(Path.cwd())).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _dataset_digest_problems(rounds: list[dict]) -> list[str]:
    """Datasets written by every round, in this run and in earlier runs of
    the same source, must be byte-identical."""
    store = Path.cwd() / ".bench_runs" / "datasets-digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = _source_digest()
    expected = known.get(key, rounds[0]["digests"])
    problems = []
    for r in rounds:
        changed = sorted(name for name in expected.keys() | r["digests"].keys()
                         if r["digests"].get(name) != expected.get(name))
        if changed:
            problems.append(f"not byte-identical to an earlier run: {changed}")
    if key not in known:
        known[key] = expected
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, store)
    return problems


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workers: list[dict], setups: list[float]) -> dict:
    rounds = [r for w in workers for r in w["rounds"]]
    return {
        "setup_s": _metric(statistics.median(setups), "s"),
        "wall_s": _metric(statistics.median(r["wall_s"] for r in rounds), "s"),
        "op_p50_ms": _metric(1000.0 * statistics.median(
            t for r in rounds for t in r["op_s"]), "ms"),
        "peak_rss_mb": _metric(max(w["rss_kb"] for w in workers) / 1024.0, "MB"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics per traced round, and the tracing overhead."""
    n = sum(len(w["rounds"]) for w in traced)
    layers: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    for w in traced:
        for name, rec in w["layers"].items():
            acc = layers.setdefault(name, dict.fromkeys(rec, 0.0))
            for field, value in rec.items():
                acc[field] += value / n
        for name, value in w["counters"].items():
            counters[name] = counters.get(name, 0.0) + value / n
    out = {}
    for name, unit, source in LAYER_METRICS:
        if source[0] == "layer":
            value = layers.get(source[1], {}).get(source[2], 0)
        else:
            value = counters.get(source[1], 0)
        out[name] = _metric(value, unit)
    solves = counters.get("optimize.solves", 0)
    evals = counters.get("optimize.evals", 0)
    out["optimize.evals_per_solve"] = _metric(evals / solves if solves else 0.0,
                                              "evals/solve")
    rounds = [r for w in traced for r in w["rounds"]]
    out["cli.rows"] = _metric(statistics.mean(r.get("rows", 0) for r in rounds), "count")
    out["setup.import_s"] = _metric(statistics.median(w["import_s"] for w in traced), "s")
    wall_traced = statistics.median(r["wall_s"] for r in rounds)
    wall_plain = statistics.median(r["wall_s"] for w in plain for r in w["rounds"])
    out["trace.wall_s"] = _metric(statistics.mean(r["raw_wall_s"] for r in rounds), "s")
    out["trace.overhead_pct"] = _metric(100.0 * (wall_traced - wall_plain) / wall_plain, "%")
    out["trace.unattributed_s"] = _metric(
        layers["bench.round"]["self_s"] + layers["bench.probe"]["self_s"], "s")
    return out


def _rounds(workload: str, seed: int, seconds: float, trace: bool,
            deadline: float, setups: list[float]) -> list[dict]:
    """Workers for one set of rounds.  Rounds start until `seconds` have
    passed, at least one; a workload in FRESH_PROCESS gets a new process
    for every round."""
    workers: list[dict] = []
    t_start = time.perf_counter()
    while not workers or time.perf_counter() - t_start < seconds:
        budget = 0.0 if workload in FRESH_PROCESS else seconds
        setup_s, res = _worker(workload, seed, trace, budget, deadline)
        setups.append(setup_s)
        workers.append(res)
    return workers


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    setups: list[float] = []
    plain = _rounds(workload, seed, seconds, False, deadline, setups)
    traced = _rounds(workload, seed, seconds, True, deadline, setups) if trace else []
    while len(setups) < SETUP_SAMPLES:
        setups.append(_worker(workload, seed, False, None, deadline)[0])

    rounds = [r for w in plain + traced for r in w["rounds"]]
    problems = [p for r in rounds for p in r["problems"]]
    if workload == "datasets":
        problems += _dataset_digest_problems(rounds)
    for p in problems:
        print(f"{workload}: {p}", file=sys.stderr)
    metrics = per_layer(plain, traced) if trace else end_to_end(plain, setups)
    return {"correct": not problems,
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, default=None,
                   help="one workload; all of them when omitted")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (Path.cwd() / "src" / "sqbell" / "__init__.py").is_file():
        print("error: run from the root of a sqbell checkout (no src/sqbell)",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace))
                   for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name, res in results.items():
        print(json.dumps({"workload": name, **res}))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for w, r in results.items()
                    for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
