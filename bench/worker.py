"""One benchmark process: set up, run rounds of a workload, check them.

Started by ``run.py`` from the root of a checkout, with ``src`` on
PYTHONPATH and BLAS limited to one thread.  Writes two protocol lines to
standard output: ``READY`` once sqbell is imported, the inputs are built
and a warm-up closed-form fidelity has returned, and ``RESULT <json>`` after
the last round and its checks.  Anything sqbell prints during a round is
discarded.

    python3 bench/worker.py --workload NAME --seed N [--seconds S]
                            [--trace 0|1] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

SQBELL_MODULES = ("cli", "conditioning", "fock_sim", "gauss_poly", "optimize",
                  "resources", "symplectic", "teleport")


def _import_sqbell():
    """Import every sqbell module from this checkout's ``src``."""
    t0 = time.perf_counter()
    sq = importlib.import_module("sqbell")
    for name in SQBELL_MODULES:
        importlib.import_module(f"sqbell.{name}")
    import_s = time.perf_counter() - t0
    src = (Path.cwd() / "src").resolve()
    if src not in Path(sq.__file__).resolve().parents:
        raise SystemExit(f"sqbell was imported from {sq.__file__}, not from {src}")
    return sq, import_s


def _round(sq, inputs, run_round, check, tracer) -> dict:
    """Run and time one round, traced if `tracer` is given, then check it.

    `op_s` holds the scaled time of every operation and `wall_s` their sum;
    `raw_wall_s` is the round's measured time, probes included.
    """
    from speed import Clock

    span = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    clock = Clock(tracer.exclude if tracer else None)
    if tracer:
        tracer.install(sq)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            with span("bench.round"):
                out = run_round(sq, inputs, span, clock)
            out["raw_wall_s"] = time.perf_counter() - t0
    finally:
        clock.stop()
        if tracer:
            tracer.uninstall()
    out["op_s"] = clock.scaled_op_s()
    out["wall_s"] = sum(out["op_s"])
    out["problems"] = check(sq, inputs, out)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--seconds", type=float, default=0.0,
                   help="start rounds until this much time has passed (at least one)")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sq, import_s = _import_sqbell()
    import workloads
    from speed import probe
    from tracing import Tracer
    make_inputs, run_round, check = workloads.WORKLOADS[args.workload]
    workdir = Path.cwd() / ".bench_runs" / "tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = make_inputs(sq, args.seed, workdir)
        sq.teleport.fidelity_closed_form(sq.resources.theoretical_state("twin-beam", 1.0))
        print("READY", flush=True)
        # the host's speed right after set-up, to scale the set-up time
        out = {"probe_s": statistics.median(probe() for _ in range(5))}
        if args.setup_only:
            print("RESULT " + json.dumps(out), flush=True)
            return 0

        tracer = Tracer() if args.trace else None
        rounds = []
        t_start = time.perf_counter()
        while not rounds or time.perf_counter() - t_start < args.seconds:
            rounds.append(_round(sq, inputs, run_round, check, tracer))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    out.update(rounds=rounds, import_s=import_s,
               rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if tracer is not None:
        out["layers"] = tracer.summary()
        out["counters"] = dict(tracer.counters)
    print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
