"""Span tracing of the calls into sqbell's layers, from outside the package.

Modules import each other's functions by name (``resources`` holds its own
``condition``, ``optimize`` its own ``fidelity_closed_form``, ``cli`` its own
``optimize_s``), so a layer is wrapped by replacing every attribute of every
loaded ``sqbell`` module that refers to the layer's function.  Spans
(name, start, end, parent) are kept in flat in-memory arrays and aggregated
when the traced round ends.  A layer's self time is its span's duration
minus the durations of its direct child spans; calls are single-threaded,
so child spans never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager


def _condition_name(args, kwargs):
    d3 = args[1] if len(args) > 1 else kwargs.get("d3")
    return "conditioning.ideal" if d3.kind == "ideal-projector" else "conditioning.onoff"


class Tracer:
    """Wraps sqbell functions in spans and counts work at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = [-1]
        self._excluded: dict[int, float] = defaultdict(float)  # span -> s
        self.counters: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def exclude(self, seconds: float) -> None:
        """Take `seconds` spent by the benchmark itself (a speed probe run
        from a signal handler) out of the innermost open span's self time."""
        self._excluded[self._stack[-1]] += seconds

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name, after=None, on_error=None):
        """Return `fn` wrapped in a span.  `name` is a string or a function
        of (args, kwargs); `after(result, args, kwargs)` counts work on
        return and `on_error(exc)` on raise."""
        fixed = name if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(fixed or name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                self._close(idx)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def patch(self, module, attr: str, name, after=None, on_error=None) -> None:
        """Wrap `module.attr` everywhere sqbell refers to it."""
        original = getattr(module, attr)
        wrapped = self.wrap(original, name, after, on_error)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if mod_name != "sqbell" and not mod_name.startswith("sqbell."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._patched.append((mod, key, original))

    def install(self, sq) -> None:
        """Wrap the public functions of every sqbell layer."""
        c = self.counters

        def count(key, amount=1.0):
            c[key] += amount

        def on_degenerate(exc):
            if type(exc).__name__ == "DegeneratePostselectionError":
                count("conditioning.degenerate")

        def on_solve(res, args, kwargs):
            count("optimize.solves")
            count("optimize.evals", len(res.trace))

        def on_sweep(rows, args, kwargs):
            count("optimize.sweep_points", len(rows))

        def on_canonicalize(res, args, kwargs):
            count("gauss_poly.canonicalize.terms_in", len(args[0].terms))
            count("gauss_poly.canonicalize.terms_out", len(res.terms))

        def oracle_hook(fn):
            sig = inspect.signature(fn)

            def on_oracle(res, args, kwargs):
                requested = sig.bind(*args, **kwargs).arguments.get("cutoff")
                tensor = res[0] if isinstance(res, tuple) else res
                if requested is not None and tensor.cutoffs[0] > requested:
                    count("fock_sim.escalations")
            return on_oracle

        gp, fs = sq.gauss_poly, sq.fock_sim
        self.patch(sq.symplectic, "scheme_four_mode_char", "symplectic.source")
        self.patch(sq.conditioning, "condition", _condition_name,
                   on_error=on_degenerate)
        self.patch(sq.resources, "scheme_state", "resources.scheme_state")
        self.patch(sq.resources, "theoretical_state", "resources.theoretical_state")
        self.patch(sq.teleport, "fidelity_closed_form", "teleport.closed_form")
        self.patch(sq.teleport, "fidelity_quadrature", "teleport.quadrature")
        self.patch(sq.optimize, "optimize_s", "optimize", after=on_solve)
        self.patch(sq.optimize, "optimize_delta", "optimize", after=on_solve)
        self.patch(sq.optimize, "sweep", "optimize.sweep", after=on_sweep)
        self.patch(gp, "multiply", "gauss_poly.multiply")
        self.patch(gp, "integrate_real", "gauss_poly.integrate")
        self.patch(gp, "integrate_out", "gauss_poly.integrate")
        self.patch(gp, "substitute", "gauss_poly.substitute")
        self.patch(gp, "canonicalize", "gauss_poly.canonicalize",
                   after=on_canonicalize)
        self.patch(gp, "evaluate", "gauss_poly.evaluate")
        for attr in ("scheme_oracle", "theoretical_oracle"):
            self.patch(fs, attr, "fock_sim.oracle",
                       after=oracle_hook(getattr(fs, attr)))
        for attr in ("two_mode_squeeze_operator", "beam_splitter_operator"):
            self.patch(fs, attr, "fock_sim.unitary")
        for attr in ("char_function", "char_function_state", "char_function_batch"):
            self.patch(fs, attr, "fock_sim.char_function")

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    # -- aggregation --------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and self time in seconds.  Time excluded
        from spans is reported under ``bench.probe``."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            rec = out[self.names[self.name_of[i]]]
            rec["calls"] += 1
            rec["self_s"] += (self.end[i] - self.start[i] - child[i]
                              - self._excluded.get(i, 0.0))
        out["bench.probe"] = {"calls": len(self._excluded),
                              "self_s": sum(self._excluded.values())}
        return out
