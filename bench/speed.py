"""Host speed probe, to scale measured times to a reference speed.

The CPU of a shared host slows in bursts and drifts over minutes (by up to
a half over a few minutes on the 2-core host the reference figures come
from), with no steal time to show for it.  A fixed piece of interpreter and
small-matrix work, sharing no code with sqbell, is timed before and after
every operation and, from a SIGALRM handler, every SAMPLE_PERIOD_S during
it.  An operation's measured time, less the time spent in the handler, is
scaled by REFERENCE_PROBE_S over the median of those probe times.  A
change to sqbell cannot change the probe, so scaled times still show every
change to sqbell's cost.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# median probe time on the reference host (see README.md), so that scaled
# times read as seconds on that host when it is quiet
REFERENCE_PROBE_S = 0.0036
SAMPLE_PERIOD_S = 0.25

_M = np.array([[4.0, 1.0, 0.5, 0.0, 0.2, 0.0, 0.1, 0.0],
               [1.0, 4.0, 0.0, 0.5, 0.0, 0.2, 0.0, 0.1],
               [0.5, 0.0, 3.0, 1.0, 0.3, 0.0, 0.0, 0.0],
               [0.0, 0.5, 1.0, 3.0, 0.0, 0.3, 0.0, 0.0],
               [0.2, 0.0, 0.3, 0.0, 2.0, 0.5, 0.0, 0.0],
               [0.0, 0.2, 0.0, 0.3, 0.5, 2.0, 0.0, 0.0],
               [0.1, 0.0, 0.0, 0.0, 0.0, 0.0, 1.5, 0.2],
               [0.0, 0.1, 0.0, 0.0, 0.0, 0.0, 0.2, 1.5]])


def _work() -> float:
    acc: dict[tuple, float] = {}
    for i in range(6000):
        key = (i % 7, i % 5, i % 3)
        acc[key] = acc.get(key, 0.0) + 0.5 * i
    total = sum(acc.values())
    for _ in range(75):
        total += np.linalg.slogdet(_M)[1] + np.linalg.solve(_M, _M[0])[0]
    return total


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


class Clock:
    """Times the operations of one round and samples the host's speed.

    `on_sample(seconds)`, if given, is told the length of every probe the
    handler runs, so that a tracer can take it out of the interrupted span.
    """

    def __init__(self, on_sample=None):
        self.on_sample = on_sample
        self.samples: list[float] = []
        self.in_handler = 0.0
        self._quiet = True
        self.bounds = [probe()]
        self.ops: list[tuple[float, int, list[float]]] = []  # (s, units, samples)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self._quiet = False

    def _sample(self, signum, frame):
        if self._quiet:  # a boundary probe is running
            return
        t0 = time.perf_counter()
        self.samples.append(probe())
        spent = time.perf_counter() - t0
        self.in_handler += spent
        if self.on_sample is not None:
            self.on_sample(spent)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextmanager
    def op(self, units: int = 1):
        """Time one operation, or one call covering `units` operations."""
        n0, h0 = len(self.samples), self.in_handler
        t0 = time.perf_counter()
        yield
        seconds = time.perf_counter() - t0 - (self.in_handler - h0)
        self.ops.append((seconds, units, self.samples[n0:]))
        self._quiet = True
        self.bounds.append(probe())
        self._quiet = False

    def scaled_op_s(self) -> list[float]:
        """Scaled time per unit, one entry per unit, in order."""
        out = []
        for k, (seconds, units, during) in enumerate(self.ops):
            local = statistics.median([self.bounds[k], *during, self.bounds[k + 1]])
            out.extend([seconds * REFERENCE_PROBE_S / local / units] * units)
        return out
