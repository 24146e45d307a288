#!/usr/bin/env python3
"""Desk experiment: compare the closed-form pipeline against the Fock oracle.

Builds a handful of conditioned states both ways and prints the worst
characteristic-function and success-probability deviations, plus timings.
Exits 1 when either exceeds criterion 6's tolerance: 1e-6 on |dchi|, and
1e-6 on the success probability's relative deviation.

Usage: python scripts/oracle_crosscheck.py [cutoff]
"""

import itertools
import sys
import time
import warnings

import numpy as np

from sqbell import fock_sim as fs
from sqbell import resources as rs
from sqbell.conditioning import LossyProjectorWarning

CONFIGS = [
    ("ideal", rs.SchemeConfig(r=0.6, s=0.01)),
    ("ideal", rs.SchemeConfig(r=0.6, s=0.01, T_loss=0.85)),
    ("on-off", rs.SchemeConfig(r=0.6, s=0.01, eta3=0.15, eta4=0.15)),
    ("on-off", rs.SchemeConfig(r=0.8, s=0.03, T_loss=0.85)),
]


def main(cutoff: int) -> int:
    vals = np.linspace(-0.45, 0.45, 3)
    grid = [(a + 1j * b, c + 1j * d)
            for a, b, c, d in itertools.product(vals, repeat=4)]
    b1s = np.array([b1 for b1, _ in grid])
    b2s = np.array([b2 for _, b2 in grid])
    print(f"cutoff {cutoff}, {len(grid)} grid points per configuration")
    print(f"{'detector':8s} {'r':>4s} {'s':>6s} {'T_loss':>6s}  "
          f"{'max |dchi|':>11s} {'dsuccess':>10s} {'rel':>9s} {'seconds':>8s}")
    worst, worst_rel = 0.0, 0.0
    for detector, cfg in CONFIGS:
        t0 = time.time()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LossyProjectorWarning)
            state = rs.scheme_state(cfg, detector)
            rho, succ = fs.scheme_oracle(cfg, detector, cutoff=cutoff)
        chi_o = fs.char_function_batch(rho, b1s, b2s)
        dev = float(np.max(np.abs(chi_o - state.chi(b1s, b2s))))
        dsucc = abs(succ - state.success_prob)
        rel = dsucc / state.success_prob
        worst = max(worst, dev)
        worst_rel = max(worst_rel, rel)
        print(f"{detector:8s} {cfg.r:4.1f} {cfg.s:6.3f} {cfg.T_loss:6.2f}  "
              f"{dev:11.3e} {dsucc:10.3e} {rel:9.2e} {time.time() - t0:8.2f}")
    print(f"worst characteristic-function deviation: {worst:.3e}")
    print(f"worst relative success deviation: {worst_rel:.3e}")
    return 0 if worst < 1e-6 and worst_rel <= 1e-6 else 1


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 22))
