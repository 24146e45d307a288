#!/usr/bin/env python3
"""Desk experiment: compare the closed-form pipeline against the Fock oracle.

Builds a handful of conditioned states both ways, the oracle's at the one
cutoff given (a leak above it raises CutoffTooSmallError), and prints the
worst characteristic-function, success-probability and fidelity
deviations, plus timings.  The oracle's fidelity is the 48 x 48
Gauss-Hermite quadrature of (1/pi) int d^2 lam e^(-|lam|^2) chi(-conj(lam),
-lam) over its chi, held to `teleport.fidelity_closed_form`.

At the default cutoff, 40, the worst deviations are 8.4e-13 on |dchi|,
1.3e-13 on the success probability's relative deviation and 6.0e-12 on
|dF|; at the largest, 48, 2.3e-15, 3.1e-15 and 2.5e-14.  The script exits 1 when any exceeds 1e-11, 1e-11 or 1e-10
respectively; criterion 6 of the acceptance tests allows 1e-6, 1e-6 and
1e-5 at cutoff 25.  A smaller cutoff leaves more of the state truncated
and may exit 1.

Usage: python scripts/oracle_crosscheck.py [cutoff]
"""

import itertools
import sys
import time
import warnings

import numpy as np

from sqbell import fock_sim as fs
from sqbell import resources as rs
from sqbell import teleport as tp
from sqbell.conditioning import LossyProjectorWarning

CONFIGS = [
    ("ideal", rs.SchemeConfig(r=0.6, s=0.01)),
    ("ideal", rs.SchemeConfig(r=0.6, s=0.01, T_loss=0.85)),
    ("on-off", rs.SchemeConfig(r=0.6, s=0.01, eta3=0.15, eta4=0.15)),
    ("on-off", rs.SchemeConfig(r=0.8, s=0.03, T_loss=0.85)),
]
GH_ORDER = 48


def gauss_hermite_fidelity(rho: fs.FockDensity) -> float:
    """(1/pi) sum_k w_k chi(-conj(lam_k), -lam_k) on the Gauss-Hermite grid."""
    nodes, weights = np.polynomial.hermite.hermgauss(GH_ORDER)
    lam = (nodes[:, None] + 1j * nodes[None, :]).ravel()
    chi = fs.char_function_batch(rho, -np.conj(lam), -lam)
    return float((np.outer(weights, weights).ravel() @ chi).real / np.pi)


def main(cutoff: int) -> int:
    vals = np.linspace(-0.45, 0.45, 3)
    grid = [(a + 1j * b, c + 1j * d)
            for a, b, c, d in itertools.product(vals, repeat=4)]
    b1s = np.array([b1 for b1, _ in grid])
    b2s = np.array([b2 for _, b2 in grid])
    print(f"cutoff {cutoff}, {len(grid)} grid points per configuration")
    print(f"{'detector':8s} {'r':>4s} {'s':>6s} {'T_loss':>6s}  "
          f"{'max |dchi|':>11s} {'dsuccess':>10s} {'rel':>9s} {'|dF|':>9s} "
          f"{'seconds':>8s}")
    worst, worst_rel, worst_fid = 0.0, 0.0, 0.0
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
        dfid = abs(gauss_hermite_fidelity(rho) - tp.fidelity_closed_form(state))
        worst = max(worst, dev)
        worst_rel = max(worst_rel, rel)
        worst_fid = max(worst_fid, dfid)
        print(f"{detector:8s} {cfg.r:4.1f} {cfg.s:6.3f} {cfg.T_loss:6.2f}  "
              f"{dev:11.3e} {dsucc:10.3e} {rel:9.2e} {dfid:9.2e} "
              f"{time.time() - t0:8.2f}")
    print(f"worst characteristic-function deviation: {worst:.3e}")
    print(f"worst relative success deviation: {worst_rel:.3e}")
    print(f"worst Gauss-Hermite fidelity deviation: {worst_fid:.3e}")
    return 0 if worst <= 1e-11 and worst_rel <= 1e-11 and worst_fid <= 1e-10 else 1


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 40))
