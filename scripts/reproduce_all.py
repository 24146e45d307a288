#!/usr/bin/env python3
"""Regenerate every published dataset in one run: each target of
`sqbell.cli.DATASETS`, in the table's order.

Prints the wall time of each target and the total.

Usage: python scripts/reproduce_all.py [outdir]
"""

import sys
import time

from sqbell.cli import DATASETS, main


def run(outdir: str) -> int:
    start = time.perf_counter()
    for target in DATASETS:
        t0 = time.perf_counter()
        code = main(["reproduce", target, "--outdir", outdir])
        print(f"  {target}: exit {code} ({time.perf_counter() - t0:.2f}s)")
        if code != 0:
            return code
    print(f"  total: {time.perf_counter() - start:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1] if len(sys.argv) > 1 else "reproductions"))
