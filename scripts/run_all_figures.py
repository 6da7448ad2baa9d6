#!/usr/bin/env python3
"""Produce the full experiment set under out/figures/, one directory each.

The supernode sweep pairs with the scalar one: its m=4 region (82 nodes) is
comparable in size to the scalar m=6 region (85 nodes), so the two CSVs give
the like-for-like accuracy comparison directly.
"""

import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# This checkout's package first, so the script runs without an install.
sys.path.insert(0, str(ROOT / "src"))
from sparsecoarsen.cli import main  # noqa: E402

OUT = ROOT / "out" / "figures"

# Each run takes its command's default grid unless it states one.
RUNS = [
    ("sd_convergence", ["sd-convergence"]),
    ("svd_spectrum", ["svd-spectrum"]),
    ("lin_convergence", ["lin-convergence"]),
    ("spatial_decay", ["spatial-decay"]),
    ("lambda_sweep", ["lambda-sweep"]),
    ("supernode_sweep",
     ["lambda-sweep", "--p", "2", "--q", "1", "--m", "1,2,3,4"]),
    ("global_verify", ["global-verify"]),
]


def run():
    jobs = str(os.cpu_count() or 1)
    worst = 0
    for name, argv in RUNS:
        outdir = OUT / name
        start = time.perf_counter()
        code = main(argv + ["--out", str(outdir), "--format", "csv+svg",
                            "--jobs", jobs])
        elapsed = time.perf_counter() - start
        print(f"{name}: exit {code} in {elapsed:.1f}s -> {outdir}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(run())
