#!/usr/bin/env python3
"""Time the closed-form kernel at two grid sizes on one CPU, then on all.

The grids are those of two benchmark calls.  ``hot_bath``: kbar 50 against
0.5, delta 1, gt from 0 to 25 in 20001 times (cutoffs 1395 and 25, about 430
factor blocks).  ``figure``: kbar 5 in both cavities, p 1, delta 0, gt from 0
to 25 in 2001 times (cutoff 151, 4.7 blocks), the size of fig. 2 at kbar 5
and of the scan's kbar-5 configurations.  The kernel sizes its thread pool
from the CPU affinity set and the grid (one thread per three blocks), so the
script pins its own process to the first CPU of that set with
``os.sched_setaffinity``, times ``dynamics.states``, and then times it again
on the full set.  Each grid and side gets one untimed call first, then
``--runs`` timed calls, then one call under ``tracemalloc``; the script prints
the median and quartiles of the timed calls in seconds, the traced call's peak
in MB (the kernel's workspaces grow with its thread count), and per grid the
ratio of the two medians (one CPU over all CPUs, the speed-up of the extra
threads).

Run it from the repository root:

    PYTHONPATH=src python scripts/kernel_timing.py --runs 9
"""

import argparse
import os
import statistics
import sys
import time
import tracemalloc

import numpy as np

from thermaljc import SystemParams, ThermalDistribution, dynamics

# grid name -> (params, mean photon numbers of cavities A and B, number of times)
GRIDS = {
    "hot_bath": (SystemParams(delta=1.0), (50.0, 0.5), 20001),
    "figure": (SystemParams(p=1), (5.0, 5.0), 2001),
}


def timed(grid: str, runs: int) -> tuple[list[float], int]:
    params, means, times = GRIDS[grid]
    dist_a, dist_b = (ThermalDistribution.from_mean(mean) for mean in means)
    t = params.times(np.linspace(0.0, 25.0, times))
    dynamics.states(params, dist_a, dist_b, t)  # warm caches and lazy imports
    seconds = []
    for _ in range(runs):
        start = time.perf_counter()
        dynamics.states(params, dist_a, dist_b, t)
        seconds.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        dynamics.states(params, dist_a, dist_b, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return seconds, peak


def report(label: str, seconds: list[float], peak: int) -> float:
    q1, median, q3 = statistics.quantiles(seconds, n=4) if len(seconds) > 1 else seconds * 3
    print(f"{label}: median {median:.4f} s, quartiles {q1:.4f}-{q3:.4f} s, {len(seconds)} runs;"
          f" traced peak {peak / 1e6:.2f} MB")
    return median


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=9, help="timed calls per side (default 9)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error(f"--runs must be >= 1, got {args.runs}")
    if not hasattr(os, "sched_setaffinity"):
        print("this platform has no os.sched_setaffinity; cannot pin to one CPU", file=sys.stderr)
        return 1
    cpus = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {min(cpus)})
        one = {grid: report(f"{grid}, 1 CPU", *timed(grid, args.runs)) for grid in GRIDS}
    finally:
        os.sched_setaffinity(0, cpus)
    for grid in GRIDS:
        every = report(f"{grid}, {len(cpus)} CPUs", *timed(grid, args.runs))
        print(f"{grid}, ratio 1 CPU / {len(cpus)} CPUs: {one[grid] / every:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
