#!/usr/bin/env python3
"""Time the closed-form kernel at the ``hot_bath`` size on one CPU, then on all.

The grid is the one of the ``hot_bath`` benchmark call: kbar 50 against 0.5,
delta 1, gt from 0 to 25 in 20001 times (cutoffs 1395 and 25).  The kernel
sizes its thread pool from the CPU affinity set, so the script pins its own
process to the first CPU of that set with ``os.sched_setaffinity``, times
``dynamics.states``, and then times it again on the full set.  Each side gets
one untimed call first, then ``--runs`` timed calls; the script prints their
median and quartiles in seconds and the ratio of the two medians (one CPU over
all CPUs, the speed-up of the extra threads).

Run it from the repository root:

    PYTHONPATH=src python scripts/kernel_timing.py --runs 9
"""

import argparse
import os
import statistics
import sys
import time

import numpy as np

from thermaljc import SystemParams, ThermalDistribution, dynamics


def timed(runs: int) -> list[float]:
    params = SystemParams(delta=1.0)
    dist_a, dist_b = ThermalDistribution.from_mean(50.0), ThermalDistribution.from_mean(0.5)
    t = params.times(np.linspace(0.0, 25.0, 20001))
    dynamics.states(params, dist_a, dist_b, t)  # warm caches and lazy imports
    seconds = []
    for _ in range(runs):
        start = time.perf_counter()
        dynamics.states(params, dist_a, dist_b, t)
        seconds.append(time.perf_counter() - start)
    return seconds


def report(label: str, seconds: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(seconds, n=4) if len(seconds) > 1 else seconds * 3
    print(f"{label}: median {median:.4f} s, quartiles {q1:.4f}-{q3:.4f} s, {len(seconds)} runs")
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
        one = report("1 CPU", timed(args.runs))
    finally:
        os.sched_setaffinity(0, cpus)
    every = report(f"{len(cpus)} CPUs", timed(args.runs))
    print(f"ratio 1 CPU / {len(cpus)} CPUs: {one / every:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
