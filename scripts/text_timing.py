#!/usr/bin/env python3
"""Time the text layer: the float encoder and the SVG polyline formatter.

The encoder's input is the ``hot_bath`` benchmark call's columns: kbar 50
against 0.5, delta 1, gt from 0 to 25 in 20001 times, the 11 columns of the
``timeseries`` header.  ``FloatText.encode`` writes them as the CSV writer
does (one row of every column per block) and as the JSON writer does (one
column at a time).  The polyline formatter's input is the 17 curves (42 417
points) that the ``plot`` calls of ``scripts/reproduce_figures.py`` draw,
mapped to pixels as ``svgplot.render_plot`` maps them; ``svgplot._polyline``
is timed on each.

Each of the three gets one untimed pass, then ``--runs`` timed passes; the
script prints the median and quartiles in ns per value (a float of a column,
or a coordinate of a point), then one encoder's traced peak in KiB
(``tracemalloc``, around a new ``FloatText`` that encodes all 11 columns as
CSV; no output is kept).

Run it from the repository root:

    PYTHONPATH=src python scripts/text_timing.py --runs 9
"""

import argparse
import statistics
import sys
import time
import tracemalloc

import numpy as np

from thermaljc import SystemParams, ThermalDistribution, svgplot
from thermaljc.cli import _JSON_ITEM_END, EPE_HEADER, TIMESERIES_HEADER, _series_columns
from thermaljc.floattext import FloatText
from thermaljc.sweep import time_series


def hot_bath() -> list[np.ndarray]:
    params = SystemParams(delta=1.0)
    dist_a, dist_b = ThermalDistribution.from_mean(50.0), ThermalDistribution.from_mean(0.5)
    series = time_series(params, dist_a, dist_b, 25.0, 20000)
    return list(_series_columns(series, TIMESERIES_HEADER).values())


def figure_curves() -> list[tuple[svgplot._Mapper, np.ndarray, np.ndarray]]:
    """(mapper, x, y) of every curve the figure script plots."""
    def run(kbar: float, delta: float, gt_max: float, steps: int, header: str):
        dist = ThermalDistribution.from_mean(kbar)
        series = time_series(SystemParams(delta=delta), dist, dist, gt_max, steps)
        return _series_columns(series, header)

    observables = ("concurrence", "purity", "energy")
    plots = [(run(0.0, 0.0, 7.0, 2000, TIMESERIES_HEADER), "gt", observables)]
    plots += [(run(kbar, 0.0, 25.0, 2000, TIMESERIES_HEADER), "gt", observables)
              for kbar in (0.1, 0.5, 5.0)]
    plots += [(run(0.1, delta, 60.0, 4800, TIMESERIES_HEADER), "gt", ("concurrence",))
              for delta in (0.1, 1.0, 5.0)]
    epe = run(0.1, 0.0, 25.0, 2000, EPE_HEADER)
    plots += [(epe, "purity", ("concurrence",)), (epe, "energy", ("concurrence",))]
    curves = []
    for data, x_name, names in plots:
        mapper = svgplot._Mapper(svgplot._data_range([data[x_name]]),
                                 svgplot._data_range([data[name] for name in names]))
        curves += [(mapper, data[x_name], data[name]) for name in names]
    return curves


def encode_all(text: FloatText, data: list[np.ndarray]) -> None:
    for lo in range(0, len(data[0]), text.rows):
        text.encode(data, lo)


def as_csv(data: list[np.ndarray]) -> None:
    encode_all(FloatText([b","] * (len(data) - 1) + [b"\n"]), data)


def as_json(data: list[np.ndarray]) -> None:
    text = FloatText([_JSON_ITEM_END], json=True)
    for column in data:
        encode_all(text, [column])


def timed(work, runs: int, values: int) -> list[float]:
    work()  # warm caches and lazy tables
    ns = []
    for _ in range(runs):
        start = time.perf_counter()
        work()
        ns.append((time.perf_counter() - start) / values * 1e9)
    return ns


def report(label: str, ns: list[float]) -> None:
    q1, median, q3 = statistics.quantiles(ns, n=4) if len(ns) > 1 else ns * 3
    print(f"{label}: median {median:.1f} ns/value, quartiles {q1:.1f}-{q3:.1f}, {len(ns)} runs")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=9, help="timed passes per case (default 9)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error(f"--runs must be >= 1, got {args.runs}")
    data = hot_bath()
    values = len(data) * len(data[0])
    report(f"encoder, CSV ({values} values)", timed(lambda: as_csv(data), args.runs, values))
    report(f"encoder, JSON ({values} values)", timed(lambda: as_json(data), args.runs, values))
    curves = figure_curves()
    points = sum(len(xs) for _, xs, _ in curves)

    def polylines() -> None:
        for mapper, xs, ys in curves:
            svgplot._polyline(mapper, xs, ys, "#000000")

    report(f"polylines ({len(curves)} curves, {2 * points} values)",
           timed(polylines, args.runs, 2 * points))
    tracemalloc.start()
    try:
        as_csv(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"encoder, CSV: traced peak {peak / 1024:.0f} KiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
