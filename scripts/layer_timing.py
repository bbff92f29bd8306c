#!/usr/bin/env python3
"""Time the closed-form kernel and the text layer, case by case.

Each case gets one untimed call, then ``--runs`` timed calls, then one call
under ``tracemalloc``; the script prints the median, quartiles and slowest of
the timed calls and the traced call's peak in MB.  The slowest shows a run
whose kernel threads shared one CPU, which the quartiles can hide.

- Kernel: ``dynamics.states`` at two grids, in s.  ``hot_bath``: kbar 50
  against 0.5, delta 1, gt from 0 to 25 in 20001 times (cutoffs 1395 and 25,
  about 430 factor blocks), as in the benchmark call of that name.
  ``figure``: kbar 5 in both cavities, p 1, delta 0, gt from 0 to 25 in 2001
  times (cutoff 151, 4.7 blocks), the size of fig. 2 at kbar 5 and of the
  scan's kbar-5 configurations.  The kernel sizes its thread pool from the CPU
  affinity set and the grid, so each grid is timed with the process pinned to
  the first CPU of that set (``os.sched_setaffinity``; where the platform has
  none, this pass is skipped), then on the full set, and per grid the ratio of
  the two medians follows: the speed-up of the extra threads, whose
  workspaces raise the peak.
- Threads: cavity A's channel over one full ``hot_bath`` factor block of
  its widest slice (``dynamics._channel``, 46 times x 1397 sectors from
  sector 0), repeated on two workspaces, first by one thread, then by two
  threads pinned to the first two CPUs of the affinity set, one workspace
  each, as the kernel pins its workers; the ratio of the two medians
  follows.  Skipped without ``os.sched_setaffinity`` or with fewer than 2
  CPUs.
- Assembly: x1..x6 of one ``hot_bath`` band (``dynamics._BAND_ROWS`` times
  from gt = 1) from the channels of its two cavities
  (``dynamics._assemble``), in ns per row.
- Encoder: ``FloatText.encode`` on the 11 ``timeseries`` columns of the
  ``hot_bath`` call, as the CSV writer calls it (a new encoder, one row of
  every column per block) and as the JSON writer does (one column at a time),
  in ns per value.
- Polylines: ``svgplot._polyline`` on the 17 curves (42 417 points) that the
  ``plot`` calls of ``scripts/reproduce_figures.py`` draw, mapped to pixels as
  ``svgplot.render_plot`` maps them, in ns per coordinate.
- Validate: both routes over the default ``validate`` grid (18
  configurations) at 50 times, as ``validate --gt-max 25`` runs them, in ns
  per (configuration, time) row.  Each route is timed by configuration
  (``dynamics.states``, ``oracle.stacked_joint_density([config], t)``) and
  stacked, all 18 in one call (``dynamics.stacked_states``,
  ``oracle.stacked_joint_density``).  Next to them, the route comparison as
  ``validate`` calls it (``oracle.route_deviations``: both stacked calls and
  the gap loop over their rows), so the loop's own cost shows.
- Argv: the 18 command lines of ``scripts/reproduce_figures.py``,
  ``validate --gt-max 25``, one help line and one refused line, read by
  ``cli._read_args``, the one reader of every command line, in us per
  command line.
- Source: the line count of each ``thermaljc`` module, as ``wc -l
  src/thermaljc/*.py`` gives it, and their total.

Run it from the repository root:

    PYTHONPATH=src python scripts/layer_timing.py --runs 9
"""

import argparse
import contextlib
import importlib.util
import io
import os
import pathlib
import statistics
import sys
import tempfile
import time
import tracemalloc
from typing import Callable

import numpy as np

from thermaljc import SystemParams, ThermalDistribution, XStates, cli, dynamics, oracle, svgplot
from thermaljc.cli import _JSON_ITEM_END, EPE_HEADER, TIMESERIES_HEADER, _series_columns
from thermaljc.core import DEFAULT_EPSILON_TAIL
from thermaljc.floattext import FloatText
from thermaljc.sweep import time_series

# grid name -> (params, mean photon numbers of cavities A and B, number of times)
GRIDS = {
    "hot_bath": (SystemParams(delta=1.0), (50.0, 0.5), 20001),
    "figure": (SystemParams(p=1), (5.0, 5.0), 2001),
}


def report(label: str, work: Callable[[], object], runs: int, values: int = 0,
           unit: str = "ns/value") -> float:
    """Time ``work`` and print one line: the median, quartiles and slowest, per
    value in ``unit`` (ns/value or us/argv) when ``values`` is given and in s
    otherwise, and the traced peak.  Returns the median in s."""
    work()  # warm caches and lazy tables
    seconds = []
    for _ in range(runs):
        start = time.perf_counter()
        work()
        seconds.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        work()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    q1, median, q3 = statistics.quantiles(seconds, n=4) if runs > 1 else seconds * 3
    per_second = {"ns": 1e9, "us": 1e6}[unit[:2]]
    scale, unit, digits = (per_second / values, f" {unit}", 1) if values else (1.0, " s", 4)
    print(f"{label}: median {median * scale:.{digits}f}{unit}, quartiles"
          f" {q1 * scale:.{digits}f}-{q3 * scale:.{digits}f}{unit}, slowest"
          f" {max(seconds) * scale:.{digits}f}{unit}, {runs} runs;"
          f" traced peak {peak / 1e6:.2f} MB")
    return median


def kernel(grid: str) -> Callable[[], object]:
    params, means, times = GRIDS[grid]
    dist_a, dist_b = (ThermalDistribution.from_mean(mean) for mean in means)
    t = params.times(np.linspace(0.0, 25.0, times))
    return lambda: dynamics.states(params, dist_a, dist_b, t)


def _sectors(mean: float) -> int:
    """Sectors in the widest slice of a cavity of ``mean`` photons, from sector 0."""
    return min(ThermalDistribution.from_mean(mean).n_max + 1, dynamics._SECTOR_BLOCK) + 1


def hot_bath_channel(mean: float, rows: int) -> Callable[[], np.ndarray]:
    """The channel (d, f, a, b, r, i) of the ``hot_bath`` cavity of ``mean``
    photons at ``rows`` times from gt = 1 on, as the kernel writes it, in a
    workspace of its own."""
    params, _, times = GRIDS["hot_bath"]
    t = params.times(np.linspace(0.0, 25.0, times))[times // 25 :][:rows]  # from gt = 1
    g_eff = dynamics.effective_coupling(params, t)
    g4, quarter_t = 4.0 * g_eff * g_eff, 0.25 * t
    cavity = dynamics._cavity(ThermalDistribution.from_mean(mean).probabilities())
    sectors = _sectors(mean)
    ws = np.empty((2, sectors * min(rows, max(1, dynamics._BLOCK_ELEMENTS // sectors))))
    out = np.empty((6, rows))

    def run() -> np.ndarray:
        dynamics._channel(out, ws, g4, quarter_t, params.delta, *cavity)
        return out

    return run


def block_channel() -> Callable[[], np.ndarray]:
    """Cavity A's channel over one full factor block of the ``hot_bath`` call:
    its widest slice, sectors 0..1396, at as many times as fill the block."""
    mean_a = GRIDS["hot_bath"][1][0]
    return hot_bath_channel(mean_a, dynamics._BLOCK_ELEMENTS // _sectors(mean_a))


def band_assembly() -> tuple[int, Callable[[], object]]:
    """The rows of one ``hot_bath`` band, and a call that assembles its x1..x6
    from the channels of its two cavities."""
    rows = dynamics._BAND_ROWS
    a, b = (hot_bath_channel(mean, rows)() for mean in GRIDS["hot_bath"][1])
    state = XStates(*(np.empty(rows, complex if name == "x3" else float)
                      for name in XStates._fields))

    def run() -> XStates:
        dynamics._assemble(state, slice(None), a, b)
        return state

    return rows, run


def threads(runs: int, repeats: int = 40) -> float | None:
    """Time ``repeats`` rounds of :func:`block_channel` on each of two workspaces,
    by one thread and then by two threads each pinned to its own CPU, print
    both and their ratio, and return the ratio; None, with a note on stderr,
    where two CPUs cannot be pinned."""
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if not hasattr(os, "sched_setaffinity") or len(cpus) < 2:
        print("threads: needs os.sched_setaffinity and 2 CPUs: skipped", file=sys.stderr)
        return None
    blocks = [block_channel() for _ in range(2)]

    def rounds(k: int) -> None:
        for _ in range(repeats):
            blocks[k]()

    label = f"threads, {2 * repeats} rounds of one hot_bath block's channel"
    one = report(f"{label}, 1 thread", lambda: [rounds(k) for k in range(2)], runs)
    # the kernel's own spread: two workers, each pinned to one of two CPUs
    two = report(f"{label}, 2 threads on their own CPUs",
                 lambda: dynamics._spread(rounds, 2, cpus[:2]), runs)
    print(f"threads, ratio 1 thread / 2 threads: {one / two:.3f}")
    return one / two


def hot_bath_columns() -> list[np.ndarray]:
    params, (mean_a, mean_b), times = GRIDS["hot_bath"]
    series = time_series(params, ThermalDistribution.from_mean(mean_a),
                         ThermalDistribution.from_mean(mean_b), 25.0, times - 1)
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


def as_json(data: list[np.ndarray]) -> None:
    text = FloatText([_JSON_ITEM_END], json=True)
    for column in data:
        encode_all(text, [column])


def validate_cases() -> tuple[int, dict[str, Callable[[], list]]]:
    """The rows of the default validate grid at 50 times, and per case a call
    that evaluates them all and returns its results in grid order."""
    resolved = {"g": 1.0, "motion": True, "epsilon_tail": DEFAULT_EPSILON_TAIL,
                **cli._VALIDATE_GRID}
    configs = cli._scan_configs(resolved)
    t = oracle.validation_times(configs[0][0], 25.0, 50)

    def alone(route: Callable) -> Callable[[], list]:
        return lambda: [route(*config, t) for config in configs]

    def stacked(route: Callable) -> Callable[[], list]:
        return lambda: [route(configs, t)]

    return len(configs) * t.size, {
        "closed form, by configuration": alone(dynamics.states),
        "closed form, stacked, one call": stacked(dynamics.stacked_states),
        "oracle, by configuration":
            lambda: [oracle.stacked_joint_density([config], t) for config in configs],
        "oracle, stacked, one call": stacked(oracle.stacked_joint_density),
        "route comparison, as validate calls it": lambda: oracle.route_deviations(configs, t),
    }


def figure_argv() -> list[list[str]]:
    """The command lines ``scripts/reproduce_figures.py`` passes to the CLI,
    recorded in place of running them."""
    path = pathlib.Path(__file__).with_name("reproduce_figures.py")
    spec = importlib.util.spec_from_file_location("reproduce_figures", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    calls: list[list[str]] = []
    script.cli_main = lambda argv: calls.append(argv) or 0
    with tempfile.TemporaryDirectory() as outdir, contextlib.redirect_stdout(io.StringIO()):
        script.main(["--outdir", outdir])
    return calls


def argv_case() -> tuple[list[list[str]], Callable[[], list]]:
    """The figure and validate command lines, a help line and a refused line,
    and a call that reads them all and returns what each reads to: its
    settings, its help text or its ``UsageError``."""
    argvs = [*figure_argv(), ["validate", "--gt-max", "25"], ["scan", "--help"],
             ["validate", "--times", "x"]]

    def read_all() -> list:
        results = []
        for argv in argvs:
            try:
                results.append(cli._read_args(argv))
            except cli.UsageError as exc:
                results.append(exc)
        return results

    return argvs, read_all


def source_lines() -> dict[str, int]:
    """Newlines per module of the imported ``thermaljc``, by file name."""
    package = pathlib.Path(cli.__file__).parent
    return {path.name: path.read_bytes().count(b"\n") for path in sorted(package.glob("*.py"))}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=9, help="timed calls per case (default 9)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error(f"--runs must be >= 1, got {args.runs}")
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
    one = {}
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {min(cpus)})
            one = {grid: report(f"{grid}, 1 CPU", kernel(grid), args.runs) for grid in GRIDS}
        finally:
            os.sched_setaffinity(0, cpus)
    else:
        print("this platform has no os.sched_setaffinity: the 1-CPU pass is skipped",
              file=sys.stderr)
    label = f"{len(cpus)} CPUs" if cpus else "all CPUs"
    for grid in GRIDS:
        every = report(f"{grid}, {label}", kernel(grid), args.runs)
        if grid in one:
            print(f"{grid}, ratio 1 CPU / {label}: {one[grid] / every:.3f}")
    threads(args.runs)
    rows, work = band_assembly()
    report(f"assembly, one hot_bath band from two channels ({rows} rows)", work, args.runs, rows)
    data = hot_bath_columns()
    values = len(data) * len(data[0])
    csv = [b","] * (len(data) - 1) + [b"\n"]
    report(f"encoder, CSV ({values} values)",
           lambda: encode_all(FloatText(csv), data), args.runs, values)
    report(f"encoder, JSON ({values} values)", lambda: as_json(data), args.runs, values)
    curves = figure_curves()
    points = sum(len(xs) for _, xs, _ in curves)
    report(f"polylines ({len(curves)} curves, {2 * points} values)",
           lambda: [svgplot._polyline(mapper, xs, ys, "#000000") for mapper, xs, ys in curves],
           args.runs, 2 * points)
    rows, cases = validate_cases()
    for label, work in cases.items():
        report(f"validate, {label} ({rows} rows)", work, args.runs, rows)
    argvs, work = argv_case()
    report(f"argv, one reader ({len(argvs)} command lines)", work, args.runs, len(argvs),
           "us/argv")
    lines = source_lines()
    modules = sorted(lines.items(), key=lambda item: -item[1])
    print(f"source: {sum(lines.values())} lines in src/thermaljc"
          f" ({', '.join(f'{name} {count}' for name, count in modules)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
