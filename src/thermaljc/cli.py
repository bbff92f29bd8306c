"""Command-line interface: emits time series and entanglement-purity-energy
trajectories as CSV/JSON, runs parameter scans, cross-validates the closed
form against the brute-force route, and renders standalone SVG plots.

Exit codes: 0 success, 1 usage error, 2 I/O or input-format error,
3 validation failure (excess deviation or uncertified truncation).
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import (
    DEFAULT_EPSILON_TAIL,
    SystemParams,
    ThermalDistribution,
    TruncationError,
)
from .oracle import ORACLE_TOL, max_route_deviation, validation_grid
from .svgplot import render_plot
from .sweep import SweepReport, scan, time_series

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VALIDATION = 3

ENV_EPSILON = "THERMALJC_EPSILON_TAIL"

TIMESERIES_HEADER = "gt,g_eff,x1,x2,x3_re,x3_im,x5,x6,concurrence,purity,energy"
EPE_HEADER = "gt,concurrence,purity,energy"
SCAN_HEADER = (
    "p,kbar,lbar,delta,max_concurrence,min_concurrence,max_purity,min_purity,"
    "max_energy,min_energy,dead_intervals,period"
)

PROJECTIONS = {
    "c-vs-u": ("energy", "concurrence"),
    "c-vs-p": ("purity", "concurrence"),
}


class UsageError(Exception):
    """Bad flags, bad config keys, or out-of-range run parameters."""


class CsvFormatError(Exception):
    """An input CSV does not parse; the message names file and line."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_int(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _parse_float(text: str) -> float:
    try:
        value = float(text.strip())
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _parse_format(text: str) -> str:
    value = text.strip().lower()
    if value not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {text!r}")
    return value


def _parse_int_list(text: str) -> tuple[int, ...]:
    items = tuple(_parse_int(part) for part in text.split(",") if part.strip())
    if not items:
        raise ValueError(f"expected a comma-separated list, got {text!r}")
    return items


def _parse_float_list(text: str) -> tuple[float, ...]:
    items = tuple(_parse_float(part) for part in text.split(",") if part.strip())
    if not items:
        raise ValueError(f"expected a comma-separated list, got {text!r}")
    return items


def _parse_columns(text: str) -> tuple[str, ...]:
    items = tuple(part.strip() for part in text.split(",") if part.strip())
    if not items:
        raise ValueError(f"expected a comma-separated column list, got {text!r}")
    return items


def _default_epsilon() -> float:
    raw = os.environ.get(ENV_EPSILON)
    if raw is None:
        return DEFAULT_EPSILON_TAIL
    try:
        return _parse_float(raw)
    except ValueError as exc:
        raise UsageError(f"{ENV_EPSILON}: {exc}") from None


def _parse_config_file(path: str) -> dict[str, str]:
    """Read key=value lines; values stay raw strings until the owning
    subcommand parses them with the same parser its flag would use."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise UsageError(f"{path}:{lineno}: expected key=value")
        entries[key.strip().replace("-", "_")] = value.strip()
    return entries


# key -> (parser for config-file strings, default or callable default)
KeyTable = dict[str, tuple[Callable[[str], object], object]]

_SINGLE_RUN_KEYS: KeyTable = {
    "p": (_parse_int, 1),
    "kbar": (_parse_float, 0.1),
    "lbar": (_parse_float, None),
    "delta": (_parse_float, 0.0),
    "g": (_parse_float, 1.0),
    "motion": (_parse_bool, True),
    "gt_max": (_parse_float, 25.0),
    "steps": (_parse_int, 2000),
    "epsilon_tail": (_parse_float, _default_epsilon),
    "format": (_parse_format, "csv"),
    "output": (str, None),
    "timestamp": (_parse_bool, True),
}

_SCAN_KEYS: KeyTable = {
    **_SINGLE_RUN_KEYS,
    "p": (_parse_int_list, (1,)),
    "kbar": (_parse_float_list, (0.1,)),
    "lbar": (_parse_float_list, None),
    "delta": (_parse_float_list, (0.0,)),
    "window_lo": (_parse_float, 0.0),
}

_VALIDATE_KEYS: KeyTable = {
    "p": (_parse_int, None),
    "kbar": (_parse_float, None),
    "lbar": (_parse_float, None),
    "delta": (_parse_float, None),
    "g": (_parse_float, 1.0),
    "motion": (_parse_bool, True),
    "gt_max": (_parse_float, 25.0),
    "times": (_parse_int, 50),
    "epsilon_tail": (_parse_float, _default_epsilon),
}

_PLOT_KEYS: KeyTable = {
    "input": (str, None),
    "output": (str, None),
    "columns": (_parse_columns, None),
    "projection": (str, None),
    "title": (str, ""),
}


def _resolve(args: argparse.Namespace, keys: KeyTable) -> dict[str, object]:
    """Merge flag > config-file > default (env feeds the epsilon default)."""
    config = _parse_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = sorted(set(config) - set(keys))
    if unknown:
        raise UsageError(f"config keys not accepted here: {', '.join(unknown)}")
    resolved: dict[str, object] = {}
    for key, (parse, default) in keys.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
        elif key in config:
            try:
                resolved[key] = parse(config[key])
            except ValueError as exc:
                raise UsageError(f"config key {key}: {exc}") from None
        else:
            resolved[key] = default() if callable(default) else default
    return resolved


def _build_problem(
    p: int, kbar: float, lbar: float, delta: float, g: float, motion: bool,
    epsilon_tail: float,
) -> tuple[SystemParams, ThermalDistribution, ThermalDistribution]:
    try:
        params = SystemParams(g=g, delta=delta, p=p, motion_enabled=motion)
        dist_a = ThermalDistribution.from_mean(kbar, epsilon_tail)
        dist_b = (
            dist_a if lbar == kbar else ThermalDistribution.from_mean(lbar, epsilon_tail)
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return params, dist_a, dist_b


def _format_value(value: float) -> str:
    return repr(float(value))


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _metadata(subcommand: str, resolved: dict[str, object]) -> dict[str, object]:
    meta: dict[str, object] = {"subcommand": subcommand}
    for key, value in resolved.items():
        if key in ("output", "format", "timestamp"):
            continue
        if isinstance(value, tuple):
            value = list(value)
        meta[key] = value
    if resolved.get("timestamp", True):
        meta["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return meta


def _json_text(metadata: dict[str, object], payload: dict[str, object]) -> str:
    return json.dumps({"metadata": metadata, **payload}, indent=2) + "\n"


def _csv_text(header: str, rows: Iterable[Iterable[str]]) -> str:
    return "\n".join([header, *(",".join(row) for row in rows)]) + "\n"


def _write_columns(
    output: str,
    resolved: dict[str, object],
    subcommand: str,
    header: str,
    columns: dict[str, np.ndarray],
) -> None:
    """Write equal-length float columns as CSV rows or as JSON lists.

    ``tolist`` yields Python floats, whose repr is the shortest round-trip
    text and matches what ``json`` writes for the same value."""
    if resolved["format"] == "csv":
        rows = zip(*(column.tolist() for column in columns.values()))
        _write_text(output, _csv_text(header, (map(repr, row) for row in rows)))
    else:
        payload = {"columns": {k: column.tolist() for k, column in columns.items()}}
        _write_text(output, _json_text(_metadata(subcommand, resolved), payload))


def _require_output(resolved: dict[str, object]) -> str:
    output = resolved.get("output")
    if not output:
        raise UsageError("--output is required")
    return str(output)


def _run_timeseries(args: argparse.Namespace) -> int:
    resolved = _resolve(args, _SINGLE_RUN_KEYS)
    if resolved["lbar"] is None:
        resolved["lbar"] = resolved["kbar"]
    output = _require_output(resolved)
    params, dist_a, dist_b = _build_problem(
        resolved["p"], resolved["kbar"], resolved["lbar"], resolved["delta"],
        resolved["g"], resolved["motion"], resolved["epsilon_tail"],
    )
    try:
        series = time_series(
            params, dist_a, dist_b, resolved["gt_max"], resolved["steps"]
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    columns = {
        "gt": series.gt,
        "g_eff": series.g_eff,
        "x1": series.x1,
        "x2": series.x2,
        "x3_re": series.x3.real,
        "x3_im": series.x3.imag,
        "x5": series.x5,
        "x6": series.x6,
        "concurrence": series.concurrence,
        "purity": series.purity,
        "energy": series.energy,
    }
    _write_columns(output, resolved, "timeseries", TIMESERIES_HEADER, columns)
    return EXIT_OK


def _run_epe(args: argparse.Namespace) -> int:
    resolved = _resolve(args, _SINGLE_RUN_KEYS)
    if resolved["lbar"] is None:
        resolved["lbar"] = resolved["kbar"]
    output = _require_output(resolved)
    params, dist_a, dist_b = _build_problem(
        resolved["p"], resolved["kbar"], resolved["lbar"], resolved["delta"],
        resolved["g"], resolved["motion"], resolved["epsilon_tail"],
    )
    try:
        series = time_series(
            params, dist_a, dist_b, resolved["gt_max"], resolved["steps"]
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    columns = {
        "gt": series.gt,
        "concurrence": series.concurrence,
        "purity": series.purity,
        "energy": series.energy,
    }
    _write_columns(output, resolved, "epe", EPE_HEADER, columns)
    return EXIT_OK


def _scan_configs(
    resolved: dict[str, object],
) -> list[tuple[SystemParams, ThermalDistribution, ThermalDistribution]]:
    kbars = resolved["kbar"]
    lbars = resolved["lbar"]
    if lbars is None:
        pairs = [(k, k) for k in kbars]
    else:
        pairs = [(k, l) for k in kbars for l in lbars]
    configs = []
    for p in resolved["p"]:
        for kbar, lbar in pairs:
            for delta in resolved["delta"]:
                configs.append(
                    _build_problem(
                        p, kbar, lbar, delta, resolved["g"], resolved["motion"],
                        resolved["epsilon_tail"],
                    )
                )
    return configs


def _report_row(report: SweepReport) -> list[str]:
    return [
        repr(report.p),
        _format_value(report.mean_a),
        _format_value(report.mean_b),
        _format_value(report.delta),
        _format_value(report.max_concurrence),
        _format_value(report.min_concurrence),
        _format_value(report.max_purity),
        _format_value(report.min_purity),
        _format_value(report.max_energy),
        _format_value(report.min_energy),
        repr(len(report.dead_intervals)),
        "" if report.period is None else _format_value(report.period),
    ]


def _run_scan(args: argparse.Namespace) -> int:
    resolved = _resolve(args, _SCAN_KEYS)
    output = _require_output(resolved)
    configs = _scan_configs(resolved)
    try:
        reports = scan(
            configs, resolved["gt_max"], resolved["steps"], resolved["window_lo"]
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if resolved["format"] == "csv":
        _write_text(
            output, _csv_text(SCAN_HEADER, [_report_row(r) for r in reports])
        )
    else:
        payload = {
            "reports": [
                {
                    "p": r.p,
                    "kbar": r.mean_a,
                    "lbar": r.mean_b,
                    "delta": r.delta,
                    "max_concurrence": r.max_concurrence,
                    "min_concurrence": r.min_concurrence,
                    "max_purity": r.max_purity,
                    "min_purity": r.min_purity,
                    "max_energy": r.max_energy,
                    "min_energy": r.min_energy,
                    "dead_intervals": [list(iv) for iv in r.dead_intervals],
                    "period": r.period,
                }
                for r in reports
            ]
        }
        _write_text(output, _json_text(_metadata("scan", resolved), payload))
    return EXIT_OK


def _run_validate(args: argparse.Namespace) -> int:
    resolved = _resolve(args, _VALIDATE_KEYS)
    single = any(resolved[key] is not None for key in ("p", "kbar", "lbar", "delta"))
    if single:
        p = resolved["p"] if resolved["p"] is not None else 1
        kbar = resolved["kbar"] if resolved["kbar"] is not None else 0.1
        lbar = resolved["lbar"] if resolved["lbar"] is not None else kbar
        delta = resolved["delta"] if resolved["delta"] is not None else 0.0
        params, dist_a, dist_b = _build_problem(
            p, kbar, lbar, delta, resolved["g"], resolved["motion"],
            resolved["epsilon_tail"],
        )
        times = np.linspace(0.0, resolved["gt_max"], resolved["times"]) / resolved["g"]
        deviation = max_route_deviation(params, dist_a, dist_b, times)
        ok = deviation <= ORACLE_TOL
        print(
            f"p={p} kbar={kbar} lbar={lbar} delta={delta} "
            f"max_deviation={deviation:.3e} {'ok' if ok else 'FAILED'}"
        )
        return EXIT_OK if ok else EXIT_VALIDATION
    results = validation_grid(
        gt_max=resolved["gt_max"],
        times=resolved["times"],
        epsilon_tail=resolved["epsilon_tail"],
        g=resolved["g"],
        motion_enabled=resolved["motion"],
    )
    all_ok = True
    for result in results:
        if result.failure is not None:
            line = f"FAILED ({result.failure})"
        elif result.ok():
            line = f"max_deviation={result.max_deviation:.3e} ok"
        else:
            line = f"max_deviation={result.max_deviation:.3e} FAILED"
        print(
            f"p={result.p} kbar={result.mean_a} lbar={result.mean_b} "
            f"delta={result.delta} {line}"
        )
        all_ok = all_ok and result.ok()
    print(f"validate: {'all configurations ok' if all_ok else 'FAILURES above'} "
          f"(tolerance {ORACLE_TOL:g})")
    return EXIT_OK if all_ok else EXIT_VALIDATION


def _read_csv(path: str) -> dict[str, np.ndarray]:
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        raise CsvFormatError(f"{path}:1: empty file")
    header = lines[0].split(",")
    if len(header) < 2 or any(not name for name in header):
        raise CsvFormatError(f"{path}:1: malformed header {lines[0]!r}")
    if len(set(header)) != len(header):
        raise CsvFormatError(f"{path}:1: duplicate column names")
    columns: dict[str, list[float]] = {name: [] for name in header}
    for lineno, line in enumerate(lines[1:], 2):
        fields = line.split(",")
        if len(fields) != len(header):
            raise CsvFormatError(
                f"{path}:{lineno}: expected {len(header)} fields, found {len(fields)}"
            )
        for name, field in zip(header, fields):
            try:
                columns[name].append(float(field))
            except ValueError:
                raise CsvFormatError(
                    f"{path}:{lineno}: not a number: {field!r}"
                ) from None
    if not columns[header[0]]:
        raise CsvFormatError(f"{path}:2: no data rows")
    return {name: np.asarray(values) for name, values in columns.items()}


def _run_plot(args: argparse.Namespace) -> int:
    resolved = _resolve(args, _PLOT_KEYS)
    if not resolved["input"]:
        raise UsageError("--input is required")
    output = _require_output(resolved)
    if resolved["projection"] is not None and resolved["columns"] is not None:
        raise UsageError("--projection and --columns are mutually exclusive")
    data = _read_csv(str(resolved["input"]))
    title = str(resolved["title"])
    if resolved["projection"] is not None:
        projection = str(resolved["projection"])
        if projection not in PROJECTIONS:
            raise UsageError(
                f"unknown projection {projection!r}; choose from "
                f"{', '.join(sorted(PROJECTIONS))}"
            )
        x_name, y_name = PROJECTIONS[projection]
        for name in (x_name, y_name):
            if name not in data:
                raise UsageError(f"input has no column {name!r}")
        curves = [(y_name, data[x_name], data[y_name])]
        svg = render_plot(curves, x_name, y_name, title)
    else:
        columns = resolved["columns"] or ("concurrence", "purity", "energy")
        if "gt" not in data:
            raise UsageError("input has no column 'gt'")
        missing = [name for name in columns if name not in data]
        if missing:
            raise UsageError(f"input has no column {missing[0]!r}")
        curves = [(name, data["gt"], data[name]) for name in columns]
        svg = render_plot(curves, "gt", " / ".join(columns), title)
    _write_text(output, svg)
    return EXIT_OK


def _add_config_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config", metavar="FILE",
        help="key=value file supplying any flag of this subcommand",
    )


def _add_single_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=_parse_int, help="field-mode half-wavelength count")
    parser.add_argument("--kbar", type=_parse_float, help="mean photons, cavity a")
    parser.add_argument("--lbar", type=_parse_float, help="mean photons, cavity b (default: kbar)")
    parser.add_argument("--delta", type=_parse_float, help="atom-cavity detuning")
    parser.add_argument("--g", type=_parse_float, help="coupling strength (time scale)")
    parser.add_argument("--motion", action=argparse.BooleanOptionalAction, default=None,
                        help="atomic motion on/off (default: on)")
    parser.add_argument("--gt-max", type=_parse_float, dest="gt_max", help="grid end in gt units")
    parser.add_argument("--steps", type=_parse_int, help="grid intervals (points = steps + 1)")
    parser.add_argument("--epsilon-tail", type=_parse_float, dest="epsilon_tail",
                        help="thermal tail tolerance")
    parser.add_argument("--format", type=_parse_format, help="csv or json")
    parser.add_argument("--output", help="output file path")
    parser.add_argument("--no-timestamp", action="store_const", const=False,
                        dest="timestamp", default=None,
                        help="omit the timestamp from JSON metadata")
    _add_config_flag(parser)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="thermaljc", allow_abbrev=False, description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    ts = commands.add_parser(
        "timeseries", allow_abbrev=False,
        help="state elements and observables on a uniform gt grid",
    )
    _add_single_run_flags(ts)

    epe = commands.add_parser(
        "epe", allow_abbrev=False,
        help="concurrence-purity-energy trajectory on a uniform gt grid",
    )
    _add_single_run_flags(epe)

    sc = commands.add_parser(
        "scan", allow_abbrev=False,
        help="summaries over a grid of configurations (comma lists crossed; "
        "omitted --lbar mirrors each --kbar value)",
    )
    sc.add_argument("--p", type=_parse_int_list, help="comma list of p values")
    sc.add_argument("--kbar", type=_parse_float_list, help="comma list of means, cavity a")
    sc.add_argument("--lbar", type=_parse_float_list, help="comma list of means, cavity b")
    sc.add_argument("--delta", type=_parse_float_list, help="comma list of detunings")
    sc.add_argument("--g", type=_parse_float)
    sc.add_argument("--motion", action=argparse.BooleanOptionalAction, default=None)
    sc.add_argument("--gt-max", type=_parse_float, dest="gt_max")
    sc.add_argument("--steps", type=_parse_int)
    sc.add_argument("--epsilon-tail", type=_parse_float, dest="epsilon_tail")
    sc.add_argument("--window-lo", type=_parse_float, dest="window_lo",
                    help="report extrema over gt >= this value only")
    sc.add_argument("--format", type=_parse_format)
    sc.add_argument("--output")
    sc.add_argument("--no-timestamp", action="store_const", const=False,
                    dest="timestamp", default=None)
    _add_config_flag(sc)

    va = commands.add_parser(
        "validate", allow_abbrev=False,
        help="compare the closed form against the brute-force route "
        "(default grid, or one configuration if any of --p/--kbar/--lbar/--delta is given)",
    )
    va.add_argument("--p", type=_parse_int)
    va.add_argument("--kbar", type=_parse_float)
    va.add_argument("--lbar", type=_parse_float)
    va.add_argument("--delta", type=_parse_float)
    va.add_argument("--g", type=_parse_float)
    va.add_argument("--motion", action=argparse.BooleanOptionalAction, default=None)
    va.add_argument("--gt-max", type=_parse_float, dest="gt_max")
    va.add_argument("--times", type=_parse_int, help="number of sampled time points")
    va.add_argument("--epsilon-tail", type=_parse_float, dest="epsilon_tail")
    _add_config_flag(va)

    pl = commands.add_parser(
        "plot", allow_abbrev=False,
        help="render an SVG from a CSV produced by this tool",
    )
    pl.add_argument("--input", help="CSV file to read")
    pl.add_argument("--output", help="SVG file to write")
    pl.add_argument("--columns", type=_parse_columns,
                    help="comma list of columns to draw against gt "
                    "(default: concurrence,purity,energy)")
    pl.add_argument("--projection", choices=sorted(PROJECTIONS),
                    help="draw one planar trajectory projection instead")
    pl.add_argument("--title", help="plot title")
    _add_config_flag(pl)

    return parser


_RUNNERS = {
    "timeseries": _run_timeseries,
    "epe": _run_epe,
    "scan": _run_scan,
    "validate": _run_validate,
    "plot": _run_plot,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _RUNNERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CsvFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except TruncationError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
