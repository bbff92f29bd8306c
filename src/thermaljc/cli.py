"""Command-line interface: emits time series and entanglement-purity-energy
trajectories as CSV/JSON, runs parameter scans, cross-validates the closed
form against the brute-force route, and renders standalone SVG plots.

Exit codes: 0 success, 1 usage error, 2 I/O or input-format error,
3 validation failure (excess deviation or uncertified truncation).
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import os
import sys
from dataclasses import asdict
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from .core import (
    DEFAULT_EPSILON_TAIL,
    SystemParams,
    ThermalDistribution,
    TruncationError,
)
from .oracle import (
    ORACLE_TOL,
    ValidationResult,
    max_route_deviation,
    validation_grid,
    validation_times,
)
from .svgplot import render_plot
from .sweep import scan, time_series

if TYPE_CHECKING:
    from .floattext import FloatText

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


def _parse_projection(text: str) -> str:
    if text not in PROJECTIONS:
        raise ValueError(
            f"unknown projection {text!r}; choose from {', '.join(sorted(PROJECTIONS))}"
        )
    return text


def _list_of(parse: Callable[[str], object]) -> Callable[[str], tuple]:
    def parse_list(text: str) -> tuple:
        items = tuple(parse(part) for part in text.split(",") if part.strip())
        if not items:
            raise ValueError(f"expected a comma-separated list, got {text!r}")
        return items

    return parse_list


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


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _utf8_text(path: str, data: bytes, error: type[Exception]) -> str:
    """``data`` decoded; ``error`` names the line of the first byte that is not
    UTF-8 (newlines before it, plus one).  ``str.splitlines`` on the result
    splits where text-mode reading followed by it did."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{lineno}: not UTF-8 text") from None


def _parse_config_file(path: str) -> dict[str, str]:
    """Read key=value lines; values stay raw strings until the owning
    subcommand parses them with the same parser its flag would use."""
    text = _utf8_text(path, _read_bytes(path), UsageError)
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


# The one declaration of every setting of a subcommand: its flag (the key with
# hyphens), its config-file key, and the parser both share.
# key -> (parser of flag and config-file text, default or callable default, help)
KeyTable = dict[str, tuple[Callable[[str], object], object, str]]

_SINGLE_RUN_KEYS: KeyTable = {
    "p": (_parse_int, 1, "field-mode half-wavelength count"),
    "kbar": (_parse_float, 0.1, "mean photons, cavity a"),
    "lbar": (_parse_float, None, "mean photons, cavity b (default: kbar)"),
    "delta": (_parse_float, 0.0, "atom-cavity detuning"),
    "g": (_parse_float, 1.0, "coupling strength (time scale)"),
    "motion": (_parse_bool, True, "atomic motion on/off (default: on)"),
    "gt_max": (_parse_float, 25.0, "grid end in gt units"),
    "steps": (_parse_int, 2000, "grid intervals (points = steps + 1)"),
    "epsilon_tail": (_parse_float, _default_epsilon, "thermal tail tolerance"),
    "format": (_parse_format, "csv", "csv or json"),
    "output": (str, None, "output file path"),
    "timestamp": (_parse_bool, True, "omit the timestamp from JSON metadata"),
}

_SCAN_KEYS: KeyTable = {
    **_SINGLE_RUN_KEYS,
    "p": (_list_of(_parse_int), (1,), "comma list of p values"),
    "kbar": (_list_of(_parse_float), (0.1,), "comma list of means, cavity a"),
    "lbar": (_list_of(_parse_float), None, "comma list of means, cavity b"),
    "delta": (_list_of(_parse_float), (0.0,), "comma list of detunings"),
    "window_lo": (_parse_float, 0.0, "report extrema over gt >= this value only"),
}

_VALIDATE_KEYS: KeyTable = {
    "p": (_parse_int, None, "field-mode half-wavelength count (default: 1)"),
    "kbar": (_parse_float, None, "mean photons, cavity a (default: 0.1)"),
    "lbar": (_parse_float, None, "mean photons, cavity b (default: kbar)"),
    "delta": (_parse_float, None, "atom-cavity detuning (default: 0)"),
    **{key: _SINGLE_RUN_KEYS[key] for key in ("g", "motion", "gt_max")},
    "times": (_parse_int, 50, "number of sampled time points"),
    "epsilon_tail": _SINGLE_RUN_KEYS["epsilon_tail"],
}

_PLOT_KEYS: KeyTable = {
    "input": (str, None, "CSV file to read"),
    "output": (str, None, "SVG file to write"),
    "columns": (_parse_columns, None, "comma list of columns to draw against gt "
                "(default: concurrence,purity,energy)"),
    "projection": (_parse_projection, None, "draw one planar trajectory "
                   f"projection instead: {' or '.join(sorted(PROJECTIONS))}"),
    "title": (str, "", "plot title"),
}


def _flag_type(parse: Callable[[str], object]) -> Callable[[str], object]:
    """Let a flag report the same reason a config-file value gets."""

    def flag_type(text: str) -> object:
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return flag_type


def _add_flags(parser: argparse.ArgumentParser, keys: KeyTable) -> None:
    for key, (parse, _, help_text) in keys.items():
        if key == "timestamp":
            parser.add_argument("--no-timestamp", action="store_const", const=False,
                                dest=key, help=help_text)
        elif parse is _parse_bool:
            parser.add_argument(f"--{key}", action=argparse.BooleanOptionalAction,
                                help=help_text)
        else:
            parser.add_argument(f"--{key.replace('_', '-')}", dest=key,
                                type=_flag_type(parse), help=help_text)
    parser.add_argument(
        "--config", metavar="FILE",
        help="key=value file supplying any flag of this subcommand",
    )


def _resolve(args: argparse.Namespace, keys: KeyTable) -> dict[str, object]:
    """Merge flag > config-file > default (env feeds the epsilon default)."""
    config = _parse_config_file(args.config) if args.config else {}
    unknown = sorted(set(config) - set(keys))
    if unknown:
        raise UsageError(f"config keys not accepted here: {', '.join(unknown)}")
    resolved: dict[str, object] = {}
    for key, (parse, default, _) in keys.items():
        flag_value = getattr(args, key)
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
    resolved: dict[str, object], p: int, kbar: float, lbar: float, delta: float
) -> tuple[SystemParams, ThermalDistribution, ThermalDistribution]:
    """One configuration; g, motion and the tail tolerance come from ``resolved``."""
    epsilon_tail = resolved["epsilon_tail"]
    try:
        params = SystemParams(
            g=resolved["g"], delta=delta, p=p, motion_enabled=resolved["motion"]
        )
        dist_a = ThermalDistribution.from_mean(kbar, epsilon_tail)
        dist_b = (
            dist_a if lbar == kbar else ThermalDistribution.from_mean(lbar, epsilon_tail)
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return params, dist_a, dist_b


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _metadata(subcommand: str, resolved: dict[str, object]) -> dict[str, object]:
    meta: dict[str, object] = {"subcommand": subcommand}
    for key, value in resolved.items():
        if key not in ("output", "format", "timestamp"):
            meta[key] = value
    if resolved.get("timestamp", True):
        meta["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return meta


def _json_text(metadata: dict[str, object], payload: dict[str, object]) -> str:
    return json.dumps({"metadata": metadata, **payload}, indent=2) + "\n"


def _csv_text(header: str, rows: Iterable[Iterable[str]]) -> str:
    return "\n".join([header, *(",".join(row) for row in rows)]) + "\n"


# Lines per block of _parse_csv.
_READ_ROWS = 512
# What follows each item of a JSON list, as indent=2 joins them 3 deep.
_JSON_ITEM_END = b",\n      "

# The CSV this process wrote last, as (real path, SHA-256 of its bytes, its
# columns by reference), kept only when parsing those bytes gives the columns
# back.  _read_csv returns the columns for a file of the same path and digest,
# so a script that writes and then plots through main parses nothing twice;
# main empties the slot before every subcommand but plot.
_written: tuple[str, bytes, dict[str, np.ndarray]] | None = None


def _sha256(data: bytes = b""):
    import hashlib  # on first use: most commands never hash, and start-up counts

    return hashlib.sha256(data)


def _write_columns(
    output: str,
    resolved: dict[str, object],
    subcommand: str,
    header: str,
    columns: dict[str, np.ndarray],
) -> None:
    """Write equal-length float columns as CSV rows or JSON lists, a block of
    rows at a time, with the bytes ``_csv_text``/``_json_text`` give the whole.

    Every value is written as its ``repr``, the shortest round-trip text,
    which is also what ``json`` writes for a finite float; one ``FloatText``
    encoder makes the text of a whole block."""
    from .floattext import FloatText  # on first use: most commands write no columns

    if resolved["format"] == "csv":
        separators = [b","] * (len(columns) - 1) + [b"\n"]
        _write_csv(output, header, columns, FloatText(separators))
        return
    text = FloatText([_JSON_ITEM_END], json=True)
    with open(output, "wb") as handle:
        head = {"metadata": _metadata(subcommand, resolved), "columns": {}}
        handle.write((json.dumps(head, indent=2).removesuffix("{}\n}") + "{").encode())
        for i, (name, column) in enumerate(columns.items()):
            handle.write(f"{',' if i else ''}\n    {json.dumps(name)}: [".encode())
            for lo in range(0, len(column), text.rows):
                handle.write(_JSON_ITEM_END if lo else b"\n      ")
                handle.write(memoryview(text.encode([column], lo))[: -len(_JSON_ITEM_END)])
            handle.write(b"\n    ]")
        handle.write(b"\n  }\n}\n")


def _write_csv(
    output: str, header: str, columns: dict[str, np.ndarray], text: FloatText
) -> None:
    """``_write_columns``' CSV.  It fills the ``_written`` slot when the header
    names the columns and every value is finite: ``float(repr(x))`` is ``x``
    bit for bit for a finite double (-0.0 included), so ``_read_csv`` would
    parse the file back into ``columns``, while a non-finite value is an
    input error there."""
    global _written
    _written = None
    reusable = header.split(",") == list(columns) and all(
        np.isfinite(column).all() for column in columns.values()
    )
    digest = _sha256() if reusable else None
    with open(output, "wb") as handle:

        def put(data: bytes | bytearray) -> None:
            handle.write(data)
            if digest is not None:
                digest.update(data)

        put((header + "\n").encode("utf-8"))
        for lo in range(0, len(columns["gt"]), text.rows):
            put(text.encode(columns.values(), lo))
    if digest is not None:
        _written = (os.path.realpath(output), digest.digest(), dict(columns))


def _require_output(resolved: dict[str, object]) -> str:
    output = resolved.get("output")
    if not output:
        raise UsageError("--output is required")
    return str(output)


_SERIES_HEADERS = {"timeseries": TIMESERIES_HEADER, "epe": EPE_HEADER}


def _run_series(command: str, resolved: dict[str, object]) -> int:
    """timeseries and epe: one grid run, written as the columns of the header."""
    if resolved["lbar"] is None:
        resolved["lbar"] = resolved["kbar"]
    output = _require_output(resolved)
    params, dist_a, dist_b = _build_problem(
        resolved, resolved["p"], resolved["kbar"], resolved["lbar"], resolved["delta"]
    )
    try:
        series = time_series(
            params, dist_a, dist_b, resolved["gt_max"], resolved["steps"]
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    header = _SERIES_HEADERS[command]
    x3_parts = {"x3_re": series.x3.real, "x3_im": series.x3.imag}
    columns = {
        name: x3_parts[name] if name in x3_parts else getattr(series, name)
        for name in header.split(",")
    }
    _write_columns(output, resolved, command, header, columns)
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
    return [
        _build_problem(resolved, p, kbar, lbar, delta)
        for p in resolved["p"]
        for kbar, lbar in pairs
        for delta in resolved["delta"]
    ]


def _scan_cell(value: object) -> str:
    """A scan CSV cell: dead intervals as their count, a missing period blank."""
    if value is None:
        return ""
    return repr(len(value)) if isinstance(value, tuple) else repr(value)


def _run_scan(command: str, resolved: dict[str, object]) -> int:
    output = _require_output(resolved)
    configs = _scan_configs(resolved)
    try:
        reports = scan(
            configs, resolved["gt_max"], resolved["steps"], resolved["window_lo"]
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    rows = [asdict(report) for report in reports]
    if resolved["format"] == "csv":
        text = _csv_text(SCAN_HEADER, (map(_scan_cell, row.values()) for row in rows))
    else:
        text = _json_text(_metadata(command, resolved), {"reports": rows})
    _write_text(output, text)
    return EXIT_OK


def _validation_line(result: ValidationResult) -> str:
    if result.failure is not None:
        status = f"FAILED ({result.failure})"
    else:
        verdict = "ok" if result.ok() else "FAILED"
        status = f"max_deviation={result.max_deviation:.3e} {verdict}"
    return (
        f"p={result.p} kbar={result.mean_a} lbar={result.mean_b} "
        f"delta={result.delta} {status}"
    )


def _run_validate(command: str, resolved: dict[str, object]) -> int:
    single = any(resolved[key] is not None for key in ("p", "kbar", "lbar", "delta"))
    if single:
        p = resolved["p"] if resolved["p"] is not None else 1
        kbar = resolved["kbar"] if resolved["kbar"] is not None else 0.1
        lbar = resolved["lbar"] if resolved["lbar"] is not None else kbar
        delta = resolved["delta"] if resolved["delta"] is not None else 0.0
        params, dist_a, dist_b = _build_problem(resolved, p, kbar, lbar, delta)
        try:
            times = validation_times(params, resolved["gt_max"], resolved["times"])
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        deviation = max_route_deviation(params, dist_a, dist_b, times)
        results = [ValidationResult(p, kbar, lbar, delta, deviation)]
    else:
        try:
            results = validation_grid(
                gt_max=resolved["gt_max"],
                times=resolved["times"],
                epsilon_tail=resolved["epsilon_tail"],
                g=resolved["g"],
                motion_enabled=resolved["motion"],
            )
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    for result in results:
        print(_validation_line(result))
    all_ok = all(result.ok() for result in results)
    if not single:
        print(f"validate: {'all configurations ok' if all_ok else 'FAILURES above'} "
              f"(tolerance {ORACLE_TOL:g})")
    return EXIT_OK if all_ok else EXIT_VALIDATION


def _read_csv(path: str) -> dict[str, np.ndarray]:
    """The columns of a CSV file.  A file of the path and the bytes this
    process wrote last gives back the written columns (contiguous, as parsed
    ones are, since a reduction over a strided view may pick the other sign
    of a zero); any other file is parsed by ``_parse_csv``."""
    data = _read_bytes(path)
    if (
        _written is not None
        and _written[0] == os.path.realpath(path)
        and _sha256(data).digest() == _written[1]
    ):
        return {name: np.ascontiguousarray(c) for name, c in _written[2].items()}
    return _parse_csv(path, _utf8_text(path, data, CsvFormatError))


def _parse_csv(path: str, text: str) -> dict[str, np.ndarray]:
    """The body is parsed ``_READ_ROWS`` lines at a time by numpy (``float()``'s
    text rules); a block that fails goes to ``_read_lines``, to name the bad line."""
    lines = text.splitlines()
    if not lines:
        raise CsvFormatError(f"{path}:1: empty file")
    header = lines[0].split(",")
    if len(header) < 2 or any(not name for name in header):
        raise CsvFormatError(f"{path}:1: malformed header {lines[0]!r}")
    if len(set(header)) != len(header):
        raise CsvFormatError(f"{path}:1: duplicate column names")
    body = lines[1:]
    if not body:
        raise CsvFormatError(f"{path}:2: no data rows")
    data = np.empty((len(header), len(body)))
    try:
        for lo in range(0, len(body), _READ_ROWS):
            block = body[lo : lo + _READ_ROWS]
            values = np.array(",".join(block).split(","), dtype=float)
            commas = (line.count(",") for line in block)
            if any(n != len(header) - 1 for n in commas) or not np.isfinite(values).all():
                raise ValueError("a field count or a value is off")
            data[:, lo : lo + len(block)] = values.reshape(len(block), len(header)).T
    except ValueError:
        return _read_lines(path, header, body)
    return dict(zip(header, data))


def _read_lines(path: str, header: list[str], body: list[str]) -> dict[str, np.ndarray]:
    """``_read_csv``'s body one line at a time: it raises at the first bad line."""
    columns: dict[str, list[float]] = {name: [] for name in header}
    for lineno, line in enumerate(body, 2):
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
            if not math.isfinite(columns[name][-1]):
                raise CsvFormatError(f"{path}:{lineno}: not a finite number: {field!r}")
    return {name: np.asarray(values) for name, values in columns.items()}


def _run_plot(command: str, resolved: dict[str, object]) -> int:
    if not resolved["input"]:
        raise UsageError("--input is required")
    output = _require_output(resolved)
    projection = resolved["projection"]
    if projection is not None and resolved["columns"] is not None:
        raise UsageError("--projection and --columns are mutually exclusive")
    data = _read_csv(resolved["input"])
    if projection is not None:
        x_name, y_name = PROJECTIONS[projection]
        names: tuple[str, ...] = (y_name,)
    else:
        x_name, names = "gt", resolved["columns"] or ("concurrence", "purity", "energy")
    missing = [name for name in (x_name, *names) if name not in data]
    if missing:
        raise UsageError(f"input has no column {missing[0]!r}")
    curves = [(name, data[x_name], data[name]) for name in names]
    try:  # one data row, or a span past the float range
        svg = render_plot(curves, x_name, " / ".join(names), resolved["title"])
    except ValueError as exc:
        raise CsvFormatError(f"{resolved['input']}: {exc}") from None
    _write_text(output, svg)
    return EXIT_OK


# subcommand -> (runner, key table, help)
_SUBCOMMANDS: dict[str, tuple[Callable[[str, dict], int], KeyTable, str]] = {
    "timeseries": (
        _run_series, _SINGLE_RUN_KEYS,
        "state elements and observables on a uniform gt grid",
    ),
    "epe": (
        _run_series, _SINGLE_RUN_KEYS,
        "concurrence-purity-energy trajectory on a uniform gt grid",
    ),
    "scan": (
        _run_scan, _SCAN_KEYS,
        "summaries over a grid of configurations (comma lists crossed; "
        "omitted --lbar mirrors each --kbar value)",
    ),
    "validate": (
        _run_validate, _VALIDATE_KEYS,
        "compare the closed form against the brute-force route "
        "(default grid, or one configuration if any of --p/--kbar/--lbar/--delta is given)",
    ),
    "plot": (
        _run_plot, _PLOT_KEYS,
        "render an SVG from a CSV produced by this tool",
    ),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: it holds no defaults, so calls share it."""
    parser = _Parser(prog="thermaljc", allow_abbrev=False, description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys, help_text) in _SUBCOMMANDS.items():
        _add_flags(commands.add_parser(name, allow_abbrev=False, help=help_text), keys)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    global _written
    kept, _written = _written, None
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "plot":
            _written = kept
        runner, keys, _ = _SUBCOMMANDS[args.command]
        return runner(args.command, _resolve(args, keys))
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
