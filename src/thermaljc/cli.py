"""Command-line interface: emits time series and entanglement-purity-energy
trajectories as CSV/JSON, runs parameter scans, cross-validates the closed
form against the brute-force route, and renders standalone SVG plots.

Exit codes: 0 success, 1 usage error, 2 I/O or input-format error,
3 validation failure (excess deviation or uncertified truncation).
"""

from __future__ import annotations

import datetime
import functools
import json
import math
import os
import sys
import textwrap
import zlib
from dataclasses import asdict
from typing import TYPE_CHECKING, Callable, Iterable, NoReturn, Sequence

import numpy as np

from .core import (
    DEFAULT_EPSILON_TAIL,
    Config,
    SystemParams,
    ThermalDistribution,
    TruncationError,
)
from .oracle import ORACLE_TOL, route_deviations, validation_times
from .svgplot import render_plot
from .sweep import TimeSeries, scan, time_series

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


def _parse_utf8(text: str) -> str:
    """Text that is written into a file: a surrogate that stands for an argv
    byte that is not UTF-8 is refused before anything is opened."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"expected UTF-8 text, got {text!r}") from None
    return text


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
    """``data`` decoded, less one leading byte-order mark; ``error`` names the
    line of the first byte that is not UTF-8 (newlines before it, plus one).
    ``str.splitlines`` on the result splits where text-mode reading followed
    by it did."""
    data = data.removeprefix(b"\xef\xbb\xbf")
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
    "columns": (_list_of(str.strip), None, "comma list of columns to draw against gt "
                "(default: concurrence,purity,energy)"),
    "projection": (_parse_projection, None, "draw one planar trajectory "
                   f"projection instead: {' or '.join(sorted(PROJECTIONS))}"),
    "title": (_parse_utf8, "", "plot title"),
}


def _resolve(args: dict[str, object], keys: KeyTable) -> dict[str, object]:
    """Merge flag > config-file > default (env feeds the epsilon default)."""
    config = _parse_config_file(args["config"]) if args["config"] else {}
    unknown = sorted(set(config) - set(keys))
    if unknown:
        raise UsageError(f"config keys not accepted here: {', '.join(unknown)}")
    resolved: dict[str, object] = {}
    for key, (parse, default, _) in keys.items():
        flag_value = args[key]
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
) -> Config:
    """One configuration; g, motion and the tail tolerance come from ``resolved``."""
    epsilon_tail = resolved["epsilon_tail"]
    params = SystemParams(g=resolved["g"], delta=delta, p=p, motion_enabled=resolved["motion"])
    dist_a = ThermalDistribution.from_mean(kbar, epsilon_tail)
    return params, dist_a, ThermalDistribution.from_mean(lbar, epsilon_tail)


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

# The CSV this process wrote last, as (real path, byte count, CRC-32 of its
# bytes, its columns by reference), kept only when parsing those bytes gives
# the columns back.  _read_csv returns the columns for a file of the same path,
# length and CRC, so a script that writes and then plots through main parses
# nothing twice; main empties the slot before every subcommand but plot.  The
# CRC catches any change confined to 4 consecutive bytes and misses another
# with probability 2**-32: it guards against a file changed between write and
# plot, not against an adversary, who can write any CSV anyway.
_written: tuple[str, int, int, dict[str, np.ndarray]] | None = None


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
    crc = 0
    with open(output, "wb") as handle:

        def put(data: bytes | bytearray) -> None:
            nonlocal crc
            handle.write(data)
            if reusable:
                crc = zlib.crc32(data, crc)

        put((header + "\n").encode("utf-8"))
        for lo in range(0, len(columns["gt"]), text.rows):
            put(text.encode(columns.values(), lo))
        size = handle.tell()
    if reusable:
        _written = (os.path.realpath(output), size, crc, dict(columns))


def _require_output(resolved: dict[str, object]) -> str:
    output = resolved.get("output")
    if not output:
        raise UsageError("--output is required")
    return str(output)


_SERIES_HEADERS = {"timeseries": TIMESERIES_HEADER, "epe": EPE_HEADER}


def _series_columns(series: TimeSeries, header: str) -> dict[str, np.ndarray]:
    """The columns a header names, by name: the series' fields, the state's
    elements, and x3 as x3_re and x3_im."""
    state = series.state
    named = {**vars(series), **state._asdict(), "x3_re": state.x3.real, "x3_im": state.x3.imag}
    return {name: named[name] for name in header.split(",")}


def _run_series(command: str, resolved: dict[str, object]) -> int:
    """timeseries and epe: one grid run, written as the columns of the header."""
    if resolved["lbar"] is None:
        resolved["lbar"] = resolved["kbar"]
    output = _require_output(resolved)
    params, dist_a, dist_b = _build_problem(
        resolved, resolved["p"], resolved["kbar"], resolved["lbar"], resolved["delta"]
    )
    series = time_series(params, dist_a, dist_b, resolved["gt_max"], resolved["steps"])
    header = _SERIES_HEADERS[command]
    _write_columns(output, resolved, command, header, _series_columns(series, header))
    return EXIT_OK


def _scan_configs(resolved: dict[str, object]) -> list[Config]:
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
    reports = scan(configs, resolved["gt_max"], resolved["steps"], resolved["window_lo"])
    rows = [asdict(report) for report in reports]
    if resolved["format"] == "csv":
        text = _csv_text(SCAN_HEADER, (map(_scan_cell, row.values()) for row in rows))
    else:
        text = _json_text(_metadata(command, resolved), {"reports": rows})
    _write_text(output, text)
    return EXIT_OK


# The configurations `validate` compares when no single one is given: scan's
# lists, crossed by _scan_configs (lbar None mirrors each kbar).
_VALIDATE_GRID = {"p": (1, 4), "kbar": (0.0, 0.1, 0.5), "lbar": None, "delta": (0.0, 1.0, 5.0)}


def _run_validate(command: str, resolved: dict[str, object]) -> int:
    """Grid mode reports a configuration the routes fail on as FAILED; single
    mode lets the failure through to ``main``."""
    single = any(resolved[key] is not None for key in _VALIDATE_GRID)
    grid = _VALIDATE_GRID
    if single:
        values = {key: _SINGLE_RUN_KEYS[key][1] if resolved[key] is None else resolved[key]
                  for key in _VALIDATE_GRID}
        grid = {key: None if value is None else (value,) for key, value in values.items()}
    configs = _scan_configs({**resolved, **grid})
    # every configuration shares g and motion, hence the times
    times = validation_times(configs[0][0], resolved["gt_max"], resolved["times"])
    all_ok = True
    for (params, dist_a, dist_b), deviation in zip(configs, route_deviations(configs, times)):
        if isinstance(deviation, Exception):
            if single:
                raise deviation
            status, ok = f"FAILED ({deviation})", False
        else:
            ok = deviation <= ORACLE_TOL
            status = f"max_deviation={deviation:.3e} {'ok' if ok else 'FAILED'}"
        all_ok = all_ok and ok
        print(f"p={params.p} kbar={dist_a.mean_photons} lbar={dist_b.mean_photons} "
              f"delta={params.delta} {status}")
    if not single:
        print(f"validate: {'all configurations ok' if all_ok else 'FAILURES above'} "
              f"(tolerance {ORACLE_TOL:g})")
    return EXIT_OK if all_ok else EXIT_VALIDATION


def _read_csv(path: str) -> dict[str, np.ndarray]:
    """The columns of a CSV file.  A file of the path, length and CRC-32 this
    process wrote last gives back the written columns (contiguous, as parsed
    ones are, since a reduction over a strided view may pick the other sign
    of a zero); any other file is parsed by ``_parse_csv``."""
    data = _read_bytes(path)
    if (
        _written is not None
        and _written[0] == os.path.realpath(path)
        and (len(data), zlib.crc32(data)) == _written[1:3]
    ):
        return {name: np.ascontiguousarray(c) for name, c in _written[3].items()}
    return _parse_csv(path, _utf8_text(path, data, CsvFormatError))


def _parse_csv(path: str, text: str) -> dict[str, np.ndarray]:
    """The body is parsed ``_READ_ROWS`` lines at a time by numpy (``float()``'s
    text rules); a block that fails goes to ``_raise_bad_line``, to name the bad
    line."""
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
    for lo in range(0, len(body), _READ_ROWS):
        block = body[lo : lo + _READ_ROWS]
        try:
            values = np.array(",".join(block).split(","), dtype=float)
            commas = (line.count(",") for line in block)
            if any(n != len(header) - 1 for n in commas) or not np.isfinite(values).all():
                raise ValueError("a field count or a value is off")
        except ValueError:
            _raise_bad_line(path, len(header), block, lo + 2)
        data[:, lo : lo + len(block)] = values.reshape(len(block), len(header)).T
    return dict(zip(header, data))


def _raise_bad_line(path: str, width: int, block: list[str], first: int) -> NoReturn:
    """Raise for the first line of a block that failed ``_parse_csv``, the block
    starting at line ``first``: one without ``width`` fields or with a field
    that ``float()`` refuses or reads as non-finite."""
    for lineno, line in enumerate(block, first):
        fields = line.split(",")
        if len(fields) != width:
            raise CsvFormatError(f"{path}:{lineno}: expected {width} fields, found {len(fields)}")
        for field in fields:
            try:
                value = float(field)
            except ValueError:
                raise CsvFormatError(f"{path}:{lineno}: not a number: {field!r}") from None
            if not math.isfinite(value):
                raise CsvFormatError(f"{path}:{lineno}: not a finite number: {field!r}")
    raise AssertionError("numpy and float() disagree on a block")


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


_HELP_FLAGS = ("-h", "--help")


@functools.cache
def _flag_table(command: str) -> dict[str, tuple[str, Callable[[str], object] | None, str]]:
    """Every flag spelling of ``command``, ``--config`` last, as flag -> (key,
    parser of its value or None for a switch, help).  A boolean key's switch
    ``--key`` stores True and ``--no-key`` False; the timestamp has
    ``--no-timestamp`` alone."""
    table = {}
    for key, (parse, _, help_text) in _SUBCOMMANDS[command][1].items():
        flag = f"--{key.replace('_', '-')}"
        if parse is not _parse_bool:
            table[flag] = (key, parse, help_text)
            continue
        if key != "timestamp":
            table[flag] = (key, None, help_text)
        table[f"--no-{flag[2:]}"] = (key, None, help_text)
    table["--config"] = ("config", str, "key=value file supplying any flag of this subcommand")
    return table


def _help(command: str | None = None) -> str:
    """The help text of ``command``, or of the program, from the key tables."""
    if command is None:
        usage, about, title = f"{{{','.join(_SUBCOMMANDS)}}}", __doc__.strip(), "commands:"
        rows = [(name, text) for name, (_, _, text) in _SUBCOMMANDS.items()]
    else:
        usage, about, title = command, textwrap.fill(_SUBCOMMANDS[command][2], 79), "flags:"
        rows = [(flag if parse is None else f"{flag} {key.upper()}", text)
                for flag, (key, parse, text) in _flag_table(command).items()]
    rows.append(("-h, --help", "print this help and exit"))
    width = max(len(spelling) for spelling, _ in rows) + 2
    usage = f"usage: thermaljc {usage} [--flag value | --flag=value ...]"
    lines = [textwrap.fill(usage, 79, subsequent_indent=" " * 17), "", about, "", title]
    lines += [textwrap.fill(text, 79, initial_indent=f"  {spelling:<{width}}",
                            subsequent_indent=" " * (width + 2)) for spelling, text in rows]
    return "\n".join(lines) + "\n"


def _read_args(argv: Sequence[str]) -> dict[str, object] | str:
    """The settings a command line gives, as a dict of "command" and every key
    of its flags (None where no flag gives it), or the help text it asks for.
    A line is a subcommand name, then its flags as ``--flag value`` or
    ``--flag=value``; a value is any token but a flag of that subcommand or a
    help flag.  The last repeat of a flag wins.  A missing or refused value or
    a valued switch raises ``UsageError`` where it stands, any other token at
    the end, all at once, in argparse's words."""
    if not argv:
        raise UsageError("the following arguments are required: command")
    command = argv[0]
    if command in _HELP_FLAGS:
        return _help()
    if command not in _SUBCOMMANDS:
        choices = ", ".join(map(repr, _SUBCOMMANDS))
        raise UsageError(f"argument command: invalid choice: {command!r} (choose from {choices})")
    flags = _flag_table(command)
    args = {**dict.fromkeys(key for key, *_ in flags.values()), "command": command}
    stray = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token in _HELP_FLAGS:
            return _help(command)
        flag, equals, value = token.partition("=")
        if flag not in flags:
            stray.append(token)
            continue
        key, parse, _ = flags[flag]
        if parse is None:
            if equals:
                raise UsageError(f"argument {flag}: ignored explicit argument {value!r}")
            args[key] = not flag.startswith("--no-")
            continue
        if not equals:
            value = next(tokens, None)
            if value is None or value in _HELP_FLAGS or value.partition("=")[0] in flags:
                raise UsageError(f"argument {flag}: expected one argument")
        try:
            args[key] = parse(value)
        except ValueError as exc:
            raise UsageError(f"argument {flag}: {exc}") from None
    if stray:
        raise UsageError(f"unrecognized arguments: {' '.join(stray)}")
    return args


def main(argv: Sequence[str] | None = None) -> int:
    global _written
    kept, _written = _written, None
    try:
        args = _read_args(sys.argv[1:] if argv is None else argv)
        if isinstance(args, str):
            print(args, end="")
            return EXIT_OK
        command = args["command"]
        if command == "plot":
            _written = kept
        runner, keys, _ = _SUBCOMMANDS[command]
        return runner(command, _resolve(args, keys))
    except (UsageError, ValueError) as exc:  # a library ValueError is a bad input
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
