"""Output checker: every output of a pass is checked, and each failure is
charged to the CLI call that produced it.

- headers, column names and row counts are exact, and JSON parses;
- trace, population-range and positivity invariants hold at every row, and
  the observable columns agree with the state elements of the same row;
- at a few seeded sample times per output the values agree with the
  brute-force route (``oracle_density_matrix``) to ``ORACLE_TOL``;
- every ``validate`` line reports ``ok``.

Identical outputs across passes are checked separately, by digest, in run.py.
"""

from __future__ import annotations

import json
import math
import random
import re
import xml.etree.ElementTree as ET

import numpy as np

from thermaljc.core import TRACE_TOL, SystemParams, ThermalDistribution
from thermaljc.oracle import ORACLE_TOL, oracle_density_matrix

import workloads

TIMESERIES_COLUMNS = ("gt", "g_eff", "x1", "x2", "x3_re", "x3_im", "x5", "x6",
                      "concurrence", "purity", "energy")
EPE_COLUMNS = ("gt", "concurrence", "purity", "energy")
SCAN_COLUMNS = ("p", "kbar", "lbar", "delta", "max_concurrence", "min_concurrence",
                "max_purity", "min_purity", "max_energy", "min_energy",
                "dead_intervals", "period")
ROW_TOL = 1e-12  # observables recomputed from the same row's elements
ORACLE_SAMPLES = 3  # sample times per time-series output
SVG_NS = "{http://www.w3.org/2000/svg}"
VALIDATE_LINE = re.compile(
    r"p=(\d+) kbar=(\S+) lbar=(\S+) delta=(\S+) max_deviation=(\S+) ok")


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _read_csv(path: str, header: tuple[str, ...], rows: int) -> list[list[str]]:
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    _require(lines[-1] == "", "file does not end with a newline")
    lines = lines[:-1]
    _require(bool(lines) and lines[0] == ",".join(header), f"header is {lines[:1]!r}")
    body = [line.split(",") for line in lines[1:]]
    _require(len(body) == rows, f"{len(body)} rows, expected {rows}")
    for i, fields in enumerate(body, 2):
        _require(len(fields) == len(header), f"line {i}: {len(fields)} fields")
    return body


def _numeric(body: list[list[str]], header: tuple[str, ...]) -> dict[str, np.ndarray]:
    values = np.array([[float(x) for x in fields] for fields in body])
    _require(bool(np.all(np.isfinite(values))), "non-finite value")
    return {name: values[:, j] for j, name in enumerate(header)}


def _problem(spec: dict) -> tuple[SystemParams, ThermalDistribution, ThermalDistribution]:
    params = SystemParams(g=1.0, delta=spec["delta"], p=spec["p"])
    dist_a = ThermalDistribution.from_mean(spec["kbar"], workloads.EPSILON_TAIL)
    dist_b = ThermalDistribution.from_mean(spec["lbar"], workloads.EPSILON_TAIL)
    return params, dist_a, dist_b


def _observable_tolerances(x1: float, x3: complex, x6: float) -> tuple[float, float, float]:
    """Bounds on |dC|, |dP|, |dU| implied by elements that agree to ORACLE_TOL."""
    tau = ORACLE_TOL
    a, b = max(x1, 0.0), max(x6, 0.0)
    d_root = math.sqrt((a + tau) * (b + tau)) - math.sqrt(a * b)
    return 2.0 * (tau + d_root), 2.0 * tau + 4.0 * abs(x3) * tau + 6.0 * tau * tau, 2.0 * tau


def _observables(x1, x2, x3, x5, x6):
    conc = 2.0 * np.maximum(0.0, np.abs(x3) - np.sqrt(np.maximum(x1, 0.0) * np.maximum(x6, 0.0)))
    pur = x1 * x1 + x2 * x2 + x5 * x5 + x6 * x6 + 2.0 * np.abs(x3) ** 2
    return conc, pur, x6 - x1


def _sample_rows(rows: int, seed: int, index: int, count: int) -> list[int]:
    return sorted(random.Random(f"{seed}:{index}").sample(range(rows), count))


def _check_grid(col: dict[str, np.ndarray], spec: dict) -> None:
    expected = np.linspace(0.0, spec["gt_max"], spec["steps"] + 1)
    _require(bool(np.array_equal(col["gt"], expected)), "gt grid differs from linspace")


def _check_ranges(col: dict[str, np.ndarray]) -> None:
    conc, pur, en = col["concurrence"], col["purity"], col["energy"]
    _require(bool(np.all((conc >= 0.0) & (conc <= 1.0 + TRACE_TOL))), "concurrence outside [0, 1]")
    _require(bool(np.all((pur >= 0.25 - TRACE_TOL) & (pur <= 1.0 + TRACE_TOL))),
             "purity outside [1/4, 1]")
    _require(bool(np.all(np.abs(en) <= 1.0 + TRACE_TOL)), "energy outside [-1, 1]")


def _check_states(col: dict[str, np.ndarray], spec: dict) -> None:
    x1, x2, x5, x6 = col["x1"], col["x2"], col["x5"], col["x6"]
    x3 = col["x3_re"] + 1j * col["x3_im"]
    gt = col["gt"]
    p = spec["p"]
    with np.errstate(divide="ignore", invalid="ignore"):
        g_eff = np.where(gt > 0.0, (1.0 - np.cos(p * gt)) / (p * gt), 0.0)
    _require(bool(np.all(np.abs(col["g_eff"] - g_eff) <= ROW_TOL)), "g_eff off g'(t)")
    pops = np.stack([x1, x2, x5, x6])
    _require(bool(np.all((pops >= -TRACE_TOL) & (pops <= 1.0 + TRACE_TOL))),
             "population outside [0, 1]")
    _require(bool(np.all(np.abs(x1 + x2 + x5 + x6 - 1.0) <= TRACE_TOL)), "trace deviates from 1")
    inner = 0.5 * (x2 + x5) - np.hypot(0.5 * (x2 - x5), np.abs(x3))
    _require(bool(np.all(inner >= -TRACE_TOL)), "inner block not positive")
    for name, value in zip(("concurrence", "purity", "energy"), _observables(x1, x2, x3, x5, x6)):
        _require(bool(np.all(np.abs(col[name] - value) <= ROW_TOL)),
                 f"{name} disagrees with the row's state elements")


def _check_against_oracle(col: dict[str, np.ndarray], spec: dict, rows: list[int]) -> None:
    params, dist_a, dist_b = _problem(spec)
    for i in rows:
        gt = float(col["gt"][i])
        rho = oracle_density_matrix(params, dist_a, dist_b, gt)
        ref = {"x1": rho.x1, "x2": rho.x2, "x5": rho.x5, "x6": rho.x6}
        if "x1" in col:
            for name, value in ref.items():
                _require(abs(col[name][i] - value) <= ORACLE_TOL, f"{name} at gt={gt} off oracle")
            x3 = complex(col["x3_re"][i], col["x3_im"][i])
            _require(abs(x3 - rho.x3) <= ORACLE_TOL, f"x3 at gt={gt} off oracle")
        tols = _observable_tolerances(rho.x1, rho.x3, rho.x6)
        expected = _observables(rho.x1, rho.x2, rho.x3, rho.x5, rho.x6)
        for name, value, tol in zip(("concurrence", "purity", "energy"), expected, tols):
            _require(abs(col[name][i] - float(value)) <= tol, f"{name} at gt={gt} off oracle")


def _check_series(call: workloads.Call, seed: int, index: int) -> None:
    spec = call.spec
    rows = spec["steps"] + 1
    header = TIMESERIES_COLUMNS if call.kind == "timeseries" else EPE_COLUMNS
    if spec["format"] == "json":
        with open(call.output, encoding="utf-8") as handle:
            doc = json.load(handle)
        _require(set(doc) == {"metadata", "columns"}, f"top-level keys {sorted(doc)}")
        meta = doc["metadata"]
        _require(meta.get("subcommand") == call.kind, "metadata.subcommand")
        _require("generated_at" not in meta, "timestamp present despite --no-timestamp")
        for key in ("p", "kbar", "lbar", "delta", "gt_max", "steps"):
            _require(meta.get(key) == spec[key], f"metadata.{key} is {meta.get(key)!r}")
        _require(tuple(doc["columns"]) == header, f"columns {list(doc['columns'])}")
        col = {}
        for name in header:
            values = doc["columns"][name]
            _require(len(values) == rows, f"column {name}: {len(values)} rows, expected {rows}")
            _require(all(type(v) is float for v in values), f"column {name}: non-float entry")
            col[name] = np.array(values)
        _require(bool(all(np.all(np.isfinite(v)) for v in col.values())), "non-finite value")
    else:
        col = _numeric(_read_csv(call.output, header, rows), header)
    _check_grid(col, spec)
    _check_ranges(col)
    if call.kind == "timeseries":
        _check_states(col, spec)
    _check_against_oracle(col, spec, _sample_rows(rows, seed, index, ORACLE_SAMPLES))


def _check_scan(call: workloads.Call, seed: int, index: int) -> None:
    spec = call.spec
    configs = [(p, k, d) for p in spec["p"] for k in spec["kbar"] for d in spec["delta"]]
    body = _read_csv(call.output, SCAN_COLUMNS, len(configs))
    grid = np.linspace(0.0, spec["gt_max"], spec["steps"] + 1)
    for row, ((p, kbar, delta), fields) in enumerate(zip(configs, body)):
        where = f"row {row + 2}"
        _require(fields[0] == repr(p), f"{where}: p is {fields[0]!r}")
        _require(float(fields[1]) == kbar and float(fields[2]) == kbar, f"{where}: kbar/lbar")
        _require(float(fields[3]) == delta, f"{where}: delta")
        c_hi, c_lo, p_hi, p_lo, u_hi, u_lo = (float(x) for x in fields[4:10])
        _require(all(math.isfinite(v) for v in (c_hi, c_lo, p_hi, p_lo, u_hi, u_lo)),
                 f"{where}: non-finite extremum")
        _require(0.0 <= c_lo <= c_hi <= 1.0 + TRACE_TOL, f"{where}: concurrence extrema")
        _require(0.25 - TRACE_TOL <= p_lo <= p_hi <= 1.0 + TRACE_TOL, f"{where}: purity extrema")
        _require(-1.0 - TRACE_TOL <= u_lo <= u_hi <= 1.0 + TRACE_TOL, f"{where}: energy extrema")
        # the window starts at gt = 0, where the Bell state has C = P = 1 and U = 0
        _require(abs(c_hi - 1.0) <= TRACE_TOL and abs(p_hi - 1.0) <= TRACE_TOL, f"{where}: maxima")
        _require(u_lo <= 0.0 <= u_hi, f"{where}: energy extrema exclude U(0) = 0")
        _require(fields[10].isdigit(), f"{where}: dead_intervals {fields[10]!r}")
        period = 2.0 * math.pi / p
        expected = repr(period) if delta == 0.0 and spec["gt_max"] >= period else ""
        _require(fields[11] == expected, f"{where}: period {fields[11]!r}")
        # a sampled grid time from the oracle must lie within the reported extrema
        gt = float(grid[_sample_rows(grid.size, seed, 1000 * index + row, 1)[0]])
        state = _problem({"p": p, "kbar": kbar, "lbar": kbar, "delta": delta})
        rho = oracle_density_matrix(*state, gt)
        tols = _observable_tolerances(rho.x1, rho.x3, rho.x6)
        values = _observables(rho.x1, rho.x2, rho.x3, rho.x5, rho.x6)
        for (lo, hi), value, tol, name in zip(((c_lo, c_hi), (p_lo, p_hi), (u_lo, u_hi)),
                                              values, tols, ("concurrence", "purity", "energy")):
            _require(lo - tol <= float(value) <= hi + tol,
                     f"{where}: oracle {name} at gt={gt} outside the reported extrema")


def _check_plot(call: workloads.Call) -> None:
    with open(call.output, encoding="utf-8") as handle:
        root = ET.fromstring(handle.read())
    _require(root.tag == SVG_NS + "svg", f"root element {root.tag}")
    lines = root.findall(SVG_NS + "polyline")
    _require(len(lines) == call.spec["curves"], f"{len(lines)} curves, expected {call.spec['curves']}")
    for line in lines:
        points = line.get("points", "").split()
        _require(len(points) == call.spec["rows"], f"curve has {len(points)} points")
    title = call.argv[call.argv.index("--title") + 1]
    _require(any(node.text == title for node in root.iter(SVG_NS + "text")), "title missing")


def _check_validate(call: workloads.Call, stdout: str) -> None:
    lines = stdout.split("\n")
    configs = [(p, m, d) for p in workloads.VALIDATE_GRID_P for m in workloads.VALIDATE_GRID_MEANS
               for d in workloads.VALIDATE_GRID_DELTAS]
    _require(len(lines) == len(configs) + 2 and lines[-1] == "", f"{len(lines) - 1} lines")
    for line, (p, mean, delta) in zip(lines, configs):
        match = VALIDATE_LINE.fullmatch(line)
        _require(match is not None, f"line is not ok: {line!r}")
        _require((int(match[1]), float(match[2]), float(match[3]), float(match[4]))
                 == (p, mean, mean, delta), f"unexpected configuration: {line!r}")
        _require(float(match[5]) <= ORACLE_TOL, f"deviation above tolerance: {line!r}")
    _require(lines[-2] == f"validate: all configurations ok (tolerance {ORACLE_TOL:g})",
             f"summary line {lines[-2]!r}")


def check_call(call: workloads.Call, stdout: str, seed: int, index: int) -> str | None:
    """None if the output of ``call`` passes every check, else the first problem."""
    try:
        if call.kind in ("timeseries", "epe"):
            _check_series(call, seed, index)
        elif call.kind == "scan":
            _check_scan(call, seed, index)
        elif call.kind == "plot":
            _check_plot(call)
        elif call.kind == "validate":
            _check_validate(call, stdout)
        else:
            return f"no check for subcommand {call.kind!r}"
        if call.kind != "validate":
            _require(stdout == "", f"unexpected standard output {stdout[:80]!r}")
    except CheckFailed as exc:
        return str(exc)
    except (OSError, ValueError, KeyError, RuntimeError, ET.ParseError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None
