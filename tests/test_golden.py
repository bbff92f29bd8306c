"""Golden runs: small CLI outputs stored in tests/data/golden/, re-run here.

Headers, JSON keys, strings, integer cells and blank cells must match the
stored file exactly; floats must agree to 1e-14 (relative above 1).  Exact
bytes are not required because ``np.tan`` is a SIMD loop on some hosts and
libm on others, so the last digit of a float may differ between machines.

The standard output of ``validate`` is compared byte for byte: it shows each
route gap to three digits, so a change in how the routes group their calls
shows as a changed line.  The gaps are a few ulps, so a host whose ``np.tan``
rounds differently may print other digits there.
"""

import json
import math
from pathlib import Path

import pytest

from thermaljc.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
FLOAT_TOL = 1e-14
STEPS = ["--steps", "100", "--no-timestamp"]

# stored file -> the CLI call that writes it (before --output)
RUNS = {
    "timeseries_p1_kbar0.1_delta0.csv": [
        "timeseries", "--p", "1", "--kbar", "0.1", "--delta", "0", "--gt-max", "25", *STEPS,
    ],
    "timeseries_kbar5_lbar0.5_delta1.csv": [
        "timeseries", "--kbar", "5", "--lbar", "0.5", "--delta", "1", "--gt-max", "25", *STEPS,
    ],
    "timeseries_no_motion.csv": [
        "timeseries", "--no-motion", "--kbar", "0.3", "--lbar", "2", "--delta", "0.7",
        "--gt-max", "25", *STEPS,
    ],
    "epe_p2_g1.7.json": [
        "epe", "--p", "2", "--kbar", "0.5", "--lbar", "0.1", "--delta", "0.3", "--g", "1.7",
        "--gt-max", "10", "--format", "json", *STEPS,
    ],
    "scan_crossed.csv": [
        "scan", "--p", "1,4", "--kbar", "0,0.1,0.5", "--delta", "0,1", "--gt-max", "25",
        *STEPS,
    ],
}

# stored file -> the validate call whose standard output it holds
VALIDATE_RUNS = {
    "validate_grid.txt": ["validate", "--gt-max", "25"],
    "validate_p4_kbar0.5_lbar0.1_delta1.txt": [
        "validate", "--kbar", "0.5", "--lbar", "0.1", "--delta", "1", "--p", "4",
    ],
}


def _is_int(text: str) -> bool:
    return text.lstrip("-").isdigit()


def _assert_close(actual: float, expected: float, where: str) -> None:
    assert math.isclose(actual, expected, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL), (
        f"{where}: {actual!r} != {expected!r}"
    )


def _compare_csv(actual: str, expected: str) -> None:
    got, want = actual.splitlines(), expected.splitlines()
    assert got[0] == want[0], "header differs"
    assert len(got) == len(want), "row count differs"
    for lineno, (row, ref) in enumerate(zip(got[1:], want[1:]), 2):
        cells, refs = row.split(","), ref.split(",")
        assert len(cells) == len(refs), f"line {lineno}: field count differs"
        for column, (cell, expected_cell) in enumerate(zip(cells, refs)):
            where = f"line {lineno}, column {column}"
            if expected_cell == "" or _is_int(expected_cell):
                assert cell == expected_cell, where
            else:
                _assert_close(float(cell), float(expected_cell), where)


def _compare_json(actual: object, expected: object, where: str = "$") -> None:
    if isinstance(expected, float):
        assert isinstance(actual, float), where
        _assert_close(actual, expected, where)
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and list(actual) == list(expected), where
        for key in expected:
            _compare_json(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (item, ref) in enumerate(zip(actual, expected)):
            _compare_json(item, ref, f"{where}[{i}]")
    else:
        assert type(actual) is type(expected) and actual == expected, where


def test_the_golden_set_stays_small():
    stored = sorted(path.name for path in GOLDEN.iterdir())
    assert stored == sorted([*RUNS, *VALIDATE_RUNS])
    assert sum(path.stat().st_size for path in GOLDEN.iterdir()) < 100_000


@pytest.mark.parametrize("name", sorted(RUNS))
def test_the_cli_reproduces_the_golden_run(name, tmp_path, monkeypatch):
    monkeypatch.delenv("THERMALJC_EPSILON_TAIL", raising=False)
    out = tmp_path / name
    assert main([*RUNS[name], "--output", str(out)]) == 0
    actual = out.read_text(encoding="utf-8")
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    if name.endswith(".json"):
        _compare_json(json.loads(actual), json.loads(expected))
    else:
        _compare_csv(actual, expected)


@pytest.mark.parametrize("name", sorted(VALIDATE_RUNS))
def test_validate_prints_the_golden_lines(name, capsys, monkeypatch):
    monkeypatch.delenv("THERMALJC_EPSILON_TAIL", raising=False)
    assert main(VALIDATE_RUNS[name]) == 0
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / name).read_bytes()
