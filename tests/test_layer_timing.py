"""The layer-timing harness ``scripts/layer_timing.py``, on its small cases."""

import importlib.util
import os
import pathlib
import re
import time

import numpy as np
import pytest

from thermaljc import dynamics

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "layer_timing.py"


def _script():
    spec = importlib.util.spec_from_file_location("layer_timing", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_run_count_below_one_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        _script().main(["--runs", "0"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().err.endswith("error: --runs must be >= 1, got 0\n")


@pytest.mark.parametrize("values, unit", [(0, "s"), (1000, "ns/value"), (19, "us/argv")])
def test_report_prints_the_median_quartiles_slowest_and_traced_peak(capsys, values, unit):
    calls = []

    def work():
        calls.append(bytearray(10**6))
        if len(calls) == 3:  # the second timed call
            time.sleep(0.05)

    median = _script().report("case", work, 4, values, *([unit] if values else []))
    assert len(calls) == 1 + 4 + 1  # untimed, timed, traced
    number = r"\d+\.\d+"
    line = (rf"case: median ({number}) {unit}, quartiles ({number})-({number}) {unit},"
            rf" slowest ({number}) {unit}, 4 runs; traced peak ({number}) MB\n")
    match = re.fullmatch(line, capsys.readouterr().out)
    assert match
    q1, shown, q3, slowest = (float(match[i]) for i in (2, 1, 3, 4))
    assert q1 <= shown <= q3 <= slowest
    assert slowest >= 0.05 * ({"ns": 1e9, "us": 1e6}[unit[:2]] / values if values else 1.0)
    assert median > 0.0
    assert float(match[5]) >= 1.0  # the megabyte each call allocates


def test_the_validate_cases_time_the_same_rows_alone_and_stacked(capsys):
    rows, cases = _script().validate_cases()
    assert rows == 18 * 50
    assert list(cases) == ["closed form, by configuration", "closed form, stacked, one call",
                           "oracle, by configuration", "oracle, stacked, one call"]
    results = {label: work() for label, work in cases.items()}
    assert len(results["closed form, by configuration"]) == 18
    assert len(results["closed form, stacked, one call"]) == 1
    # the stacked rows keep the grid's order of configurations
    [stacked] = results["oracle, stacked, one call"]
    assert stacked.tobytes() == np.concatenate(results["oracle, by configuration"]).tobytes()
    [closed] = results["closed form, stacked, one call"]
    for field, got in enumerate(closed):
        want = np.concatenate([x[field] for x in results["closed form, by configuration"]])
        assert got.tobytes() == want.tobytes()
    _script().report("validate, oracle, stacked, one call", cases["oracle, stacked, one call"],
                     2, rows)
    assert capsys.readouterr().out.startswith("validate, oracle, stacked, one call: median ")


def test_the_argv_cases_read_the_figure_and_validate_lines_alike(capsys):
    argvs, cases = _script().argv_cases()
    assert len(argvs) == 19 and argvs[-1] == ["validate", "--gt-max", "25"]
    assert [argv[0] for argv in argvs[:-1]].count("plot") == 9
    plain, fresh = (work() for work in cases.values())
    assert list(cases) == ["plain reader", "argparse, freshly built"]
    assert None not in plain and plain == fresh
    _script().report("argv, plain reader", cases["plain reader"], 2, len(argvs), "us/argv")
    assert re.fullmatch(r"argv, plain reader: median \d+\.\d us/argv, .*\n",
                        capsys.readouterr().out)


def test_the_block_sums_are_one_full_hot_bath_block():
    sums = _script().block_sums()()
    # cavity A's sectors 26..1396, past cavity B's cutoff of 25
    assert sums.shape == (6, dynamics._BLOCK_ELEMENTS // 1371)
    assert np.all(np.isfinite(sums))


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="fewer than two CPUs to pin")
def test_the_threads_case_prints_one_and_two_pinned_threads_and_their_ratio(capsys):
    before = os.sched_getaffinity(0)
    ratio = _script().threads(2, repeats=1)
    assert os.sched_getaffinity(0) == before  # the caller's mask is back
    lines = capsys.readouterr().out.splitlines()
    label = "threads, 2 rounds of one hot_bath block's six sums"
    assert lines[0].startswith(f"{label}, 1 thread: median ")
    assert lines[1].startswith(f"{label}, 2 threads on their own CPUs: median ")
    assert lines[2:] == [f"threads, ratio 1 thread / 2 threads: {ratio:.3f}"]


@pytest.mark.parametrize("missing", ["sched_setaffinity", "a second CPU"])
def test_the_threads_case_is_skipped_without_two_cpus_to_pin(monkeypatch, capsys, missing):
    if missing == "sched_setaffinity":
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _script().threads(1) is None
    assert capsys.readouterr() == ("", "threads: needs os.sched_setaffinity and 2 CPUs: skipped\n")
