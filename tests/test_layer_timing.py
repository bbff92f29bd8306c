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


@pytest.mark.parametrize("values, unit", [(0, "s"), (1000, "ns/value")])
def test_report_prints_the_median_quartiles_slowest_and_traced_peak(capsys, values, unit):
    calls = []

    def work():
        calls.append(bytearray(10**6))
        if len(calls) == 3:  # the second timed call
            time.sleep(0.05)

    median = _script().report("case", work, 4, values)
    assert len(calls) == 1 + 4 + 1  # untimed, timed, traced
    number = r"\d+\.\d+"
    line = (rf"case: median ({number}) {unit}, quartiles ({number})-({number}) {unit},"
            rf" slowest ({number}) {unit}, 4 runs; traced peak ({number}) MB\n")
    match = re.fullmatch(line, capsys.readouterr().out)
    assert match
    q1, shown, q3, slowest = (float(match[i]) for i in (2, 1, 3, 4))
    assert q1 <= shown <= q3 <= slowest
    assert slowest >= 0.05 * (1e9 / values if values else 1.0)
    assert median > 0.0
    assert float(match[5]) >= 1.0  # the megabyte each call allocates


def test_the_validate_cases_time_the_same_rows_alone_and_stacked(capsys):
    rows, cases = _script().validate_cases()
    assert rows == 18 * 50
    assert list(cases) == ["closed form, by configuration", "closed form, stacked per delta",
                           "oracle, by configuration", "oracle, stacked per delta"]
    results = {label: work() for label, work in cases.items()}
    assert len(results["closed form, by configuration"]) == 18
    assert len(results["closed form, stacked per delta"]) == 3  # one call per delta
    # the grid runs delta fastest, so configuration 3*k + d has delta number d
    # and is number k of that delta's call
    order = [3 * k + d for d in range(3) for k in range(6)]
    alone = results["oracle, by configuration"]
    stacked = np.concatenate(results["oracle, stacked per delta"])
    assert stacked.tobytes() == np.concatenate([alone[i] for i in order]).tobytes()
    closed = [np.concatenate(fields) for fields in zip(*results["closed form, stacked per delta"])]
    by_configuration = results["closed form, by configuration"]
    for field, got in enumerate(closed):
        want = np.concatenate([by_configuration[i][field] for i in order])
        assert got.tobytes() == want.tobytes()
    _script().report("validate, oracle, stacked per delta", cases["oracle, stacked per delta"],
                     2, rows)
    assert capsys.readouterr().out.startswith("validate, oracle, stacked per delta: median ")


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
