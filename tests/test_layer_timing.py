"""The layer-timing harness ``scripts/layer_timing.py``, on its small cases."""

import importlib.util
import pathlib
import re
import time

import numpy as np
import pytest

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
    assert list(cases) == ["closed form, by configuration", "closed form, stacked",
                           "oracle, by configuration", "oracle, stacked"]
    results = {label: work() for label, work in cases.items()}
    assert len(results["closed form, by configuration"]) == 18
    assert len(results["closed form, stacked"]) == 9  # one call per (cavities, delta)
    # the stacked groups hold p 1 and 4 of each (cavities, delta), in grid order
    alone = results["oracle, by configuration"]
    stacked = np.concatenate(results["oracle, stacked"])
    assert stacked.tobytes() == np.concatenate(
        [matrix for k in range(9) for matrix in (alone[k], alone[k + 9])]).tobytes()
    closed = [np.concatenate(fields) for fields in zip(*results["closed form, stacked"])]
    pairs = [(results["closed form, by configuration"][k],
              results["closed form, by configuration"][k + 9]) for k in range(9)]
    for field, got in enumerate(closed):
        want = np.concatenate([x[field] for pair in pairs for x in pair])
        assert got.tobytes() == want.tobytes()
    _script().report("validate, oracle, stacked", cases["oracle, stacked"], 2, rows)
    assert capsys.readouterr().out.startswith("validate, oracle, stacked: median ")
