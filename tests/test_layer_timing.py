"""The layer-timing harness ``scripts/layer_timing.py``, without the kernel."""

import importlib.util
import pathlib
import re
import time

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
