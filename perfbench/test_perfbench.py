"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from thermaljc.cli import main as cli_main  # noqa: E402


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_seed0_figures_gives_the_reproduce_figures_commands(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "reproduce_figures", ROOT / "scripts" / "reproduce_figures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    recorded = []
    script.cli_main = lambda argv: recorded.append(list(argv)) or 0
    script.main(["--outdir", str(tmp_path)])
    assert recorded == [list(call.argv) for call in workloads.commands("figures", 0, tmp_path)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_jitter_values_but_keep_code_paths(workload, tmp_path):
    nominal = workloads.commands(workload, 0, tmp_path)
    seen = set()
    for seed in range(1, 21):
        calls = workloads.commands(workload, seed, tmp_path)
        assert calls == workloads.commands(workload, seed, tmp_path)
        seen.add(tuple(call.argv for call in calls))
        assert [c.kind for c in calls] == [c.kind for c in nominal]
        for call, base in zip(calls, nominal):
            for key in ("kbar", "lbar", "delta", "gt_max"):
                if key not in base.spec:
                    continue
                share = workloads.GT_MAX_JITTER if key == "gt_max" else workloads.MEAN_JITTER
                news, olds = call.spec[key], base.spec[key]
                if not isinstance(olds, list):
                    news, olds = [news], [olds]
                for new, old in zip(news, olds):
                    assert (new == 0.0) == (old == 0.0)
                    assert abs(new - old) <= share * abs(old) * (1 + 1e-12)
            if "kbar" in base.spec and "lbar" in base.spec:
                assert (call.spec["kbar"] == call.spec["lbar"]) == \
                       (base.spec["kbar"] == base.spec["lbar"])
            for key in ("p", "steps", "format", "curves", "rows", "times"):
                assert call.spec.get(key) == base.spec.get(key)
    assert len(seen) == 20


def _timeseries_call(tmp_path: Path, fmt: str) -> workloads.Call:
    output = tmp_path / f"series.{fmt}"
    argv = ["timeseries", "--p", "1", "--kbar", "2", "--lbar", "0.5", "--delta", "1",
            "--gt-max", "25", "--steps", "200", "--format", fmt, "--output", str(output),
            *workloads.BASE]
    spec = {"p": 1, "kbar": 2.0, "lbar": 0.5, "delta": 1.0, "gt_max": 25.0, "steps": 200,
            "format": fmt}
    assert cli_main(argv) == 0
    return workloads.Call(tuple(argv), str(output), spec)


def test_checker_flags_one_perturbed_csv_value(tmp_path):
    call = _timeseries_call(tmp_path, "csv")
    assert check.check_call(call, "", 0, 0) is None
    path = Path(call.output)
    lines = path.read_text().split("\n")
    fields = lines[58].split(",")
    fields[3] = repr(float(fields[3]) + 1e-7)  # x2 of one row
    lines[58] = ",".join(fields)
    path.write_text("\n".join(lines))
    assert "trace" in check.check_call(call, "", 0, 0)


def test_checker_flags_one_perturbed_json_value(tmp_path):
    call = _timeseries_call(tmp_path, "json")
    assert check.check_call(call, "", 0, 0) is None
    path = Path(call.output)
    doc = json.loads(path.read_text())
    doc["columns"]["concurrence"][123] += 1e-7
    path.write_text(json.dumps(doc, indent=2) + "\n")
    assert "concurrence" in check.check_call(call, "", 0, 0)


def test_checker_flags_a_failed_validate_line():
    call = workloads.commands("validate", 0, Path("."))[0]
    good = "".join(
        f"p={p} kbar={m} lbar={m} delta={d} max_deviation=1.000e-15 ok\n"
        for p in workloads.VALIDATE_GRID_P for m in workloads.VALIDATE_GRID_MEANS
        for d in workloads.VALIDATE_GRID_DELTAS) + "validate: all configurations ok (tolerance 1e-09)\n"
    assert check.check_call(call, good, 0, 0) is None
    assert check.check_call(call, good.replace("1.000e-15 ok", "2.000e-09 FAILED", 1), 0, 0)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
                "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert run.END_TO_END == declared["0"] and run.PER_LAYER == declared["1"]
    for trace in ("0", "1"):
        proc = _run_bench(ROOT, "--workload", "figures", "--seed", "7", "--seconds", "1",
                          "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().split("\n")
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared[trace]
        printed = {line.split()[0] for line in lines[:-1] if " n=" in line}
        assert printed >= set(declared[trace])


def test_fails_without_a_source_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "figures", "--seed", "0", "--seconds", "1",
                      "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
