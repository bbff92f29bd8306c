#!/usr/bin/env python3
"""thermaljc benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload {figures,hot_bath,validate} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed).  Each pass runs in a fresh child interpreter
on one thread (BLAS thread variables set to 1), one pass after another, until
the next pass would end after ``--seconds`` and at least two passes per mode
have run.
``--trace 0`` times untraced passes and prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics.  Every output is checked (check.py) and every pass must reproduce the
first pass byte for byte.  Human-readable lines come first; the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
BLAS_THREADS = 1
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 2  # per mode: the second pass checks that outputs are reproducible
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 150.0
STOP_STARTING_S = 100.0  # no new pass after this, once MIN_PASSES have run

END_TO_END = {  # name: unit
    "pass_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_ops_frac": "frac",
}
PER_LAYER = {
    "core.self_s": "s",
    "core.from_mean.self_s": "s",
    "core.n_max_a": "count",
    "core.n_max_b": "count",
    "dynamics.calls": "count",
    "dynamics.self_s": "s",
    "dynamics.us_per_point": "us",
    "dynamics.trig_evals": "count",
    "dynamics.effective_coupling.self_s": "s",
    "observables.calls": "count",
    "observables.self_s": "s",
    "sweep.self_s": "s",
    "sweep.time_series.calls": "count",
    "sweep.time_series.self_s": "s",
    "sweep.verified_period.calls": "count",
    "sweep.verified_period.self_s": "s",
    "oracle.self_s": "s",
    "oracle.joint_density.calls": "count",
    "oracle.joint_density.self_s": "s",
    "oracle.ms_per_point": "ms",
    "oracle.branches": "count",
    "oracle.route_deviation.self_s": "s",
    "cli.main.calls": "count",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "cli.bytes_read": "B",
    "cli.exit_nonzero": "count",
    "svgplot.render_plot.calls": "count",
    "svgplot.render_plot.self_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.traced_pass_s": "s",
    "trace.overhead_frac": "frac",
    "trace.attributed_frac": "frac",
}
COMPUTED = {"core.n_max_a", "core.n_max_b", "dynamics.trig_evals", "oracle.branches",
            "cli.bytes_written", "cli.bytes_read"}


class BenchError(Exception):
    pass


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _source_facts(src: Path) -> tuple[int, str]:
    lines, digest = 0, hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + data)
    return lines, digest.hexdigest()


class Runner:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root, self.workload, self.seed = root, workload, seed
        self.env = {k: v for k, v in os.environ.items() if k != "THERMALJC_EPSILON_TAIL"}
        self.env["PYTHONPATH"] = str(root / "src")
        self.env.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
        self.src = (root / "src" / "thermaljc").resolve()

    def spawn(self, mode: str, outdir: Path) -> dict:
        argv = [sys.executable, str(HERE / "child.py"), self.workload, str(self.seed),
                str(outdir), repr(time.monotonic()), mode]
        proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"{mode} pass exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(result["src"]).resolve() != self.src:
            raise BenchError(f"child imported thermaljc from {result['src']}, not {self.src}")
        return result


def _layer_metrics(spans: dict, result: dict, counts: dict) -> dict[str, float]:
    def fn(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    def layer(prefix: str, key: str) -> float:
        return sum(v[key] for k, v in spans.items() if k.startswith(prefix + "."))

    dyn_self, ora_self = layer("dynamics", "self_s"), layer("oracle", "self_s")
    points, oracle_points = counts["closed_form_points"], counts["oracle_points"]
    total_self = sum(v["self_s"] for v in spans.values())
    return {
        "core.self_s": layer("core", "self_s"),
        "core.from_mean.self_s": fn("core.from_mean", "self_s"),
        "core.n_max_a": counts["n_max_a"],
        "core.n_max_b": counts["n_max_b"],
        "dynamics.calls": layer("dynamics", "calls"),
        "dynamics.self_s": dyn_self,
        "dynamics.us_per_point": 1e6 * dyn_self / points if points else 0.0,
        "dynamics.trig_evals": counts["trig_evals"],
        "dynamics.effective_coupling.self_s": fn("dynamics.effective_coupling", "self_s"),
        "observables.calls": layer("observables", "calls"),
        "observables.self_s": layer("observables", "self_s"),
        "sweep.self_s": layer("sweep", "self_s"),
        "sweep.time_series.calls": fn("sweep.time_series", "calls"),
        "sweep.time_series.self_s": fn("sweep.time_series", "self_s"),
        "sweep.verified_period.calls": fn("sweep.verified_period", "calls"),
        "sweep.verified_period.self_s": fn("sweep.verified_period", "self_s"),
        "oracle.self_s": ora_self,
        "oracle.joint_density.calls": fn("oracle.oracle_joint_density", "calls"),
        "oracle.joint_density.self_s": fn("oracle.oracle_joint_density", "self_s"),
        "oracle.ms_per_point": 1e3 * ora_self / oracle_points if oracle_points else 0.0,
        "oracle.branches": counts["oracle_branches"],
        "oracle.route_deviation.self_s": fn("oracle.max_route_deviation", "self_s"),
        "cli.main.calls": fn("cli.main", "calls"),
        "cli.self_s": layer("cli", "self_s"),
        "cli.bytes_written": result["bytes_written"],
        "cli.bytes_read": result["bytes_read"],
        "cli.exit_nonzero": sum(code != 0 for code in result["exit_codes"]),
        "svgplot.render_plot.calls": fn("svgplot.render_plot", "calls"),
        "svgplot.render_plot.self_s": fn("svgplot.render_plot", "self_s"),
        "trace.attributed_frac": total_self / result["pass_s"],
    }


def _tail_note(values: list[float]) -> str:
    n = len(values)
    if n < 11:
        return (f"pass_s.tail: not reported: {n} passes; a percentile with ten passes "
                f"beyond it needs at least 11")
    pct = 100.0 * (1.0 - 10.0 / n)
    rank = sorted(values)[n - 11]
    return f"pass_s.tail: {rank:.6g} s = p{pct:.0f} (the highest with ten of {n} passes beyond it)"


def run(args: argparse.Namespace, root: Path) -> int:
    src = root / "src"
    if not (src / "thermaljc" / "__init__.py").is_file():
        print(f"perfbench: {src}/thermaljc not found; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy

    import check

    work = root / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(root, args.workload, args.seed)
        runner.spawn("setup", work / "warmup")  # fills bytecode and page caches
        modes = ["run", "trace"] if args.trace else ["run"]
        passes: dict[str, list[dict]] = {mode: [] for mode in modes}
        setups: list[float] = []
        begin = time.monotonic()
        k = 0
        while True:
            mode = modes[k % len(modes)]
            result = runner.spawn(mode, work / f"pass-{k}")
            passes[mode].append(result)
            if mode == "run":
                setups.append(result["setup_s"])
            if k > 0:
                shutil.rmtree(work / f"pass-{k}", ignore_errors=True)
            k += 1
            elapsed = time.monotonic() - begin
            # start another pass only if it should end within the measured time
            if all(len(v) >= MIN_PASSES for v in passes.values()) and (
                    elapsed + result["pass_s"] > args.seconds or elapsed >= STOP_STARTING_S):
                break
        while len(setups) < SETUP_SAMPLES:
            setups.append(runner.spawn("setup", work / "setup")["setup_s"])

        calls = workloads.commands(args.workload, args.seed, work / "pass-0")
        counts = workloads.work(calls)
        reference = passes["run"][0]
        problems = {}
        for i, call in enumerate(calls):
            code = reference["exit_codes"][i]
            problem = (f"exit code {code}" if code != 0
                       else check.check_call(call, reference["stdout"][i], args.seed, i))
            if problem is not None:
                problems[i] = problem
        attempted = failed = 0
        for result in (r for mode in modes for r in passes[mode]):
            for i, call in enumerate(calls):
                attempted += 1
                if result["exit_codes"][i] != 0:
                    problems.setdefault(i, f"exit code {result['exit_codes'][i]}")
                    failed += 1
                elif result["digests"][i] != reference["digests"][i]:
                    problems.setdefault(i, "output differs between passes of one seed")
                    failed += 1
                elif i in problems:
                    failed += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    run_times = [r["pass_s"] for r in passes["run"]]
    pass_s = statistics.median(run_times)
    lines, src_digest = _source_facts(src)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS, "git_commit": _git_commit(root),
        "src_sha256": src_digest, "src_lines": lines,
        "n_max_per_config": workloads.cutoffs(calls),
        "passes": {mode: len(v) for mode, v in passes.items()},
        "work_per_pass": counts,
    }
    print("meta " + json.dumps(meta))
    for i, problem in sorted(problems.items()):
        print(f"FAILED call {i} ({calls[i].kind}): {problem}")

    q1, _, q3 = statistics.quantiles(run_times, n=4, method="inclusive")
    e2e = {
        "pass_s": pass_s,
        "points_per_s": (counts["closed_form_points"] + counts["oracle_points"]) / pass_s,
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in passes["run"]]),
        "setup_s": statistics.median(setups),
        "ok_ops_frac": 1.0 - failed / attempted,
    }
    samples = {name: len(run_times) for name in e2e} | {"setup_s": len(setups),
                                                         "ok_ops_frac": attempted}
    print(f"pass_s quartiles: q1 {q1:.6g} s, q3 {q3:.6g} s over {len(run_times)} passes")
    print(_tail_note(run_times))
    print(f"failed_ops_frac: {failed / attempted:.6g} ({failed} of {attempted} calls)")
    for name, value in e2e.items():
        print(f"{name:36s} {value:14.6g} {END_TO_END[name]:6s} n={samples[name]}")

    if args.trace:
        traced = passes["trace"]
        per_pass = [_layer_metrics(r["spans"], r, counts) for r in traced]
        layer = {name: statistics.median([m[name] for m in per_pass]) for name in per_pass[0]}
        traced_s = statistics.median([r["pass_s"] for r in traced])
        layer["trace.untraced_pass_s"] = pass_s
        layer["trace.traced_pass_s"] = traced_s
        layer["trace.overhead_frac"] = traced_s / pass_s - 1.0
        for name in PER_LAYER:
            label = "computed" if name in COMPUTED else ""
            print(f"{name:36s} {layer[name]:14.6g} {PER_LAYER[name]:6s} "
                  f"n={len(traced)} {label}")
        selfs = {name: layer[f"{name}.self_s"] for name in ("core", "dynamics", "observables",
                                                             "sweep", "oracle", "cli")}
        selfs["svgplot"] = layer["svgplot.render_plot.self_s"]
        top = max(selfs, key=selfs.get)
        print(f"bottleneck: {top} ({selfs[top] / traced_s:.0%} of the traced pass)")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        return run(args, Path.cwd())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
