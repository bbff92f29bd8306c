"""Seeded command lists for the three benchmark workloads, and the work they
imply, computed from the inputs alone.

A pass is a fixed list of ``thermaljc`` CLI calls, each run after the previous
one returns (closed loop, one client).  The seed jitters continuous inputs
only: mean photon numbers and detunings by up to +-5 %, ``--gt-max`` by up to
+-2 %.  Zero stays zero and every flag that selects a code path (delta = 0 or
not, equal or unequal cavities, p, motion, output format) is left alone, so
every seed exercises the same paths.  Seed 0 gives the nominal inputs; for
``figures`` those are exactly the commands of ``scripts/reproduce_figures.py``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("figures", "hot_bath", "validate")

MEAN_JITTER = 0.05
GT_MAX_JITTER = 0.02
EPSILON_TAIL = 1e-12  # the CLI default; run.py removes the env override
BASE = ["--g", "1", "--no-timestamp"]  # data subcommands, as in reproduce_figures

# `thermaljc validate` with no single-config flags walks this grid
VALIDATE_GRID_P = (1, 4)
VALIDATE_GRID_MEANS = (0.0, 0.1, 0.5)
VALIDATE_GRID_DELTAS = (0.0, 1.0, 5.0)
VALIDATE_TIMES = 50
PERIOD_PROBES = 16  # sweep.verified_period compares state pairs at 16 probes


@dataclass(frozen=True)
class Call:
    """One CLI call: its argv, the file it writes (None: stdout only) and the
    numeric inputs it was given, for the checker and the work counts."""

    argv: tuple[str, ...]
    output: str | None
    spec: dict

    @property
    def kind(self) -> str:
        return self.argv[0]


class _Jitter:
    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    def __call__(self, text: str, share: float) -> str:
        value = float(text)
        draw = self.rng.uniform(-share, share)  # drawn even when unused: stable order
        if self.seed == 0 or value == 0.0:
            return text
        return repr(value * (1.0 + draw))


def _series(jit: _Jitter, kind: str, p: str, kbar: str, delta: str,
            gt_max: str, steps: str, output: Path) -> Call:
    kbar, delta, gt_max = jit(kbar, MEAN_JITTER), jit(delta, MEAN_JITTER), jit(gt_max, GT_MAX_JITTER)
    argv = [kind, "--p", p, "--kbar", kbar, "--delta", delta, "--gt-max", gt_max,
            "--steps", steps, "--output", str(output), *BASE]
    spec = {"p": int(p), "kbar": float(kbar), "lbar": float(kbar), "delta": float(delta),
            "gt_max": float(gt_max), "steps": int(steps), "format": "csv"}
    return Call(tuple(argv), str(output), spec)


def _plot(source: Call, output: Path, extra: list[str]) -> Call:
    argv = ["plot", "--input", source.output, "--output", str(output), *extra]
    if "--projection" in extra:
        columns = 1
    else:
        columns = len(extra[extra.index("--columns") + 1].split(","))
    return Call(tuple(argv), str(output), {"input": source.output, "curves": columns,
                                           "rows": source.spec["steps"] + 1})


def _figures(jit: _Jitter, out: Path) -> list[Call]:
    calls = []
    fig1 = _series(jit, "timeseries", "1", "0", "0", "7", "2000", out / "fig1_vacuum.csv")
    calls += [fig1, _plot(fig1, out / "fig1_vacuum.svg",
                          ["--columns", "concurrence,purity,energy",
                           "--title", "vacuum cavities, p = 1"])]
    for kbar in ("0.1", "0.5", "5"):
        tag = kbar.replace(".", "p")
        call = _series(jit, "timeseries", "1", kbar, "0", "25", "2000",
                       out / f"fig2_kbar{tag}.csv")
        shown = call.argv[call.argv.index("--kbar") + 1]
        calls += [call, _plot(call, out / f"fig2_kbar{tag}.svg",
                              ["--columns", "concurrence,purity,energy",
                               "--title", f"thermal cavities, kbar = {shown}"])]
    for delta in ("0.1", "1", "5"):
        tag = delta.replace(".", "p")
        call = _series(jit, "timeseries", "1", "0.1", delta, "60", "4800",
                       out / f"fig3_delta{tag}.csv")
        shown = call.argv[call.argv.index("--delta") + 1]
        calls += [call, _plot(call, out / f"fig3_delta{tag}.svg",
                              ["--columns", "concurrence",
                               "--title", f"detuned, delta = {shown}"])]
    fig4 = _series(jit, "epe", "1", "0.1", "0", "25", "2000", out / "fig4_epe.csv")
    calls += [fig4,
              _plot(fig4, out / "fig4_epe_c_vs_p.svg",
                    ["--projection", "c-vs-p", "--title", "concurrence vs purity"]),
              _plot(fig4, out / "fig4_epe_c_vs_u.svg",
                    ["--projection", "c-vs-u", "--title", "concurrence vs energy"])]
    kbars = [jit(k, MEAN_JITTER) for k in ("0.1", "0.5", "5")]
    gt_max = jit("25", GT_MAX_JITTER)
    output = out / "scan_summary.csv"
    argv = ["scan", "--p", "1,4", "--kbar", ",".join(kbars), "--delta", "0",
            "--gt-max", gt_max, "--steps", "2000", "--output", str(output), *BASE]
    calls.append(Call(tuple(argv), str(output),
                      {"p": [1, 4], "kbar": [float(k) for k in kbars], "delta": [0.0],
                       "gt_max": float(gt_max), "steps": 2000}))
    return calls


def _hot_bath(jit: _Jitter, out: Path) -> list[Call]:
    kbar, lbar = jit("50", MEAN_JITTER), jit("0.5", MEAN_JITTER)
    delta, gt_max = jit("1", MEAN_JITTER), jit("25", GT_MAX_JITTER)
    output = out / "hot_bath.json"
    argv = ["timeseries", "--kbar", kbar, "--lbar", lbar, "--delta", delta,
            "--gt-max", gt_max, "--steps", "20000", "--format", "json",
            "--output", str(output), *BASE]
    return [Call(tuple(argv), str(output),
                 {"p": 1, "kbar": float(kbar), "lbar": float(lbar), "delta": float(delta),
                  "gt_max": float(gt_max), "steps": 20000, "format": "json"})]


def _validate(jit: _Jitter, out: Path) -> list[Call]:
    gt_max = jit("25", GT_MAX_JITTER)
    return [Call(("validate", "--gt-max", gt_max), None,
                 {"gt_max": float(gt_max), "times": VALIDATE_TIMES})]


def commands(workload: str, seed: int, outdir: Path) -> list[Call]:
    """The CLI calls of one pass of ``workload`` for ``seed``, writing into outdir."""
    makers = {"figures": _figures, "hot_bath": _hot_bath, "validate": _validate}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return makers[workload](_Jitter(seed), Path(outdir))


# ---------------------------------------------------------------- work counts


def _configs(call: Call) -> list[tuple[int, float, float, float]]:
    """(p, kbar, lbar, delta) of every configuration a data call evaluates."""
    spec = call.spec
    if call.kind in ("timeseries", "epe"):
        return [(spec["p"], spec["kbar"], spec["lbar"], spec["delta"])]
    if call.kind == "scan":
        return [(p, k, k, d) for p in spec["p"] for k in spec["kbar"] for d in spec["delta"]]
    if call.kind == "validate":
        return [(p, m, m, d) for p in VALIDATE_GRID_P for m in VALIDATE_GRID_MEANS
                for d in VALIDATE_GRID_DELTAS]
    return []


def _cutoff(mean: float) -> int:
    from thermaljc.core import truncation_index
    return truncation_index(mean, EPSILON_TAIL)


def _points_per_config(call: Call, p: int, delta: float) -> int:
    spec = call.spec
    if call.kind == "validate":
        return spec["times"]
    points = spec["steps"] + 1
    if call.kind == "scan" and delta == 0.0 and spec["gt_max"] >= 2.0 * math.pi / p:
        points += 2 * PERIOD_PROBES  # verified_period: state at tau and tau + period
    return points


def work(calls: list[Call]) -> dict[str, int]:
    """Work one pass does, computed from its inputs: closed-form and oracle
    state evaluations, sector-factor cos+sin evaluations of the closed form
    (cavities with equal statistics share one factor set), thermal branches
    the oracle accumulates, and the largest Fock cutoff per cavity."""
    totals = {"closed_form_points": 0, "oracle_points": 0, "trig_evals": 0,
              "oracle_branches": 0, "n_max_a": 0, "n_max_b": 0}
    for call in calls:
        for p, kbar, lbar, delta in _configs(call):
            n_a, n_b = _cutoff(kbar), _cutoff(lbar)
            points = _points_per_config(call, p, delta)
            factors = n_a + 2 if kbar == lbar else (n_a + 2) + (n_b + 2)
            totals["closed_form_points"] += points
            totals["trig_evals"] += points * 2 * factors
            totals["n_max_a"] = max(totals["n_max_a"], n_a)
            totals["n_max_b"] = max(totals["n_max_b"], n_b)
            if call.kind == "validate":
                totals["oracle_points"] += points
                totals["oracle_branches"] += points * (n_a + 1) * (n_b + 1)
    return totals


def cutoffs(calls: list[Call]) -> list[list]:
    """[subcommand, N_a, N_b] per configuration, for the run metadata."""
    return [[call.kind, _cutoff(k), _cutoff(l)] for call in calls
            for _, k, l, _ in _configs(call)]
