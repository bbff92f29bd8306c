"""Time-series generation and parameter scans, with derived summaries:
windowed extrema, zero-concurrence (sudden-death) intervals, and verified
oscillation periods."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import MAX_POINTS, SystemParams, ThermalDistribution
from .dynamics import states
from .observables import concurrence, energy, purity

DEAD_THRESHOLD = 1e-6
PERIOD_TOL = 1e-10

Config = tuple[SystemParams, ThermalDistribution, ThermalDistribution]


@dataclass(frozen=True)
class TimeSeries:
    """Columns of one trajectory over a uniform gt grid (all equal-length)."""

    gt: np.ndarray
    g_eff: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray  # complex coherence
    x5: np.ndarray
    x6: np.ndarray
    concurrence: np.ndarray
    purity: np.ndarray
    energy: np.ndarray

    def __post_init__(self) -> None:
        if self.gt.size < 2 or np.any(np.diff(self.gt) <= 0.0):
            raise ValueError("time grid must be strictly increasing")

    def __len__(self) -> int:
        return int(self.gt.size)


def time_series(
    params: SystemParams,
    dist_a: ThermalDistribution,
    dist_b: ThermalDistribution,
    gt_max: float,
    steps: int,
) -> TimeSeries:
    """Evaluate the closed form on steps+1 uniform points over [0, gt_max].

    The whole grid goes through one :func:`~thermaljc.dynamics.states` call,
    whose rows do not depend on the grid, so repeated runs are bit-identical.
    """
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    if steps >= MAX_POINTS:
        raise ValueError(
            f"steps must be < {MAX_POINTS}, the limit of grid points, got {steps}"
        )
    if not 0.0 < gt_max < math.inf:
        raise ValueError(f"gt_max must be positive and finite, got {gt_max}")
    gt = np.linspace(0.0, gt_max, steps + 1)
    grid = states(params, dist_a, dist_b, params.times(gt))
    return TimeSeries(gt, *grid, concurrence(grid), purity(grid), energy(grid))


def dead_intervals(
    gt: np.ndarray, conc: np.ndarray, threshold: float = DEAD_THRESHOLD
) -> list[tuple[float, float]]:
    """Maximal grid runs where the concurrence sits at zero (below threshold).

    Each interval reports the first and last grid time of the run, so an
    isolated zero yields a degenerate interval of zero width.
    """
    gt = np.asarray(gt, dtype=float)
    conc = np.asarray(conc, dtype=float)
    if gt.shape != conc.shape:
        raise ValueError("gt and concurrence arrays must have matching shapes")
    dead = np.concatenate(([False], conc <= threshold, [False]))
    edges = np.flatnonzero(np.diff(dead.astype(np.int8)))
    return [
        (float(gt[edges[i]]), float(gt[edges[i + 1] - 1]))
        for i in range(0, edges.size, 2)
    ]


def verified_period(
    params: SystemParams,
    dist_a: ThermalDistribution,
    dist_b: ThermalDistribution,
    gt_max: float,
    tol: float = PERIOD_TOL,
    probes: int = 16,
) -> float | None:
    """Return the resonant period 2*pi/p in gt units, checked against the
    dynamics, or None when no period is established.

    The closed form is exactly periodic only at delta = 0 with motion on (off
    resonance the sector phases carry a non-periodic delta*t contribution), so
    other settings return None without probing.  At resonance the candidate
    period is confirmed by comparing all five state elements at probe times
    tau and tau + 2*pi/p, all evaluated in one grid.
    """
    if not 0.0 < gt_max < math.inf:
        raise ValueError(f"gt_max must be positive and finite, got {gt_max}")
    if params.delta != 0.0 or not params.motion_enabled:
        return None
    period = 2.0 * math.pi / params.p
    if gt_max < period:
        return None  # the window cannot exhibit one full period
    base = np.linspace(0.0, min(gt_max - period, gt_max), probes)
    grid = states(params, dist_a, dist_b, params.times(np.concatenate((base, base + period))))
    deviation = max(
        float(np.max(np.abs(column[probes:] - column[:probes])))
        for column in (grid.x1, grid.x2, grid.x3, grid.x5, grid.x6)
    )
    return None if deviation > tol else period


@dataclass(frozen=True)
class SweepReport:
    """Summary of one configuration: windowed extrema of the three observables,
    sudden-death episodes, and the verified period (None if not periodic)."""

    p: int
    kbar: float
    lbar: float
    delta: float
    max_concurrence: float
    min_concurrence: float
    max_purity: float
    min_purity: float
    max_energy: float
    min_energy: float
    dead_intervals: tuple[tuple[float, float], ...]
    period: float | None


def scan(
    configs: Sequence[Config],
    gt_max: float = 25.0,
    steps: int = 2000,
    window_lo: float = 0.0,
) -> list[SweepReport]:
    """Summarize each configuration over a shared grid, in input order.

    ``window_lo`` restricts the reported extrema to gt >= window_lo; the exact
    initial state (C = P = 1, U = 0) and its periodic revivals otherwise pin
    every maximum to the same value.  Dead intervals and the period always use
    the full grid.
    """
    if len(configs) == 0:
        raise ValueError("scan requires at least one configuration")
    if not 0.0 <= window_lo < gt_max:
        raise ValueError(f"window_lo must lie in [0, gt_max), got {window_lo}")
    reports = []
    for params, dist_a, dist_b in configs:
        series = time_series(params, dist_a, dist_b, gt_max, steps)
        sel = series.gt >= window_lo
        reports.append(
            SweepReport(
                p=params.p,
                kbar=dist_a.mean_photons,
                lbar=dist_b.mean_photons,
                delta=params.delta,
                max_concurrence=float(np.max(series.concurrence[sel])),
                min_concurrence=float(np.min(series.concurrence[sel])),
                max_purity=float(np.max(series.purity[sel])),
                min_purity=float(np.min(series.purity[sel])),
                max_energy=float(np.max(series.energy[sel])),
                min_energy=float(np.min(series.energy[sel])),
                dead_intervals=tuple(
                    dead_intervals(series.gt, series.concurrence)
                ),
                period=verified_period(params, dist_a, dist_b, gt_max),
            )
        )
    return reports
