"""Figure-level acceptance gate: ten quantitative criteria.

Every test prints one `ACCEPTANCE n: PASS/FAIL (...)` line straight to the
terminal (bypassing capture) before asserting, so a full run always shows all
ten verdicts with their measured numbers.

Criterion 8 is kept at its stated targets although the computed trajectory
violates two of its clauses (the measured energy minimum is -0.879, not
-0.7 +/- 0.05, and the purity at near-maximal entanglement dips 2.2e-4 below
the 0.999 floor, which the pure-state relation P = (1 + C^2)/2 only meets
marginally).  The test is expected to fail and reports the measured values;
the companion module tests freeze the measured behaviour instead.
"""

import json
import math

import numpy as np
import pytest

from thermaljc import (
    SystemParams,
    ThermalDistribution,
    concurrence,
    density_matrix,
    energy,
    purity,
    states,
    time_series,
)
from thermaljc.cli import main as cli_main
from thermaljc.dynamics import effective_coupling
from thermaljc.oracle import (
    joint_x_states,
    oracle_density_matrix,
    oracle_joint_density,
)
from thermaljc.sweep import dead_intervals, verified_period

from helpers import max_off_x_magnitude, wootters_concurrence_general, x_matrix, x_trace

GRID_P = (1, 4)
GRID_MEANS = (0.0, 0.1, 0.5)
GRID_DELTAS = (0.0, 1.0, 5.0)
GRID_TIMES = np.linspace(0.0, 25.0, 50)

# extrema window for the thermal-strength comparison: excludes the pinned
# start (C = P = 1) and stops short of the first revival at gt = 2*pi, where
# every configuration returns to the initial state and the orderings collapse
ORDERING_WINDOW = (0.5, 5.75)


def _dist(mean):
    return ThermalDistribution.from_mean(mean)


def _series(p, mean, delta, gt_max=25.0, steps=2000):
    return time_series(SystemParams(p=p, delta=delta), _dist(mean), _dist(mean),
                       gt_max, steps)


@pytest.fixture()
def announce(capsys):
    def _line(number, ok, detail):
        with capsys.disabled():
            print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} ({detail})")

    return _line


@pytest.fixture(scope="module")
def fig4_series():
    return _series(1, 0.1, 0.0)


@pytest.fixture(scope="module")
def p4_series():
    return _series(4, 0.1, 0.0)


@pytest.fixture(scope="module")
def thermal_series(fig4_series):
    return {0.1: fig4_series, 0.5: _series(1, 0.5, 0.0), 5.0: _series(1, 5.0, 0.0)}


@pytest.fixture(scope="module")
def detuning_series():
    return {
        delta: _series(1, 0.1, delta, gt_max=60.0, steps=4800)
        for delta in (0.1, 1.0, 5.0)
    }


def test_criterion_01_route_agreement(announce, capsys):
    rc = cli_main(["validate", "--gt-max", "25", "--times", "50", "--epsilon-tail", "1e-12"])
    lines = capsys.readouterr().out.splitlines()
    results = lines[:-1]
    worst = max(float(line.split("max_deviation=")[1].split()[0])
                if "max_deviation=" in line else math.inf for line in results)
    ok = rc == 0 and len(results) == 18 and all(line.endswith(" ok") for line in results)
    announce(1, ok, f"max |analytic - oracle| = {worst:.3e} over 18 configurations, "
                    f"tolerance 1e-09")
    assert ok


def test_criterion_02_state_invariants(announce):
    worst_trace = worst_eig = 0.0
    ranges = {"C": [1.0, 0.0], "P": [1.0, 0.0], "U": [1.0, -1.0]}
    for p in GRID_P:
        for mean in GRID_MEANS:
            dist = _dist(mean)
            for delta in GRID_DELTAS:
                params = SystemParams(p=p, delta=delta)
                for t in GRID_TIMES:
                    rho = density_matrix(params, dist, dist, float(t))
                    m = x_matrix(rho)
                    assert np.max(np.abs(m - m.conj().T)) == 0.0  # structural
                    worst_trace = max(worst_trace, abs(x_trace(rho) - 1.0))
                    worst_eig = min(worst_eig, float(np.min(np.linalg.eigvalsh(m))))
                    c, pu, u = concurrence(rho), purity(rho), energy(rho)
                    ranges["C"] = [min(ranges["C"][0], c), max(ranges["C"][1], c)]
                    ranges["P"] = [min(ranges["P"][0], pu), max(ranges["P"][1], pu)]
                    ranges["U"] = [min(ranges["U"][0], u), max(ranges["U"][1], u)]
    slack = 1e-9
    ok = (
        worst_trace <= 1e-9
        and worst_eig >= -1e-9
        and -slack <= ranges["C"][0] and ranges["C"][1] <= 1.0 + slack
        and 0.25 - slack <= ranges["P"][0] and ranges["P"][1] <= 1.0 + slack
        and -1.0 - slack <= ranges["U"][0] and ranges["U"][1] <= 1.0 + slack
    )
    announce(2, ok, f"max |trace - 1| = {worst_trace:.2e}, min eigenvalue = "
                    f"{worst_eig:.2e}, C in [{ranges['C'][0]:.3f}, {ranges['C'][1]:.3f}], "
                    f"P in [{ranges['P'][0]:.3f}, {ranges['P'][1]:.3f}], "
                    f"U in [{ranges['U'][0]:.3f}, {ranges['U'][1]:.3f}]")
    assert ok


def test_criterion_03_vacuum_closed_forms(announce):
    params = SystemParams()
    vacuum = _dist(0.0)
    times = np.linspace(0.0, 25.0, 1000)
    grid = states(params, vacuum, vacuum, times)
    phase = effective_coupling(params, times) * times
    s2, c2 = np.sin(phase) ** 2, np.cos(phase) ** 2
    worst = float(max(
        np.max(np.abs(concurrence(grid) - c2)),
        np.max(np.abs(purity(grid) - (s2**2 + c2**2))),
        np.max(np.abs(energy(grid) + s2)),
    ))
    worst_oracle = 0.0
    for i in range(0, times.size, 20):
        brute = oracle_density_matrix(params, vacuum, vacuum, float(times[i]))
        worst_oracle = max(
            worst_oracle,
            abs(concurrence(brute) - c2[i]),
            abs(purity(brute) - (s2[i] ** 2 + c2[i] ** 2)),
            abs(energy(brute) + s2[i]),
        )
    ok = worst <= 1e-12 and worst_oracle <= 1e-12
    announce(3, ok, f"closed-form deviation = {worst:.2e} over 1000 times "
                    f"(oracle cross-check {worst_oracle:.2e}), tolerance 1e-12")
    assert ok


def test_criterion_04_periodicity(announce):
    dist = _dist(0.1)
    worst = 0.0
    periods = {}
    for p in (1, 2, 4):
        params = SystemParams(p=p)
        period = 2.0 * math.pi / p
        tau = np.linspace(0.0, 25.0 - period, 12)
        r0 = states(params, dist, dist, tau)
        r1 = states(params, dist, dist, tau + period)
        worst = float(max(
            worst,
            np.max(np.abs(concurrence(r0) - concurrence(r1))),
            np.max(np.abs(purity(r0) - purity(r1))),
            np.max(np.abs(energy(r0) - energy(r1))),
        ))
        periods[p] = verified_period(params, dist, dist, 25.0)
    ok = (
        worst <= 1e-10
        and periods[1] == 2.0 * math.pi
        and periods[1] == 2.0 * periods[2]
        and periods[1] == 4.0 * periods[4]
    )
    announce(4, ok, f"observable shift over one period = {worst:.2e} "
                    f"(tolerance 1e-10); verified periods {periods[1]:.4f}, "
                    f"{periods[2]:.4f}, {periods[4]:.4f} for p = 1, 2, 4")
    assert ok


def test_criterion_05_motion_washes_out_sudden_death(announce, fig4_series, p4_series):
    episodes = dead_intervals(fig4_series.gt, fig4_series.concurrence)
    has_esd = any(hi > lo for lo, hi in episodes)
    min_c_p4 = float(np.min(p4_series.concurrence))
    max_gap = abs(
        float(np.max(fig4_series.concurrence)) - float(np.max(p4_series.concurrence))
    )
    ok = has_esd and min_c_p4 > 0.0 and max_gap <= 2e-3
    announce(5, ok, f"p=1 has {len(episodes)} sudden-death episodes (first "
                    f"{episodes[0] if episodes else None}); p=4 min C = {min_c_p4:.4f}; "
                    f"max-C gap across p = {max_gap:.2e} (tolerance 2e-3)")
    assert ok


def test_criterion_06_thermal_noise_lowers_every_extremum(announce, thermal_series):
    lo, hi = ORDERING_WINDOW
    rows = {}
    for mean, series in thermal_series.items():
        sel = (series.gt >= lo) & (series.gt <= hi)
        rows[mean] = (
            float(np.max(series.concurrence[sel])),
            float(np.max(series.purity[sel])),
            float(np.max(np.abs(series.energy[sel]))),
        )
    order = [rows[m] for m in (0.1, 0.5, 5.0)]
    ok = all(
        order[0][i] > order[1][i] > order[2][i] for i in range(3)
    )
    announce(6, ok, "window gt in [0.5, 5.75]: "
                    f"max C {order[0][0]:.4f} > {order[1][0]:.4f} > {order[2][0]:.4f}; "
                    f"max P {order[0][1]:.4f} > {order[1][1]:.4f} > {order[2][1]:.4f}; "
                    f"max |U| {order[0][2]:.4f} > {order[1][2]:.4f} > {order[2][2]:.4f}")
    assert ok


def _stabilization_time(series, level=0.99):
    """First grid time from which the concurrence stays at or above level."""
    below = np.flatnonzero(series.concurrence < level)
    if below.size == 0:
        return float(series.gt[0])
    if below[-1] == len(series) - 1:
        return math.inf
    return float(series.gt[below[-1] + 1])


def test_criterion_07_detuning_freezes_the_exchange(announce, detuning_series):
    strong = detuning_series[5.0]
    sel = strong.gt <= 25.0
    min_c = float(np.min(strong.concurrence[sel]))
    min_p = float(np.min(strong.purity[sel]))
    max_u = float(np.max(np.abs(strong.energy[sel])))
    stab = {delta: _stabilization_time(s) for delta, s in detuning_series.items()}
    # floors frozen after the first trajectory scan (measured 0.8580 / 0.8358
    # / 0.0686); stabilization = first grid time with C >= 0.99 ever after
    ok = (
        min_c >= 0.85
        and min_p >= 0.83
        and max_u <= 0.1
        and stab[0.1] > stab[1.0] > stab[5.0]
    )
    announce(7, ok, f"delta=5: min C = {min_c:.4f} (>= 0.85), min P = {min_p:.4f} "
                    f"(>= 0.83), max |U| = {max_u:.4f} (<= 0.1); stabilization "
                    f"times {stab[0.1]} > {stab[1.0]} > {stab[5.0]}")
    assert ok


def test_criterion_08_energy_extrema_on_the_epe_trajectory(announce, fig4_series):
    min_u = float(np.min(fig4_series.energy))
    max_abs_u = float(np.max(np.abs(fig4_series.energy)))
    high = fig4_series.concurrence >= 0.999
    assert np.any(high)
    min_p_high = float(np.min(fig4_series.purity[high]))
    max_u_high = float(np.max(np.abs(fig4_series.energy[high])))
    checks = {
        "min U in -0.7 +/- 0.05": -0.75 <= min_u <= -0.65,
        "P >= 0.999 at C >= 0.999": min_p_high >= 0.999,
        "|U| <= 0.01 at C >= 0.999": max_u_high <= 0.01,
        "no point reaches U = +/-1": max_abs_u < 1.0,
    }
    ok = all(checks.values())
    announce(8, ok, f"min U = {min_u:.4f} (target -0.7 +/- 0.05); min P at "
                    f"C >= 0.999 = {min_p_high:.5f} (target >= 0.999); max |U| at "
                    f"C >= 0.999 = {max_u_high:.5f} (target <= 0.01); max |U| = "
                    f"{max_abs_u:.4f} (target < 1)")
    assert checks["no point reaches U = +/-1"]
    assert checks["|U| <= 0.01 at C >= 0.999"]
    assert checks["P >= 0.999 at C >= 0.999"], f"measured min P {min_p_high}"
    assert checks["min U in -0.7 +/- 0.05"], f"measured min U {min_u}"


def test_criterion_09_x_structure_and_general_concurrence(announce):
    times = np.linspace(0.0, 25.0, 13)
    worst_off_x = 0.0
    worst_gap = 0.0
    for p in GRID_P:
        for mean in GRID_MEANS:
            dist = _dist(mean)
            for delta in (0.0, 5.0):
                params = SystemParams(p=p, delta=delta)
                joint = oracle_joint_density(params, dist, dist, times)
                worst_off_x = max(worst_off_x, max_off_x_magnitude(joint))
                for matrix, shortcut in zip(joint, concurrence(joint_x_states(joint))):
                    general = wootters_concurrence_general(matrix)
                    worst_gap = max(worst_gap, abs(general - shortcut))
    ok = worst_off_x <= 1e-12 and worst_gap <= 1e-10
    announce(9, ok, f"max off-X magnitude = {worst_off_x:.2e} (tolerance 1e-12); "
                    f"max |general - shortcut| concurrence = {worst_gap:.2e} "
                    f"(tolerance 1e-10)")
    assert ok


def test_criterion_10_cli_contract(announce, tmp_path):
    flags = ["--p", "1", "--kbar", "0.1", "--delta", "0", "--gt-max", "10",
             "--steps", "100"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rc_a = cli_main(["timeseries", *flags, "--output", str(a)])
    rc_b = cli_main(["timeseries", *flags, "--output", str(b)])
    header = a.read_text().splitlines()[0]
    header_ok = header == "gt,g_eff,x1,x2,x3_re,x3_im,x5,x6,concurrence,purity,energy"
    deterministic = a.read_bytes() == b.read_bytes()
    j1, j2 = tmp_path / "a.json", tmp_path / "b.json"
    cli_main(["timeseries", *flags, "--format", "json", "--no-timestamp",
              "--output", str(j1)])
    cli_main(["timeseries", *flags, "--format", "json", "--no-timestamp",
              "--output", str(j2)])
    json_deterministic = j1.read_bytes() == j2.read_bytes()
    codes = {
        "success": (rc_a, 0),
        "validate ok": (cli_main(["validate", "--kbar", "0", "--times", "5"]), 0),
        "usage": (cli_main(["timeseries", "--bogus"]), 1),
        "io": (cli_main(["timeseries", "--steps", "50", "--output",
                         str(tmp_path / "no" / "dir" / "x.csv")]), 2),
        "validation": (cli_main(["validate", "--kbar", "5", "--epsilon-tail",
                                 "1e-2", "--times", "5"]), 3),
    }
    codes_ok = all(got == want for got, want in codes.values())
    ok = header_ok and deterministic and json_deterministic and rc_b == 0 and codes_ok
    announce(10, ok, f"header exact: {header_ok}; byte-deterministic: "
                     f"{deterministic and json_deterministic}; exit codes "
                     f"{{{', '.join(f'{k}={got}' for k, (got, _) in codes.items())}}}")
    assert ok
