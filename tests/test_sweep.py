"""Trajectory generation, sudden-death extraction, periods, and scans."""

import math

import numpy as np
import pytest

from thermaljc import (
    SystemParams,
    ThermalDistribution,
    TimeSeries,
    concurrence,
    dead_intervals,
    density_matrix,
    energy,
    purity,
    scan,
    states,
    time_series,
    verified_period,
)

# first sudden-death episode of the reference trajectory (p=1, delta=0,
# both means 0.1) on the default 2000-step grid over gt <= 25, frozen
REFERENCE_DEAD = [
    (1.6125, 4.6625),
    (7.9, 10.95),
    (14.1875, 17.2375),
    (20.4625, 23.5125),
]


def _dist(mean):
    return ThermalDistribution.from_mean(mean)


@pytest.fixture(scope="module")
def reference_series():
    return time_series(SystemParams(), _dist(0.1), _dist(0.1), 25.0, 2000)


@pytest.fixture(scope="module")
def p4_series():
    return time_series(SystemParams(p=4), _dist(0.1), _dist(0.1), 25.0, 2000)


class TestTimeSeries:
    def test_grid_shape(self, reference_series):
        s = reference_series
        assert len(s) == 2001
        np.testing.assert_array_equal(s.gt, np.linspace(0.0, 25.0, 2001))
        for column in (s.g_eff, s.x1, s.x2, s.x3, s.x5, s.x6,
                       s.concurrence, s.purity, s.energy):
            assert column.shape == s.gt.shape

    def test_first_row_is_the_initial_state(self, reference_series):
        s = reference_series
        assert s.g_eff[0] == 0.0
        assert s.concurrence[0] == pytest.approx(1.0, abs=1e-9)
        assert s.purity[0] == pytest.approx(1.0, abs=1e-9)
        assert s.energy[0] == pytest.approx(0.0, abs=1e-9)

    def test_rows_match_single_point_evaluation(self, reference_series):
        s = reference_series
        i = 733
        rho = density_matrix(SystemParams(), _dist(0.1), _dist(0.1), float(s.gt[i]))
        assert s.x1[i] == rho.x1
        assert s.x3[i] == rho.x3
        assert s.x6[i] == rho.x6

    def test_deterministic_bit_for_bit(self):
        a = time_series(SystemParams(p=2), _dist(0.3), _dist(0.3), 8.0, 160)
        b = time_series(SystemParams(p=2), _dist(0.3), _dist(0.3), 8.0, 160)
        for name in ("gt", "g_eff", "x1", "x2", "x3", "x5", "x6",
                     "concurrence", "purity", "energy"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("gt_max, steps", [(25.0, 1), (25.0, 0), (0.0, 100), (-1.0, 100)])
    def test_rejects_degenerate_grids(self, gt_max, steps):
        with pytest.raises(ValueError):
            time_series(SystemParams(), _dist(0.1), _dist(0.1), gt_max, steps)

    def test_container_rejects_non_increasing_grid(self):
        flat = np.zeros(3)
        with pytest.raises(ValueError):
            TimeSeries(np.array([0.0, 1.0, 1.0]), flat, flat, flat,
                       flat.astype(complex), flat, flat, flat, flat, flat)


class TestEpeTrajectory:
    def test_matches_time_series_columns(self):
        params = SystemParams()
        series = time_series(params, _dist(0.1), _dist(0.1), 6.0, 120)
        assert len(series) == 121
        assert series.concurrence[0] == pytest.approx(1.0, abs=1e-9)
        assert series.purity[0] == pytest.approx(1.0, abs=1e-9)
        assert series.energy[0] == pytest.approx(0.0, abs=1e-9)
        assert series.gt.tolist() == np.linspace(0.0, 6.0, 121).tolist()
        # the trajectory's columns are the observables of the one grid kernel
        grid = states(params, _dist(0.1), _dist(0.1), series.gt / params.g)
        assert series.concurrence.tolist() == concurrence(grid).tolist()
        assert series.purity.tolist() == purity(grid).tolist()
        assert series.energy.tolist() == energy(grid).tolist()

    def test_minimal_energy_along_reference_trajectory(self, reference_series):
        # frozen measured value; see the acceptance suite for the figure-level
        # claim this feeds
        assert float(np.min(reference_series.energy)) == pytest.approx(
            -0.8787587401434579, abs=1e-9
        )


class TestDeadIntervals:
    def test_reference_episodes(self, reference_series):
        s = reference_series
        intervals = dead_intervals(s.gt, s.concurrence)
        assert len(intervals) == 4
        for got, expected in zip(intervals, REFERENCE_DEAD):
            assert got[0] == pytest.approx(expected[0], abs=1e-9)
            assert got[1] == pytest.approx(expected[1], abs=1e-9)

    def test_episodes_are_dead_inside_and_alive_just_outside(self, reference_series):
        s = reference_series
        step = s.gt[1] - s.gt[0]
        for lo, hi in dead_intervals(s.gt, s.concurrence):
            inside = (s.gt >= lo) & (s.gt <= hi)
            assert np.all(s.concurrence[inside] <= 1e-6)
            before = np.flatnonzero(np.isclose(s.gt, lo - step))
            after = np.flatnonzero(np.isclose(s.gt, hi + step))
            for idx in (*before, *after):
                assert s.concurrence[idx] > 1e-6

    def test_no_dead_time_for_fast_motion(self, p4_series):
        assert dead_intervals(p4_series.gt, p4_series.concurrence) == []
        assert float(np.min(p4_series.concurrence)) == pytest.approx(
            0.605750047362168, abs=1e-9
        )

    def test_unit_shapes(self):
        gt = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        assert dead_intervals(gt, np.array([1.0, 0.5, 0.2, 0.3, 1.0])) == []
        assert dead_intervals(gt, np.zeros(5)) == [(0.0, 4.0)]
        assert dead_intervals(gt, np.array([1.0, 0.0, 1.0, 0.0, 0.0])) == [
            (1.0, 1.0),
            (3.0, 4.0),
        ]

    def test_threshold_is_adjustable(self):
        gt = np.array([0.0, 1.0, 2.0])
        conc = np.array([1.0, 0.005, 1.0])
        assert dead_intervals(gt, conc) == []
        assert dead_intervals(gt, conc, threshold=0.01) == [(1.0, 1.0)]

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            dead_intervals(np.zeros(4), np.zeros(5))


class TestVerifiedPeriod:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_resonant_period_scales_inversely_with_p(self, p):
        params = SystemParams(p=p)
        period = verified_period(params, _dist(0.1), _dist(0.1), 25.0)
        assert period == 2.0 * math.pi / p

    def test_detuned_dynamics_are_not_periodic(self):
        params = SystemParams(delta=1.0)
        assert verified_period(params, _dist(0.1), _dist(0.1), 25.0) is None

    def test_needs_motion(self):
        params = SystemParams(motion_enabled=False)
        assert verified_period(params, _dist(0.1), _dist(0.1), 25.0) is None

    def test_needs_a_full_period_in_window(self):
        params = SystemParams()
        assert verified_period(params, _dist(0.1), _dist(0.1), 5.0) is None

    @pytest.mark.parametrize("run", [verified_period, lambda *a: time_series(*a, 3)])
    def test_an_overflowing_time_grid_is_named(self, run):
        params = SystemParams(g=1e-150)
        with pytest.raises(ValueError, match=r"^gt_max/g = 1e\+300/1e-150 overflows"):
            run(params, _dist(0.1), _dist(0.1), 1e300)

    @pytest.mark.parametrize("run", [verified_period, lambda *a: time_series(*a, 3)])
    @pytest.mark.parametrize("gt_max", [math.inf, math.nan, 0.0, -1.0])
    def test_a_non_finite_or_non_positive_gt_max_is_refused_up_front(self, run, gt_max):
        # inf used to reach np.linspace (a RuntimeWarning, an error under the
        # test settings) and come out as "gt_max/g = nan/1 overflows"
        with pytest.raises(ValueError) as info:
            run(SystemParams(), _dist(0.1), _dist(0.1), gt_max)
        assert str(info.value) == f"gt_max must be positive and finite, got {gt_max}"


class TestScan:
    def test_rejects_empty_configuration_list(self):
        with pytest.raises(ValueError):
            scan([])

    def test_rejects_bad_window(self):
        config = (SystemParams(), _dist(0.1), _dist(0.1))
        with pytest.raises(ValueError):
            scan([config], gt_max=25.0, window_lo=25.0)

    def test_reports_follow_input_order(self):
        dist = _dist(0.1)
        configs = [
            (SystemParams(p=4), dist, dist),
            (SystemParams(p=1), dist, dist),
        ]
        reports = scan(configs, gt_max=10.0, steps=400)
        assert [r.p for r in reports] == [4, 1]
        assert all(r.kbar == 0.1 and r.lbar == 0.1 for r in reports)

    def test_window_excludes_the_pinned_start(self):
        dist = _dist(0.1)
        config = (SystemParams(), dist, dist)
        full = scan([config], gt_max=25.0, steps=2000)[0]
        windowed = scan([config], gt_max=25.0, steps=2000, window_lo=0.5)[0]
        # gt = 0 sits on the grid and pins the unwindowed maximum
        assert full.max_concurrence == pytest.approx(1.0, abs=1e-9)
        assert windowed.max_concurrence < full.max_concurrence
        # dead intervals and period ignore the window
        assert windowed.dead_intervals == full.dead_intervals
        assert windowed.period == full.period == pytest.approx(2.0 * math.pi)

    def test_fast_motion_shrinks_amplitude_but_not_the_maximum(
        self, reference_series, p4_series
    ):
        amp_p1 = float(np.max(reference_series.concurrence) - np.min(reference_series.concurrence))
        amp_p4 = float(np.max(p4_series.concurrence) - np.min(p4_series.concurrence))
        max_p1 = float(np.max(reference_series.concurrence))
        max_p4 = float(np.max(p4_series.concurrence))
        assert amp_p4 < amp_p1
        assert abs(max_p1 - max_p4) <= 2e-3

    def test_extrema_stable_under_grid_refinement(self):
        dist = _dist(0.1)
        config = (SystemParams(p=4), dist, dist)
        coarse = scan([config], gt_max=25.0, steps=2000)[0]
        fine = scan([config], gt_max=25.0, steps=4000)[0]
        for name in (
            "max_concurrence", "min_concurrence", "max_purity",
            "min_purity", "max_energy", "min_energy",
        ):
            assert abs(getattr(coarse, name) - getattr(fine, name)) < 1e-3

    def test_scan_is_deterministic(self):
        dist = _dist(0.3)
        config = (SystemParams(p=2), dist, dist)
        assert scan([config], gt_max=8.0, steps=160) == scan(
            [config], gt_max=8.0, steps=160
        )
