"""Closed-form route: motion-averaged coupling, dressed factors, Fock sums.

The heaviest test here re-evaluates every matrix element as a literal double
sum over both photon numbers, with the mixing angle taken through its arctan
definition, and checks the production code (factorized single sums, algebraic
angle forms, grid-vectorized reductions) against that plain-loop reference.
The dressed-sector factors are checked through the states they produce: two
vacuum cavities only reach sectors 0 and 1, and sector n at coupling g' is
sector 1 at coupling g'*sqrt(n).
"""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thermaljc import (
    SystemParams,
    ThermalDistribution,
    TruncationError,
    density_matrix,
    dynamics,
    effective_coupling,
    oracle_density_matrix,
    states,
)
from thermaljc.cli import main

from helpers import x_matrix


def _dist(mean):
    return ThermalDistribution.from_mean(mean)


def _vacuum_elements(sector0, sector1, t):
    """X elements (x1, x2, x3, x5, x6) of two vacuum cavities, built from the
    (lambda, sin 2theta, cos 2theta) of sectors 0 and 1, the only sectors a
    vacuum pair reaches."""

    def factors(lam, sin2t, cos2t):
        c, s = math.cos(0.5 * lam * t), math.sin(0.5 * lam * t)
        return c * c + (s * cos2t) ** 2, (s * sin2t) ** 2, complex(c, s * cos2t)

    stay0, swap0, amp0 = factors(*sector0)
    stay1, swap1, amp1 = factors(*sector1)
    return (
        swap1 * stay0,
        0.5 * (swap1 * swap0 + stay0 * stay1),
        0.5 * abs(amp0 * amp1) ** 2,
        0.5 * (stay1 * stay0 + swap0 * swap1),
        stay1 * swap0,
    )


def _sector_one(g, delta):
    lam = math.hypot(delta, 2.0 * g)
    return lam, -2.0 * g / lam, delta / lam


# the float 2*pi + 1e-7 and its exact distance e from the revival at 2*pi;
# 2.449e-16 is 2*pi - fl(2*pi)
_NEAR_REVIVAL = 2.0 * math.pi + 1e-7
_E = (_NEAR_REVIVAL - 2.0 * math.pi) - 2.4492935982947064e-16


class TestEffectiveCoupling:
    def test_zero_at_start(self):
        assert effective_coupling(SystemParams(), 0.0) == 0.0

    def test_motion_disabled_returns_bare_coupling(self):
        params = SystemParams(g=0.7, motion_enabled=False)
        for t in (0.0, 1.0, 13.7):
            assert effective_coupling(params, t) == 0.7

    @pytest.mark.parametrize(
        "p, g, t, expected",
        [
            (1, 1.0, math.pi, 2.0 / math.pi),
            (1, 1.0, 1.0, 1.0 - math.cos(1.0)),
            (2, 1.5, 2.0, (1.0 - math.cos(6.0)) / 4.0),
        ],
    )
    def test_frozen_values(self, p, g, t, expected):
        params = SystemParams(g=g, p=p)
        assert effective_coupling(params, t) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_vanishes_at_revivals(self, p):
        params = SystemParams(p=p)
        for k in (1, 2, 3):
            t = 2.0 * math.pi * k / p
            assert effective_coupling(params, t) == pytest.approx(0.0, abs=1e-15)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            effective_coupling(SystemParams(), -0.1)

    @pytest.mark.parametrize("t", [math.nan, math.inf, np.array([0.5, math.nan])])
    def test_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError, match="finite"):
            effective_coupling(SystemParams(), t)

    @pytest.mark.parametrize(
        "t, series",
        [
            # g' = 2*sin(t/2)**2/t = t/2 - t**3/24 + ... at p = g = 1
            (1e-9, 1e-9 / 2.0 - 1e-27 / 24.0),
            (1e-6, 1e-6 / 2.0 - 1e-18 / 24.0),
            # t = 2*pi + e: g' = 2*sin(e/2)**2/t = (e**2/2)*(1 - e**2/12)/t
            (_NEAR_REVIVAL, 0.5 * _E * _E * (1.0 - _E * _E / 12.0) / _NEAR_REVIVAL),
        ],
    )
    def test_no_cancellation_near_start_and_revival(self, t, series):
        # [1 - cos(p*g*t)]/(p*t) has relative error 1.0, 9e-5 and 8e-4 here
        assert effective_coupling(SystemParams(), t) == pytest.approx(series, rel=1e-14)

    def test_array_input_matches_scalar_calls(self):
        params = SystemParams(p=3, g=1.3)
        t = np.array([0.0, 1e-8, 0.4, 2.0 * math.pi / 3.9, 7.25])
        grid = effective_coupling(params, t)
        assert isinstance(grid, np.ndarray) and grid.shape == t.shape
        assert grid.tolist() == [effective_coupling(params, float(x)) for x in t]

    @given(
        t=st.floats(min_value=1e-6, max_value=100.0),
        p=st.integers(min_value=1, max_value=8),
    )
    def test_accumulated_phase_is_bounded(self, t, p):
        # g'(t)*t = [1 - cos(p*g*t)]/p can never exceed 2/p
        g_eff = effective_coupling(SystemParams(p=p), t)
        assert 0.0 <= g_eff * t <= 2.0 / p + 1e-15


class TestDressedParams:
    @pytest.mark.parametrize(
        "g_eff, delta, n, expected",
        [
            (1.0, 0.0, 1, (2.0, -1.0, 0.0)),
            (1.0, 0.0, 4, (4.0, -1.0, 0.0)),
            (1.0, 2.0, 0, (2.0, 0.0, 1.0)),
            (1.0, -2.0, 0, (2.0, 0.0, -1.0)),
            (0.5, 3.0, 4, (math.sqrt(13.0), -2.0 / math.sqrt(13.0), 3.0 / math.sqrt(13.0))),
        ],
    )
    def test_frozen_values(self, g_eff, delta, n, expected):
        # expected = (lambda_n, sin 2theta_n, cos 2theta_n) of sector n
        t = 0.7
        vacuum = _dist(0.0)
        if n == 0:
            g = g_eff
            sector0, sector1 = expected, _sector_one(g_eff, delta)
        else:
            g = g_eff * math.sqrt(n)
            sector0, sector1 = (abs(delta), 0.0, math.copysign(1.0, delta)), expected
        params = SystemParams(g=g, delta=delta, motion_enabled=False)
        rho = density_matrix(params, vacuum, vacuum, t)
        want = _vacuum_elements(sector0, sector1, t)
        for got, value in zip((rho.x1, rho.x2, rho.x3, rho.x5, rho.x6), want):
            assert got == pytest.approx(value, abs=1e-14)
        if n == 0:
            # the pure phase exp(i*delta*t/2) of sector 0 only shows against the
            # other sectors, in the coherence of unequal cavities
            warm = _dist(0.3)
            closed = density_matrix(params, vacuum, warm, t)
            brute = oracle_density_matrix(params, vacuum, warm, t)
            assert abs(closed.x3 - brute.x3) < 1e-12

    def test_degenerate_sector_is_inert(self):
        # at t = 0 a moving atom has g' = 0, so at resonance every sector has
        # lambda = 0: the state must be the initial Bell mixture, exactly
        dist = _dist(0.5)
        rho = density_matrix(SystemParams(), dist, dist, 0.0)
        assert (rho.x1, rho.x6) == (0.0, 0.0)
        assert rho.x2 == rho.x5 == rho.x3

    @pytest.mark.parametrize("g_eff, n", [(-0.1, 1), (1.0, -1)])
    def test_rejects_bad_arguments(self, g_eff, n):
        # neither a negative coupling nor a negative sector reaches the kernel
        with pytest.raises(ValueError):
            dist = ThermalDistribution(0.0, n)
            states(SystemParams(g=g_eff), dist, dist, np.array([1.0]))

    @given(
        g_eff=st.floats(min_value=1e-3, max_value=10.0),
        delta=st.floats(min_value=-10.0, max_value=10.0),
        n=st.integers(min_value=1, max_value=40),
    )
    def test_matches_arctan_angle_definition(self, g_eff, delta, n):
        root = g_eff * math.sqrt(n)
        theta = -math.atan(
            (math.sqrt(0.25 * delta**2 + root**2) - 0.5 * delta) / root
        )
        sector1 = (math.hypot(delta, 2.0 * root), math.sin(2.0 * theta), math.cos(2.0 * theta))
        sector0 = (abs(delta), 0.0, math.copysign(1.0, delta))
        t = 0.9
        vacuum = _dist(0.0)
        params = SystemParams(g=root, delta=delta, motion_enabled=False)
        rho = density_matrix(params, vacuum, vacuum, t)
        want = _vacuum_elements(sector0, sector1, t)
        for got, value in zip((rho.x1, rho.x2, rho.x3, rho.x5, rho.x6), want):
            assert got == pytest.approx(value, abs=1e-12)

    @given(
        # subnormal magnitudes lose significand bits in the quotient and break
        # the identity at the 1e-12 level; keep inputs in the physical range
        g_eff=st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=10.0)),
        delta=st.one_of(st.just(0.0),
                        st.floats(min_value=1e-6, max_value=10.0),
                        st.floats(min_value=-10.0, max_value=-1e-6)),
        n=st.integers(min_value=0, max_value=60),
    )
    def test_angle_functions_stay_on_unit_circle(self, g_eff, delta, n):
        # sin^2 + cos^2 = 1 in every sector is what keeps a vacuum pair's trace at 1
        coupling = g_eff * math.sqrt(n)
        if coupling > 0.0:
            params, t = SystemParams(g=coupling, delta=delta, motion_enabled=False), 0.9
        else:  # g' = 0: the start of a moving atom's transit
            params, t = SystemParams(delta=delta), 0.0
        vacuum = _dist(0.0)
        rho = density_matrix(params, vacuum, vacuum, t)
        assert rho.trace == pytest.approx(1.0, abs=1e-14)


class TestFactorCache:
    @pytest.mark.parametrize("delta", [0.0, 1.0, -2.5])
    def test_stay_and_swap_partition_unity(self, delta):
        # with stay + swap = 1 in every sector the trace is the product of the
        # retained thermal weights of the two cavities
        dist = _dist(0.5)
        rho = density_matrix(SystemParams(delta=delta), dist, dist, 1.3)
        kept = float(np.sum(dist.probabilities()))
        assert rho.trace == pytest.approx(kept * kept, abs=1e-14)

    def test_amp_magnitude_squared_equals_stay(self):
        # for a vacuum pair x3 = |amp_0 amp_1|^2 / 2 and x2 = stay_0 stay_1 / 2;
        # coupling 0.8*sqrt(n) stands in for sector n
        vacuum = _dist(0.0)
        for n in (1, 2, 5, 20):
            params = SystemParams(g=0.8 * math.sqrt(n), delta=1.0, motion_enabled=False)
            rho = density_matrix(params, vacuum, vacuum, 2.1)
            assert rho.x3 == pytest.approx(rho.x2, abs=1e-14)

    def test_arrays_run_one_sector_past_cutoff(self):
        # the excited branch of the top retained photon number lives one sector
        # above the cutoff: a vacuum pair (cutoff 0) still transfers via sector 1
        vacuum = _dist(0.0)
        params = SystemParams(g=0.8, motion_enabled=False)
        rho = density_matrix(params, vacuum, vacuum, 1.0)
        assert rho.x1 == pytest.approx(math.sin(0.8) ** 2, abs=1e-15)


def _reference_elements(params, dist_a, dist_b, t):
    """Literal double-sum evaluation of the X elements with arctan angles.

    Only valid for delta >= 0 and g_eff > 0 (the arctan expression is singular
    otherwise); the production code handles those edges separately.
    """
    g_eff = effective_coupling(params, t)
    delta = params.delta
    assert g_eff > 0.0 and delta >= 0.0

    def factors(n):
        if n == 0:
            half = 0.5 * t * delta
            return 1.0, 0.0, complex(math.cos(half), math.sin(half))
        root = g_eff * math.sqrt(n)
        theta = -math.atan(
            (math.sqrt(0.25 * delta**2 + root**2) - 0.5 * delta) / root
        )
        lam = math.hypot(delta, 2.0 * root)
        c = math.cos(0.5 * lam * t)
        s = math.sin(0.5 * lam * t)
        stay = c * c + (s * math.cos(2.0 * theta)) ** 2
        swap = (s * math.sin(2.0 * theta)) ** 2
        return stay, swap, complex(c, s * math.cos(2.0 * theta))

    pa = dist_a.probabilities()
    pb = dist_b.probabilities()
    x1 = x2 = x5 = x6 = 0.0
    x3 = 0.0j
    for n in range(dist_a.n_max + 1):
        stay_a_n, swap_a_n, amp_a_n = factors(n)
        stay_a_n1, swap_a_n1, amp_a_n1 = factors(n + 1)
        for m in range(dist_b.n_max + 1):
            stay_b_m, swap_b_m, amp_b_m = factors(m)
            stay_b_m1, swap_b_m1, amp_b_m1 = factors(m + 1)
            w = 0.5 * pa[n] * pb[m]
            x1 += w * (swap_a_n1 * stay_b_m + stay_a_n * swap_b_m1)
            x2 += w * (swap_a_n1 * swap_b_m + stay_a_n * stay_b_m1)
            x3 += w * (amp_a_n * amp_a_n1) * (amp_b_m * amp_b_m1).conjugate()
            x5 += w * (stay_a_n1 * stay_b_m + swap_a_n * swap_b_m1)
            x6 += w * (stay_a_n1 * swap_b_m + swap_a_n * stay_b_m1)
    return x1, x2, x3, x5, x6


class TestDoubleSumReference:
    @pytest.mark.parametrize("delta", [0.0, 1.0, 5.0])
    @pytest.mark.parametrize("gt", [0.7, 1.3, 2.9])
    def test_factorized_sums_match_plain_loops(self, delta, gt):
        params = SystemParams(delta=delta)
        dist_a, dist_b = _dist(0.05), _dist(0.08)
        rho = density_matrix(params, dist_a, dist_b, gt)
        x1, x2, x3, x5, x6 = _reference_elements(params, dist_a, dist_b, gt)
        assert rho.x1 == pytest.approx(x1, abs=1e-12)
        assert rho.x2 == pytest.approx(x2, abs=1e-12)
        assert abs(rho.x3 - x3) < 1e-12
        assert rho.x5 == pytest.approx(x5, abs=1e-12)
        assert rho.x6 == pytest.approx(x6, abs=1e-12)


class TestDensityMatrix:
    def test_initial_state_is_the_bell_mixture(self):
        rho = density_matrix(SystemParams(delta=1.0), _dist(0.1), _dist(0.1), 0.0)
        assert rho.x1 == 0.0
        assert rho.x6 == 0.0
        assert rho.x2 == pytest.approx(0.5, abs=1e-9)
        assert rho.x5 == pytest.approx(0.5, abs=1e-9)
        assert rho.x3 == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("p", [1, 4])
    @pytest.mark.parametrize("mean", [0.1, 0.5])
    @pytest.mark.parametrize("gt", [0.3, 1.1, 2.7, 5.9])
    def test_resonant_path_matches_general_path(self, p, mean, gt):
        # delta = 0, once a separate fast path, runs through the one kernel
        params = SystemParams(p=p)
        dist = _dist(mean)
        rho = density_matrix(params, dist, dist, gt)
        reference = _reference_elements(params, dist, dist, gt)
        for name, value in zip(("x1", "x2", "x3", "x5", "x6"), reference):
            assert abs(getattr(rho, name) - value) < 1e-12

    @pytest.mark.parametrize("gt", np.linspace(0.1, 6.2, 13).tolist())
    def test_vacuum_elements_close_in_one_trig_function(self, gt):
        params = SystemParams()
        rho = density_matrix(params, _dist(0.0), _dist(0.0), gt)
        phase = effective_coupling(params, gt) * gt
        s2, c2 = math.sin(phase) ** 2, math.cos(phase) ** 2
        assert rho.x1 == pytest.approx(s2, abs=1e-12)
        assert rho.x2 == pytest.approx(0.5 * c2, abs=1e-12)
        assert abs(rho.x3 - 0.5 * c2) < 1e-12
        assert rho.x5 == pytest.approx(0.5 * c2, abs=1e-12)
        assert rho.x6 == pytest.approx(0.0, abs=1e-12)

    def test_equal_cavities_give_equal_middle_populations(self):
        dist = _dist(0.3)
        for gt in (0.4, 1.9, 3.3):
            rho = density_matrix(SystemParams(delta=1.0), dist, dist, gt)
            assert rho.x2 == rho.x5  # identical expressions, bit for bit

    def test_unequal_cavities_break_that_symmetry(self):
        rho = density_matrix(SystemParams(), _dist(0.05), _dist(0.8), 1.9)
        assert rho.x2 != rho.x5

    def test_loose_truncation_fails_the_trace_gate(self):
        # certified only to 0.5: fine for construction, fatal for the trace
        coarse = ThermalDistribution(5.0, 3, 0.5)
        with pytest.raises(TruncationError):
            density_matrix(SystemParams(), coarse, coarse, 1.0)

    @pytest.mark.parametrize("gt", [0.9, 2.2])
    def test_negative_detuning_matches_oracle(self, gt):
        # exercises the sign convention of the one-dimensional sector
        params = SystemParams(delta=-2.0)
        dist = _dist(0.1)
        analytic = x_matrix(density_matrix(params, dist, dist, gt))
        brute = x_matrix(oracle_density_matrix(params, dist, dist, gt))
        assert np.max(np.abs(analytic - brute)) < 1e-9


_FIELDS = ("g_eff", "x1", "x2", "x3", "x5", "x6")
_means = st.sampled_from([0.0, 0.05, 0.3, 1.0, 2.5])
_times = st.lists(st.floats(min_value=0.0, max_value=30.0), min_size=1, max_size=12)


class TestStates:
    @given(
        p=st.integers(min_value=1, max_value=8),
        kbar=_means,
        lbar=_means,
        delta=st.floats(min_value=-5.0, max_value=5.0),
        motion=st.booleans(),
        gt=_times,
    )
    def test_every_row_is_a_valid_state(self, p, kbar, lbar, delta, motion, gt):
        grid = states(SystemParams(delta=delta, p=p, motion_enabled=motion),
                      _dist(kbar), _dist(lbar), np.array(gt))
        trace = grid.x1 + grid.x2 + grid.x5 + grid.x6
        assert np.all(np.abs(trace - 1.0) <= 1e-11)
        populations = np.stack((grid.x1, grid.x2, grid.x5, grid.x6))
        assert np.all(populations >= -1e-15)
        inner = 0.5 * (grid.x2 + grid.x5) - np.hypot(0.5 * (grid.x2 - grid.x5), np.abs(grid.x3))
        assert np.all(inner >= -1e-12)

    @given(
        p=st.integers(min_value=1, max_value=8),
        kbar=_means,
        lbar=_means,
        delta=st.floats(min_value=-5.0, max_value=5.0),
        gt=_times,
    )
    def test_x_structure_under_exchange_of_the_cavities(self, p, kbar, lbar, delta, gt):
        # relabelling the atoms swaps |ge> and |eg>: x2 <-> x5, x3 -> conj(x3);
        # equal cavities are their own image, so x2 = x5 and x3 is real
        params = SystemParams(delta=delta, p=p)
        t = np.array(gt)
        ab = states(params, _dist(kbar), _dist(lbar), t)
        ba = states(params, _dist(lbar), _dist(kbar), t)
        assert np.array_equal(ab.x1, ba.x1) and np.array_equal(ab.x6, ba.x6)
        assert np.array_equal(ab.x2, ba.x5) and np.array_equal(ab.x5, ba.x2)
        assert np.array_equal(ab.x3, np.conj(ba.x3))
        if kbar == lbar:
            assert np.array_equal(ab.x2, ab.x5) and np.all(ab.x3.imag == 0.0)

    @given(p=st.integers(min_value=1, max_value=8), kbar=_means, lbar=_means, gt=_times)
    def test_resonant_period_is_two_pi_over_p(self, p, kbar, lbar, gt):
        params = SystemParams(p=p)
        a, b = _dist(kbar), _dist(lbar)
        t = np.array(gt)
        now = states(params, a, b, t)
        later = states(params, a, b, t + 2.0 * math.pi / p)
        for name in _FIELDS[1:]:
            assert np.max(np.abs(getattr(now, name) - getattr(later, name))) <= 1e-10

    @given(
        g=st.floats(min_value=0.05, max_value=20.0),
        p=st.integers(min_value=1, max_value=8),
        kbar=_means,
        delta=st.floats(min_value=-5.0, max_value=5.0),
        motion=st.booleans(),
        gt=_times,
    )
    def test_g_only_rescales_the_clock(self, g, p, kbar, delta, motion, gt):
        # at fixed delta/g the state depends on gt alone
        dist = _dist(kbar)
        gt = np.array(gt)
        unit = states(SystemParams(delta=delta, p=p, motion_enabled=motion), dist, dist, gt)
        scaled = states(SystemParams(g=g, delta=delta * g, p=p, motion_enabled=motion),
                        dist, dist, gt / g)
        assert np.allclose(scaled.g_eff, g * unit.g_eff, rtol=1e-12, atol=1e-15)
        for name in _FIELDS[1:]:
            assert np.max(np.abs(getattr(scaled, name) - getattr(unit, name))) <= 1e-12

    def test_a_time_is_bit_identical_alone_in_a_grid_and_in_any_block(self, monkeypatch):
        params = SystemParams(p=2, delta=0.7)
        a, b = _dist(0.3), _dist(1.5)
        count = b.n_max + 2
        grid = np.linspace(0.0, 12.0, 2001)
        reference = states(params, a, b, grid)
        assert count * grid.size > dynamics._BLOCK_ELEMENTS  # several blocks
        step = dynamics._BLOCK_ELEMENTS // count
        picks = (0, 1, step - 1, step, 1000, 2000)
        for budget in (1, 7 * count, dynamics._BLOCK_ELEMENTS):
            monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", budget)
            blocked = states(params, a, b, grid)
            for name in _FIELDS:
                assert np.array_equal(getattr(blocked, name), getattr(reference, name))
            for i in picks:
                alone = states(params, a, b, grid[i : i + 1])
                for name in _FIELDS:
                    assert getattr(alone, name)[0] == getattr(reference, name)[i]

    def test_density_matrix_is_the_one_point_view(self):
        params = SystemParams(delta=-0.4, p=3)
        a, b = _dist(0.2), _dist(0.9)
        grid = states(params, a, b, np.array([0.5, 2.25]))
        assert density_matrix(params, a, b, 2.25) == grid.at(1)

    def test_empty_grid(self):
        grid = states(SystemParams(), _dist(0.1), _dist(0.1), np.array([]))
        assert all(getattr(grid, name).size == 0 for name in _FIELDS)

    @pytest.mark.parametrize("t", [[0.5, math.nan], [math.inf], [-1.0]])
    def test_rejects_bad_times(self, t):
        with pytest.raises(ValueError):
            states(SystemParams(), _dist(0.1), _dist(0.1), np.array(t))
        with pytest.raises(ValueError):
            density_matrix(SystemParams(), _dist(0.1), _dist(0.1), t[-1])

    def test_rejects_a_two_dimensional_grid(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            states(SystemParams(), _dist(0.1), _dist(0.1), np.zeros((2, 2)))

    def test_trace_gate_names_the_first_failing_row(self):
        coarse = ThermalDistribution(5.0, 3, 0.5)
        with pytest.raises(TruncationError, match="trace is"):
            states(SystemParams(), coarse, coarse, np.array([0.0, 1.0, 2.0]))


def _wide_case():
    # unequal cavities, detuned, n_max = 289 and 25: many 7-wide sector slices
    return SystemParams(p=2, delta=0.8), _dist(10.0), _dist(0.5)


def _fields(grid):
    return [getattr(grid, name) for name in _FIELDS]


def _set_cpus(monkeypatch, cpus):
    # the kernel sizes its worker pool from the CPU affinity set
    monkeypatch.setattr(dynamics.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


class _WorkerFailure(Exception):
    pass


class TestWorkers:
    @pytest.mark.parametrize("cpus", [1, 2, 3, 64])
    def test_any_worker_count_gives_the_same_bits(self, monkeypatch, tmp_path, cpus):
        params, a, b = SystemParams(p=2, delta=0.7), _dist(0.3), _dist(1.5)
        grid = np.linspace(0.0, 12.0, 2001)
        reference = states(params, a, b, grid)
        flags = ["--kbar", "5", "--lbar", "0.5", "--delta", "1", "--p", "2",
                 "--gt-max", "20", "--steps", "2000", "--no-timestamp"]
        outputs = {}
        for fmt in ("csv", "json"):
            outputs[fmt] = tmp_path / f"one.{fmt}"
            assert main(["timeseries", *flags, "--format", fmt, "--output", str(outputs[fmt])]) == 0
        # one thread per _BLOCK_ELEMENTS factors of the grid, at most one per CPU
        blocks = -(-grid.size * (b.n_max + 2) // dynamics._BLOCK_ELEMENTS)
        workers = set()
        factors = dynamics._factors

        def recording(*args):
            workers.add(threading.current_thread())
            factors(*args)

        _set_cpus(monkeypatch, cpus)
        monkeypatch.setattr(dynamics, "_factors", recording)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the workers as finely as possible
        try:
            spread = states(params, a, b, grid)
            assert len(workers) == min(cpus, blocks)
            for fmt, path in outputs.items():
                again = tmp_path / f"spread.{fmt}"
                assert main(["timeseries", *flags, "--format", fmt, "--output", str(again)]) == 0
                assert again.read_bytes() == path.read_bytes()
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(_fields(spread), _fields(reference)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("in_caller", [False, True])
    def test_a_worker_exception_reaches_the_caller(self, monkeypatch, in_caller):
        params, a, b = SystemParams(delta=0.7), _dist(0.3), _dist(1.5)
        raised, workers, lock = [], set(), threading.Lock()
        factors = dynamics._factors

        def failing(*args):
            thread = threading.current_thread()
            with lock:
                workers.add(thread)
                fail = (thread is threading.main_thread()) == in_caller and not raised
                if fail:
                    raised.append(_WorkerFailure("block failed"))
            if fail:
                raise raised[0]
            factors(*args)

        _set_cpus(monkeypatch, 3)
        monkeypatch.setattr(dynamics, "_factors", failing)
        with pytest.raises(_WorkerFailure) as excinfo:
            states(params, a, b, np.linspace(0.0, 12.0, 2001))
        assert excinfo.value is raised[0]
        assert len(workers) == 3
        assert not any(thread.is_alive() for thread in workers - {threading.main_thread()})


class TestSectorBlocks:
    @pytest.mark.parametrize("width", [1, 2, 7])
    def test_sector_blocks_match_one_block(self, monkeypatch, width):
        params, a, b = _wide_case()
        grid = np.linspace(0.0, 12.0, 31)
        whole = states(params, a, b, grid)
        monkeypatch.setattr(dynamics, "_SECTOR_BLOCK", width)
        sliced = states(params, a, b, grid)
        for got, want in zip(_fields(sliced), _fields(whole)):
            assert np.max(np.abs(got - want)) <= 1e-14

    def test_a_time_is_bit_identical_in_any_grid_block_and_worker(self, monkeypatch):
        params, a, b = _wide_case()
        monkeypatch.setattr(dynamics, "_SECTOR_BLOCK", 7)
        grid = np.linspace(0.0, 12.0, 40)
        reference = states(params, a, b, grid)
        count = a.n_max + 2
        for budget, cpus in ((1, 1), (7 * count, 2), (dynamics._BLOCK_ELEMENTS, 3), (1, 64)):
            monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", budget)
            _set_cpus(monkeypatch, cpus)
            for got, want in zip(_fields(states(params, a, b, grid)), _fields(reference)):
                assert np.array_equal(got, want)
            for i in (0, 1, 20, 39):
                alone = states(params, a, b, grid[i : i + 1])
                for got, want in zip(_fields(alone), _fields(reference)):
                    assert got[0] == want[i]

    @pytest.mark.parametrize("width", [1, 7])
    @pytest.mark.parametrize("gt", [0.7, 2.9])
    def test_coherence_pairs_sectors_across_a_block_boundary(self, monkeypatch, width, gt):
        # with width 1 every pair (n, n + 1) straddles two slices
        params, a, b = SystemParams(delta=0.8), _dist(2.0), _dist(0.3)
        monkeypatch.setattr(dynamics, "_SECTOR_BLOCK", width)
        assert a.n_max > 8 * width
        rho = density_matrix(params, a, b, gt)
        x1, x2, x3, x5, x6 = _reference_elements(params, a, b, gt)
        assert abs(rho.x3 - x3) < 1e-12 and abs(rho.x3.imag) > 1e-3
        assert max(abs(rho.x1 - x1), abs(rho.x2 - x2), abs(rho.x5 - x5), abs(rho.x6 - x6)) < 1e-12

    @pytest.mark.parametrize("times", [1, 8])
    def test_memory_is_bounded_at_a_large_cutoff(self, monkeypatch, times):
        # one time at kbar 1e4 (N = 276 324) used to peak at 33.6 MB, eight at 42.4 MB
        dist = _dist(1e4)
        params, grid = SystemParams(delta=1.0), np.linspace(0.3, 7.0, times)
        peaks = {}
        for cpus in (1, 2, 64):
            _set_cpus(monkeypatch, cpus)
            tracemalloc.start()
            try:
                states(params, dist, dist, grid)
                peaks[cpus] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert max(peaks.values()) <= 10_000_000
        # the workspaces are small next to the O(N) probability vector
        assert max(peaks.values()) - peaks[1] <= 1 << 20


class TestBands:
    @pytest.mark.parametrize("means", [(10.0, 0.5), (2.0, 0.3)], ids=["n289-25", "n68-18"])
    @pytest.mark.parametrize("width", [7, 1 << 12])
    def test_a_time_is_bit_identical_in_any_grid_band_block_and_worker(
        self, monkeypatch, means, width
    ):
        params, a, b = SystemParams(p=2, delta=0.8), _dist(means[0]), _dist(means[1])
        monkeypatch.setattr(dynamics, "_SECTOR_BLOCK", width)
        grid = np.linspace(0.0, 12.0, 40)
        alone = [_fields(states(params, a, b, grid[i : i + 1])) for i in range(grid.size)]
        count = a.n_max + 2
        for band, budget in ((1, 1), (3, 50), (7, 7 * count), (16, dynamics._BLOCK_ELEMENTS)):
            monkeypatch.setattr(dynamics, "_BAND_ROWS", band)
            monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", budget)
            for cpus in (1, 2, 3, 64):
                _set_cpus(monkeypatch, cpus)
                spread = _fields(states(params, a, b, grid))
                for i, fields in enumerate(alone):
                    for got, want in zip(spread, fields):
                        assert got[i] == want[0]

    @pytest.mark.parametrize("means", [(10.0, 0.5), (2.0, 0.3)], ids=["n289-25", "n68-18"])
    def test_a_cutoff_split_matches_the_double_sum(self, monkeypatch, means):
        # with 7-wide slices the narrow cutoff (26 or 19 photon numbers) splits
        # one slice in two; bands of 3 rows in blocks of at most 50 factors
        params, a, b = SystemParams(p=2, delta=0.8), _dist(means[0]), _dist(means[1])
        monkeypatch.setattr(dynamics, "_SECTOR_BLOCK", 7)
        monkeypatch.setattr(dynamics, "_BAND_ROWS", 3)
        monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", 50)
        _set_cpus(monkeypatch, 2)
        assert (b.n_max + 1) % 7 and (a.n_max + 1) % 7
        grid = np.array([0.9, 2.3, 5.1, 7.7])
        got = states(params, a, b, grid)
        for i, gt in enumerate(grid):
            x1, x2, x3, x5, x6 = _reference_elements(params, a, b, gt)
            assert abs(got.x3[i] - x3) < 1e-12
            for field, want in zip((got.x1, got.x2, got.x5, got.x6), (x1, x2, x5, x6)):
                assert abs(field[i] - want) < 1e-12

    def test_the_narrow_cavity_sums_once_per_band(self, monkeypatch):
        # hot_bath: cutoffs 1395 and 25.  The slice below the narrow cutoff is
        # one tall block per band; only the wide cavity runs in 23-row blocks
        params, a, b = SystemParams(delta=1.0), _dist(50.0), _dist(0.5)
        grid = np.linspace(0.0, 25.0, 20001)
        _set_cpus(monkeypatch, 2)
        sizes, einsum = [], np.einsum

        def counting(*operands, **kwargs):
            sizes.append(operands[-1].size)  # the weights P_n of one cavity's slice
            return einsum(*operands, **kwargs)

        monkeypatch.setattr(dynamics.np, "einsum", counting)
        states(params, a, b, grid)
        bands = 2 * -(-grid.size // (2 * dynamics._BAND_ROWS))
        narrow, wide = b.n_max + 1, a.n_max - b.n_max
        assert set(sizes) == {narrow, wide}
        assert sizes.count(narrow) == 6 * 2 * bands  # both cavities, six sums
        assert sizes.count(wide) >= 6 * 40 * bands  # over 40 row blocks per band

    def test_memory_grows_with_the_grid_only_through_its_outputs(self, monkeypatch):
        # The band buffers have a fixed size.  What grows with the grid is the
        # output and the checks on it (a stacked copy of the populations and
        # the trace temporaries): 2.4 times the output, 2.75 on one thread.
        # A whole-grid buffer of the 2 x 6 sums per time made it 5.9.
        params, a, b = SystemParams(delta=1.0), _dist(50.0), _dist(0.5)
        _set_cpus(monkeypatch, 2)
        peaks, held = {}, {}
        for size in (20001, 80001):
            grid = np.linspace(0.0, 25.0, size)
            tracemalloc.start()
            try:
                held[size] = sum(field.nbytes for field in states(params, a, b, grid))
                peaks[size] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[80001] - peaks[20001] <= 3 * (held[80001] - held[20001])


def _cos_sin_factors(ws, g4, half_t, n, delta):
    """The scalar cos + sin factors the half-angle tangent replaced, kept as the
    reference: the same workspace (swap, s, w, c) at each row's t/2."""
    swap, s, w, c = ws
    np.multiply(g4[:, None], n, out=swap)
    detuned = delta * delta > 0.0
    if detuned:
        np.add(swap, delta * delta, out=s)
        np.divide(swap, s, out=swap)
        np.sqrt(s, out=s)
        np.divide(delta, s, out=w)
    else:
        np.sqrt(swap, out=s)
        swap.fill(1.0)
    np.multiply(s, half_t[:, None], out=s)
    np.cos(s, out=c)
    np.sin(s, out=s)
    if detuned:
        np.multiply(w, s, out=w)
    np.multiply(s, s, out=s)
    np.multiply(swap, s, out=swap)


def _sin_cos_of(x):
    """(c, s) as ``_factors`` forms them for the angles x = l*t/2: a resonant
    sector with 4*g'^2*n = 1 has l = 1, so its t/4 is x/2."""
    x = np.asarray(x, dtype=float)
    ws = np.empty((4, x.size, 1))
    dynamics._factors(ws, np.ones(x.size), 0.5 * x, np.ones(1), 0.0)
    return ws[3, :, 0], ws[1, :, 0]


_ANGLES = np.concatenate([
    [0.0, 5e-324, 1e-300, 1e-8, 0.5],
    np.arange(1, 41, 2) * (0.5 * math.pi),  # odd multiples of pi/2
    np.arange(1, 41) * math.pi,
    [2.0**k * math.pi for k in range(10, 50, 3)],
    np.random.default_rng(9).uniform(0.0, 1e15, 200),
    np.random.default_rng(10).uniform(0.0, 50.0, 200),
])


class TestHalfAngleFactors:
    """One tangent u = tan(l*t/4) gives s = u*d and c = d - 1, d = 2/(1 + u^2)."""

    def test_sin_and_cos_are_within_4e_16_of_the_exact_values(self):
        mpmath = pytest.importorskip("mpmath")
        c, s = _sin_cos_of(_ANGLES)
        with mpmath.workdps(50):
            for x, got_c, got_s in zip(_ANGLES.tolist(), c.tolist(), s.tolist()):
                exact = mpmath.mpf(x)  # the double itself, not the multiple of pi it rounds
                assert abs(got_s - mpmath.sin(exact)) <= 4e-16, x
                assert abs(got_c - mpmath.cos(exact)) <= 4e-16, x

    def test_sin_keeps_its_relative_accuracy_near_zero(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        x = np.concatenate([[1e-300, 2.0**-1021, 1e-3 * (1 - 2.0**-53)],
                            10.0 ** rng.uniform(-300.0, -3.0, 300),
                            rng.uniform(0.0, 1e-3, 300)])
        _, s = _sin_cos_of(x)
        with mpmath.workdps(50):
            for value, got in zip(x.tolist(), s.tolist()):
                exact = float(mpmath.sin(mpmath.mpf(value)))
                assert abs(got - exact) <= 4 * np.spacing(exact), value

    @pytest.mark.parametrize(
        "params, kbar, lbar, grid",
        [
            (SystemParams(delta=1.0), 50.0, 0.5, np.linspace(0.0, 40.0, 401)),
            (SystemParams(), 5.0, 5.0, np.linspace(0.0, 40.0, 401)),
            (SystemParams(delta=0.0, p=3), 0.5, 2.0, np.linspace(0.0, 40.0, 401)),
            (SystemParams(p=2, motion_enabled=False), 0.5, 0.5, np.linspace(0.0, 40.0, 401)),
            (SystemParams(delta=5.0, p=4), 0.5, 2.0, np.linspace(0.0, 40.0, 401)),
            (SystemParams(g=1.7, delta=-2.0), 0.5, 0.5, np.linspace(0.0, 1e6, 401) / 1.7),
            (SystemParams(delta=1.0), 1e4, 1e4, np.array([3.7])),
        ],
        ids=["hot-bath", "equal-cavities", "resonant", "motion-off", "detuned-p4",
             "negative-delta-long", "kbar-1e4"],
    )
    def test_states_match_the_cos_sin_reference(self, monkeypatch, params, kbar, lbar, grid):
        a, b = _dist(kbar), _dist(lbar)
        got = states(params, a, b, grid)
        monkeypatch.setattr(
            dynamics, "_factors",
            lambda ws, g4, quarter_t, n, delta: _cos_sin_factors(ws, g4, 2.0 * quarter_t, n, delta),
        )
        want = states(params, a, b, grid)
        for name in _FIELDS:
            assert np.max(np.abs(getattr(got, name) - getattr(want, name))) <= 1e-14, name
