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
import os
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
    states,
)
from thermaljc.cli import main
from thermaljc.core import PARAM_LIMIT
from thermaljc.dynamics import effective_coupling
from thermaljc.oracle import oracle_density_matrix

from helpers import x_matrix, x_trace


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


class TestSectorAngles:
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

    @pytest.mark.parametrize("g_eff, mean", [(-0.1, 1), (1.0, -1)])
    def test_rejects_bad_arguments(self, g_eff, mean):
        # neither a negative coupling nor a negative mean photon number (whose
        # cutoff would be a negative sector) reaches the kernel
        with pytest.raises(ValueError):
            dist = ThermalDistribution(mean)
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
        assert x_trace(rho) == pytest.approx(1.0, abs=1e-14)


class TestSectorFactors:
    @pytest.mark.parametrize("delta", [0.0, 1.0, -2.5])
    def test_stay_and_swap_partition_unity(self, delta):
        # with stay + swap = 1 in every sector the trace is the product of the
        # retained thermal weights of the two cavities
        dist = _dist(0.5)
        rho = density_matrix(SystemParams(delta=delta), dist, dist, 1.3)
        kept = float(np.sum(dist.probabilities()))
        assert x_trace(rho) == pytest.approx(kept * kept, abs=1e-14)

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
    otherwise).
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
    def test_resonance_matches_the_double_sum(self, p, mean, gt):
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
        coarse = ThermalDistribution(5.0, 0.5)
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


_FIELDS = ("x1", "x2", "x3", "x5", "x6")
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
        for name in _FIELDS:
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
        unit_params = SystemParams(delta=delta, p=p, motion_enabled=motion)
        scaled_params = SystemParams(g=g, delta=delta * g, p=p, motion_enabled=motion)
        unit = states(unit_params, dist, dist, gt)
        scaled = states(scaled_params, dist, dist, gt / g)
        assert np.allclose(effective_coupling(scaled_params, gt / g),
                           g * effective_coupling(unit_params, gt), rtol=1e-12, atol=1e-15)
        for name in _FIELDS:
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
            for got, want in zip(_fields(params, grid, blocked), _fields(params, grid, reference)):
                assert np.array_equal(got, want)
            for i in picks:
                alone = states(params, a, b, grid[i : i + 1])
                for got, want in zip(_fields(params, grid[i : i + 1], alone),
                                     _fields(params, grid, reference)):
                    assert got[0] == want[i]

    def test_density_matrix_is_the_one_point_view(self):
        params = SystemParams(delta=-0.4, p=3)
        a, b = _dist(0.2), _dist(0.9)
        grid = states(params, a, b, np.array([0.5, 2.25]))
        view = density_matrix(params, a, b, 2.25)
        for name in _FIELDS:
            assert getattr(view, name) == getattr(grid, name)[1]

    @pytest.mark.parametrize("view", [density_matrix, oracle_density_matrix])
    def test_one_point_views_hold_scalars(self, view):
        rho = view(SystemParams(delta=-0.4, p=3), _dist(0.2), _dist(0.9), 2.25)
        for name in _FIELDS:
            value = getattr(rho, name)
            assert np.ndim(value) == 0
            assert type(value) is (complex if name == "x3" else float)
            complex(value)
            if name != "x3":
                float(value)

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
        coarse = ThermalDistribution(5.0, 0.5)
        with pytest.raises(TruncationError, match="trace is"):
            states(SystemParams(), coarse, coarse, np.array([0.0, 1.0, 2.0]))


def _wide_case():
    # unequal cavities, detuned, n_max = 289 and 25: many 7-wide sector slices
    return SystemParams(p=2, delta=0.8), _dist(10.0), _dist(0.5)


def _fields(params, t, grid):
    """g'(t) and the X elements of ``grid``: the state columns a series writes."""
    return [effective_coupling(params, t), *grid]


def _set_cpus(monkeypatch, cpus):
    # the kernel sizes its worker pool from the CPU affinity set; pinning is
    # made a no-op, so that workers placed on these CPUs leave the real mask
    monkeypatch.setattr(dynamics.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(dynamics.os, "sched_setaffinity", lambda pid, mask: None,
                        raising=False)


# the CPUs this process may run on, where a thread can be pinned
_CPUS = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()


class _WorkerFailure(Exception):
    pass


def _grid_of_blocks(dist, blocks):
    """Times from 0 to 12 that fill ``blocks`` whole factor blocks of ``dist``'s
    sectors, and part of one more."""
    return np.linspace(0.0, 12.0, blocks * dynamics._BLOCK_ELEMENTS // (dist.n_max + 2) + 1)


def _whole_blocks(grid, dist):
    return grid.size * (dist.n_max + 2) // dynamics._BLOCK_ELEMENTS


class TestWorkers:
    @pytest.mark.parametrize("cpus", [1, 2, 3, 64])
    def test_any_worker_count_gives_the_same_bits(self, monkeypatch, tmp_path, cpus):
        params, a, b = SystemParams(p=2, delta=0.7), _dist(0.3), _dist(1.5)
        grid = _grid_of_blocks(b, 3 * (dynamics._MAX_WORKERS + 2))
        reference = states(params, a, b, grid)
        # 8001 times x 153 sectors: 18 whole blocks, enough for every worker count
        flags = ["--kbar", "5", "--lbar", "0.5", "--delta", "1", "--p", "2",
                 "--gt-max", "20", "--steps", "8000", "--no-timestamp"]
        outputs = {}
        for fmt in ("csv", "json"):
            outputs[fmt] = tmp_path / f"one.{fmt}"
            assert main(["timeseries", *flags, "--format", fmt, "--output", str(outputs[fmt])]) == 0
        # one thread per three whole blocks of _BLOCK_ELEMENTS factors of the
        # grid, at most one per CPU and at most _MAX_WORKERS
        blocks = _whole_blocks(grid, b)
        assert blocks == 3 * (dynamics._MAX_WORKERS + 2)
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
            assert len(workers) == min(cpus, blocks // 3, dynamics._MAX_WORKERS)
            for fmt, path in outputs.items():
                again = tmp_path / f"spread.{fmt}"
                assert main(["timeseries", *flags, "--format", fmt, "--output", str(again)]) == 0
                assert again.read_bytes() == path.read_bytes()
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(_fields(params, grid, spread), _fields(params, grid, reference)):
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
            states(params, a, b, _grid_of_blocks(b, 9))
        assert excinfo.value is raised[0]
        assert len(workers) == 3
        assert not any(thread.is_alive() for thread in workers - {threading.main_thread()})

    def test_no_worker_enters_a_public_function(self, monkeypatch):
        # the bands form g'(t) with the private formula: the times are checked
        # once, and a worker thread opens no span of a tracer that wraps the
        # public functions
        params, a, b = SystemParams(p=2, delta=0.7), _dist(0.3), _dist(1.5)
        grid = _grid_of_blocks(b, 6)
        _set_cpus(monkeypatch, 2)
        reference = states(params, a, b, grid)
        calls = []
        coupling = dynamics.effective_coupling

        def counted(*args):
            calls.append(threading.current_thread())
            return coupling(*args)

        workers = set()
        factors = dynamics._factors

        def recording(*args):
            workers.add(threading.current_thread())
            factors(*args)

        monkeypatch.setattr(dynamics, "effective_coupling", counted)
        monkeypatch.setattr(dynamics, "_factors", recording)
        spread = states(params, a, b, grid)
        assert len(workers) == 2
        assert calls == []
        for got, want in zip(spread, reference):
            assert np.array_equal(got, want)

    def test_a_figure_grid_runs_on_the_caller_alone(self, monkeypatch):
        # fig. 2 at kbar 5 and the scan's kbar-5 configurations: 2001 times x 153
        # sectors, 4.7 blocks.  A second worker there saved no time and held a
        # second workspace: 4.60 MB traced on 2 CPUs, 4.4-8.8 MB on 4 or more,
        # when a workspace held four arrays
        params, dist = SystemParams(p=1), _dist(5.0)
        grid = np.linspace(0.0, 25.0, 2001)
        assert _whole_blocks(grid, dist) == 4
        workers, peaks = set(), {}
        factors = dynamics._factors

        def recording(*args):
            workers.add(threading.current_thread())
            factors(*args)

        monkeypatch.setattr(dynamics, "_factors", recording)
        for cpus in (1, 2, 4, 64):
            _set_cpus(monkeypatch, cpus)
            tracemalloc.start()
            try:
                states(params, dist, dist, grid)
                peaks[cpus] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert workers == {threading.main_thread()}
        # one workspace of two arrays, 1.29 MB in all (1.81 MB with three,
        # 2.38 MB with four); a second worker's would add 1 MiB
        assert max(peaks.values()) - peaks[1] <= 8 * dynamics._BLOCK_ELEMENTS
        assert max(peaks.values()) < 1_450_000

    def test_memory_does_not_grow_with_the_cpu_count(self, monkeypatch):
        # hot_bath: each worker holds a 1 MiB workspace, so one worker per CPU
        # would grow with the machine (71.2 MB on 64 CPUs with 2 MiB ones).
        # What varies between runs is how the workers' transient numpy buffers
        # overlap, up to 142 KiB over 90 runs at 4 workers; 512 KiB separates
        # that from growth.
        params, a, b = SystemParams(delta=1.0), _dist(50.0), _dist(0.5)
        grid = np.linspace(0.0, 25.0, 20001)
        peaks = {}
        for cpus in (1, 4, 16, 64):
            _set_cpus(monkeypatch, cpus)
            tracemalloc.start()
            try:
                states(params, a, b, grid)
                peaks[cpus] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # one worker: 2.49 MB, 3.00 MB with a three-array workspace
        assert peaks.pop(1) < 2_700_000
        assert max(peaks.values()) - min(peaks.values()) <= 8 * dynamics._BLOCK_ELEMENTS
        # 6.6-6.75 MB at 4 workers; 8.6-8.75 MB with three-array workspaces
        # and 10.5-10.7 MB with four-array ones
        assert max(peaks.values()) <= 7_500_000

    @pytest.mark.skipif(len(_CPUS) < 2, reason="fewer than two CPUs to run on")
    @pytest.mark.parametrize("failing", [None, "caller", "worker"])
    def test_two_workers_on_two_cpus_each_run_on_their_own(self, failing):
        # the process is held to two real CPUs, and a grid of six blocks has
        # two workers; the caller has its mask back, also when a worker raises
        before = os.sched_getaffinity(0)
        pair = set(sorted(before)[:2])
        params, a, b = SystemParams(p=2, delta=0.7), _dist(0.3), _dist(1.5)
        grid = _grid_of_blocks(b, 6)
        masks, lock = {}, threading.Lock()
        factors = dynamics._factors

        def recording(*args):
            thread = threading.current_thread()
            with lock:
                masks.setdefault(thread, os.sched_getaffinity(0))
            if failing is not None and (failing == "caller") == (thread is threading.main_thread()):
                raise _WorkerFailure("block failed")
            factors(*args)

        os.sched_setaffinity(0, {min(pair)})
        try:
            alone = states(params, a, b, grid)
            os.sched_setaffinity(0, pair)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(dynamics, "_factors", recording)
                if failing is None:
                    spread = states(params, a, b, grid)
                else:
                    with pytest.raises(_WorkerFailure):
                        states(params, a, b, grid)
            after = os.sched_getaffinity(0)
        finally:
            os.sched_setaffinity(0, before)
        assert after == pair
        assert masks[threading.main_thread()] == {min(pair)}
        assert sorted(map(sorted, masks.values())) == [[cpu] for cpu in sorted(pair)]
        if failing is None:
            assert all(np.array_equal(got, want) for got, want in zip(spread, alone))

    @pytest.mark.skipif(not _CPUS, reason="no CPU affinity")
    def test_pinning_to_absent_cpus_raises_nothing(self, monkeypatch):
        # two workers on two CPUs that no machine has: both run where they
        # were, and the caller's mask, which reads as those two, stays as it is
        real = os.sched_getaffinity
        before = real(0)
        params, a, b = SystemParams(p=2, delta=0.7), _dist(0.3), _dist(1.5)
        grid = _grid_of_blocks(b, 6)
        _set_cpus(monkeypatch, 1)
        alone = states(params, a, b, grid)
        monkeypatch.undo()
        masks = {}
        factors = dynamics._factors

        def recording(*args):
            masks.setdefault(threading.current_thread(), real(0))
            factors(*args)

        monkeypatch.setattr(dynamics.os, "sched_getaffinity", lambda pid: {1 << 16, (1 << 16) + 1})
        monkeypatch.setattr(dynamics, "_factors", recording)
        spread = states(params, a, b, grid)
        assert list(masks.values()) == [before, before]
        assert real(0) == before
        for got, want in zip(spread, alone):
            assert np.array_equal(got, want)

    @pytest.mark.skipif(not _CPUS, reason="no CPU affinity")
    def test_fewer_workers_than_cpus_stay_unpinned(self, monkeypatch):
        # pinned to the lowest CPUs of the set, the kernels of concurrent
        # processes would crowd there: two workers on a set of more CPUs keep
        # the process's mask.  The set is the real one and three absent CPUs.
        before = os.sched_getaffinity(0)
        real = os.sched_getaffinity
        monkeypatch.setattr(dynamics.os, "sched_getaffinity",
                            lambda pid: real(pid) | set(range(1 << 16, (1 << 16) + 3)))
        params, a, b = SystemParams(p=2, delta=0.7), _dist(0.3), _dist(1.5)
        masks = {}
        factors = dynamics._factors

        def recording(*args):
            masks.setdefault(threading.current_thread(), real(0))
            factors(*args)

        monkeypatch.setattr(dynamics, "_factors", recording)
        states(params, a, b, _grid_of_blocks(b, 6))
        assert list(masks.values()) == [before, before]
        assert real(0) == before


class TestSectorBlocks:
    @pytest.mark.parametrize("width", [1, 2, 7])
    def test_sector_blocks_match_one_block(self, monkeypatch, width):
        params, a, b = _wide_case()
        grid = np.linspace(0.0, 12.0, 31)
        whole = states(params, a, b, grid)
        monkeypatch.setattr(dynamics, "_SECTOR_BLOCK", width)
        sliced = states(params, a, b, grid)
        for got, want in zip(_fields(params, grid, sliced), _fields(params, grid, whole)):
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
            blocked = _fields(params, grid, states(params, a, b, grid))
            for got, want in zip(blocked, _fields(params, grid, reference)):
                assert np.array_equal(got, want)
            for i in (0, 1, 20, 39):
                t = grid[i : i + 1]
                alone = _fields(params, t, states(params, a, b, t))
                for got, want in zip(alone, _fields(params, grid, reference)):
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
        alone = [_fields(params, grid[i : i + 1], states(params, a, b, grid[i : i + 1]))
                 for i in range(grid.size)]
        count = a.n_max + 2
        for band, budget in ((1, 1), (3, 50), (7, 7 * count), (16, dynamics._BLOCK_ELEMENTS)):
            monkeypatch.setattr(dynamics, "_BAND_ROWS", band)
            monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", budget)
            for cpus in (1, 2, 3, 64):
                _set_cpus(monkeypatch, cpus)
                spread = _fields(params, grid, states(params, a, b, grid))
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
        # hot_bath: cutoffs 1395 and 25.  Each cavity sums over its own slice
        # from sector 0: the narrow one in one tall block per band, the wide
        # one in short blocks
        params, a, b = SystemParams(delta=1.0), _dist(50.0), _dist(0.5)
        grid = np.linspace(0.0, 25.0, 20001)
        _set_cpus(monkeypatch, 2)
        sizes, einsum = [], np.einsum

        def counting(*operands, **kwargs):
            if operands[0].endswith("->i"):  # a thermal sum, not a factor product
                sizes.append(operands[-1].size)  # the weights P_n of one cavity's slice
            return einsum(*operands, **kwargs)

        monkeypatch.setattr(dynamics.np, "einsum", counting)
        states(params, a, b, grid)
        bands = 2 * -(-grid.size // (2 * dynamics._BAND_ROWS))
        narrow, wide = b.n_max + 1, a.n_max + 1
        # detuned, the ground transfer sum of a slice from sector 0 leaves it out
        assert set(sizes) == {narrow - 1, narrow, wide - 1, wide}
        assert sizes.count(narrow - 1) == bands
        assert sizes.count(narrow) == 5 * bands
        # the wide slice holds sectors 0..1396, so a block holds this many rows
        rows = dynamics._BLOCK_ELEMENTS // (wide + 1)
        edges = [k * grid.size // bands for k in range(bands + 1)]
        row_blocks = sum(-(-(hi - lo) // rows) for lo, hi in zip(edges, edges[1:]))
        assert row_blocks > 10 * bands
        assert sizes.count(wide - 1) == row_blocks
        assert sizes.count(wide) == 5 * row_blocks

    @pytest.mark.parametrize("delta", [0.0, 0.8])
    def test_a_cavitys_channel_does_not_depend_on_its_partner(self, monkeypatch, delta):
        # with 7-wide slices, each cutoff (19, 69 or 290 photon numbers) ends
        # inside a slice; the middle cavity's channel beside an equal, a
        # narrower and a wider partner, as cavity A and as cavity B
        params, middle = SystemParams(p=2, delta=delta), _dist(2.0)
        monkeypatch.setattr(dynamics, "_SECTOR_BLOCK", 7)
        _set_cpus(monkeypatch, 1)
        grid = np.linspace(0.0, 12.0, 40)
        channel, written = dynamics._channel, []

        def recording(out, ws, g4, quarter_t, delta, mass, slices):
            channel(out, ws, g4, quarter_t, delta, mass, slices)
            written.append((slices[-1][0][-1], hash(out.tobytes())))

        monkeypatch.setattr(dynamics, "_channel", recording)
        for partner in (middle, _dist(0.3), _dist(10.0)):
            assert (partner.n_max + 1) % 7
            states(params, middle, partner, grid)
            states(params, partner, middle, grid)
        channels = {out for top, out in written if top == middle.n_max + 1}
        assert len(written) == 10 and len(channels) == 1

    def test_a_band_assembles_once_from_one_buffer_per_distinct_cavity(self, monkeypatch):
        # bands of 7 rows hold equal and unequal pairs side by side; a stack of
        # equal cavities alone assembles each band from one channel buffer
        t = np.linspace(0.0, 12.0, 10)
        equal = [(SystemParams(delta=delta), _dist(mean), _dist(mean))
                 for delta in (0.0, 0.8) for mean in (0.3, 2.0)]
        mixed = [*equal[:2], (SystemParams(delta=0.8), _dist(0.3), _dist(2.0)), *equal[2:]]
        monkeypatch.setattr(dynamics, "_BAND_ROWS", 7)
        monkeypatch.setattr(dynamics, "_BLOCK_ELEMENTS", 7)
        _set_cpus(monkeypatch, 1)
        assemble, calls = dynamics._assemble, []

        def recording(state, rows, a, b):
            calls.append((rows.stop - rows.start, np.shares_memory(a, b)))
            assemble(state, rows, a, b)

        monkeypatch.setattr(dynamics, "_assemble", recording)
        for configs, shared in ((equal, True), (mixed, False)):
            calls.clear()
            stacked = dynamics.stacked_states(configs, t)
            total = len(configs) * t.size
            assert len(calls) == -(-total // 7) and sum(n for n, _ in calls) == total
            assert {same for _, same in calls} == {shared}
            for j, config in enumerate(configs):
                rows = slice(j * t.size, (j + 1) * t.size)
                for got, want in zip(stacked, states(*config, t)):
                    assert got[rows].tobytes() == want.tobytes()

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
    reference: the same workspace (v, c) at each row's t/2."""
    v, c = ws
    np.multiply(g4[:, None], n, out=v)
    detuned = delta * delta > 0.0
    if detuned:
        np.add(v, delta * delta, out=v)
    np.sqrt(v, out=v)
    np.multiply(v, half_t[:, None], out=c)
    if detuned:
        np.multiply(np.sin(c) / v, np.sqrt(g4 + delta * delta)[:, None], out=v)
    else:
        np.square(np.sin(c), out=v)
    np.cos(c, out=c)


def _sin_cos_of(x):
    """(c, s) as ``_factors`` forms them for the angles x = l*t/2: a detuned
    sector 1 with 4*g'^2 = 3/4 and delta = 1/2 has l = l1 = 1, so its t/4 is
    x/2, its l1/l is 1 and its v = ((l1/l)*u)*d is s = u*d."""
    x = np.asarray(x, dtype=float)
    ws = np.empty((2, x.size, 1))
    dynamics._factors(ws, np.full(x.size, 0.75), 0.5 * x, np.ones(1), 0.5)
    return ws[1, :, 0], ws[0, :, 0]


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

    @pytest.mark.parametrize("delta", [1e-150, 1e-160, PARAM_LIMIT, -PARAM_LIMIT],
                             ids=["1e-150", "1e-160", "limit", "-limit"])
    @pytest.mark.parametrize("kbar, lbar", [(0.5, 2.0), (0.1, 0.1)])
    def test_the_ends_of_the_detuning_range_match_the_oracle(self, delta, kbar, lbar):
        # delta^2 is 1e-300, subnormal or 1e300.  Motion is off: with it, the
        # oracle's populations cancel to 0 at these times.  The relative
        # errors are a few ulps: 6.1e-16 at most, and 4.5e-16 with the
        # four-array factors (swap, s, w, c) that v = l1*(s/l) replaced.
        params, a, b = SystemParams(delta=delta, motion_enabled=False), _dist(kbar), _dist(lbar)
        grid = np.array([1e-300, 1e-12, 1e-8])
        got = states(params, a, b, grid)
        for i, t in enumerate(grid):
            want = oracle_density_matrix(params, a, b, t)
            for name in ("x1", "x6"):
                value, exact = getattr(got, name)[i], getattr(want, name)
                assert abs(value - exact) <= 1e-15 * abs(exact), (name, t)

    @pytest.mark.parametrize("delta", [1e-160, -1e-160])
    @pytest.mark.parametrize("kbar", [0.0, 0.1])
    def test_sector_zero_keeps_its_frequency_where_delta_squared_is_subnormal(
        self, delta, kbar
    ):
        # at phases delta*t of order 1, sqrt(delta^2) as sector 0's frequency
        # (5.6e-6 off) made the coherence outgrow the populations and states
        # raise; |delta| meets the oracle to 2.2e-16 here
        params, dist = SystemParams(delta=delta, motion_enabled=False), _dist(kbar)
        grid = np.array([1e159, 3e159])
        got = states(params, dist, dist, grid)
        for i, t in enumerate(grid):
            want = oracle_density_matrix(params, dist, dist, t)
            for name, exact in want._asdict().items():
                assert abs(getattr(got, name)[i] - exact) <= 4.5e-16, (name, t)

    @pytest.mark.parametrize("delta", [1e-160, -1e-160, 1e-3])
    def test_sector_zero_needs_no_l1_over_delta(self, delta):
        # at g' = 1e150 and delta = 1e-160, sector 0's l1/|delta| is 2e310
        # and overflows (a RuntimeWarning, an error here); its v is formed
        # as ((u*d)/|delta|)*l1 = l1*sin(|delta|*t/2)/|delta|, about l1*t/2
        # (at times whose |delta|*t/4 is normal)
        t = np.array([1e-140, 1e-130, 1e-120])
        g4 = np.full(t.size, 4e300)
        ws = np.empty((2, t.size, 3))
        dynamics._factors(ws, g4, 0.25 * t, np.arange(3.0), delta)
        v, c = ws
        assert np.all(np.isfinite(ws))
        assert np.all(np.abs(v[:, 0] / (np.sqrt(g4) * 0.5 * t) - 1.0) <= 4e-16)
        assert np.array_equal(c[:, 0], np.ones(t.size))

    def test_sector_zero_frequency_is_sqrt_delta_squared_where_that_is_normal(self):
        # so |delta| moves no bit of a state whose delta^2 is normal
        delta = np.concatenate([10.0 ** np.random.default_rng(12).uniform(-150, 150, 10**5),
                                [1.5e-154, PARAM_LIMIT]])
        assert np.array_equal(np.sqrt(delta * delta), delta)

    @pytest.mark.parametrize("g", [1e10, PARAM_LIMIT], ids=["1e10", "limit"])
    @pytest.mark.parametrize("delta", [1.0, -1e-150, 1e-160, PARAM_LIMIT],
                             ids=["1", "-1e-150", "1e-160", "limit"])
    @pytest.mark.parametrize("kbar, lbar", [(0.5, 2.0), (0.1, 0.1)])
    def test_a_strong_coupling_keeps_the_transfer_relatively_exact(self, g, delta, kbar, lbar):
        # at gt 1e-10 and g 1e150, t is 1e-160: (s/l)^2, about t^2/4, is
        # subnormal, while the transfer 4*g'^2*n*(s/l)^2 is about 1e-20.  The
        # four-array factors (swap, s, w, c) that v replaced reach 1.07e-15
        # here, and so does v; unscaled, s/l was 7.9e-3 off at g 1e150.
        params, a, b = SystemParams(g=g, delta=delta, motion_enabled=False), _dist(kbar), _dist(lbar)
        grid = np.array([1e-10, 1e-6, 1e-3]) / g
        got = states(params, a, b, grid)
        for i, t in enumerate(grid):
            want = oracle_density_matrix(params, a, b, t)
            for name in ("x1", "x5", "x6"):
                value, exact = getattr(got, name)[i], getattr(want, name)
                assert abs(value - exact) <= 1.5e-15 * abs(exact), (name, t)

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
        for name, got_field, want_field in zip(
            ("g_eff", *_FIELDS), _fields(params, grid, got), _fields(params, grid, want)
        ):
            assert np.max(np.abs(got_field - want_field)) <= 1e-14, name
