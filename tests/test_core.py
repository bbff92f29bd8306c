"""Parameter container, thermal truncation, and the X-state container."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thermaljc import SystemParams, ThermalDistribution, TruncationError, XStates
from thermaljc.core import (
    DEFAULT_EPSILON_TAIL,
    MAX_SECTORS,
    check_x_states,
    truncation_index,
)

from helpers import x_matrix, x_trace


def thermal_probability(dist: ThermalDistribution, n: int) -> float:
    """P_n of ``dist`` one index at a time."""
    if n < 0:
        raise ValueError(f"photon index must be >= 0, got {n}")
    mean = dist.mean_photons
    return (mean / (mean + 1.0)) ** n / (mean + 1.0)


def inner_block_min_eigenvalue(rho: XStates) -> float:
    """Smaller eigenvalue of the central block [[x2, x3], [x4, x5]]."""
    centre = 0.5 * (rho.x2 + rho.x5)
    return centre - math.hypot(0.5 * (rho.x2 - rho.x5), abs(rho.x3))


class TestSystemParams:
    def test_defaults(self):
        params = SystemParams()
        assert params.g == 1.0
        assert params.delta == 0.0
        assert params.p == 1
        assert params.motion_enabled is True

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"g": 0.0},
            {"g": -1.0},
            {"p": 0},
            {"p": -2},
            {"p": 1.5},
            {"p": True},
            {"g": math.nan},
            {"g": math.inf},
            {"delta": math.nan},
            {"delta": -math.inf},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SystemParams(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, reason",
        [
            ({"g": 1e-300}, "coupling strength g must lie in [1e-150, 1e+150], got 1e-300"),
            ({"g": 1e-151}, "coupling strength g must lie in [1e-150, 1e+150], got 1e-151"),
            ({"g": 1e151}, "coupling strength g must lie in [1e-150, 1e+150], got 1e+151"),
            ({"delta": 1e151}, "detuning delta must lie in [-1e+150, 1e+150], got 1e+151"),
            ({"delta": -1e160}, "detuning delta must lie in [-1e+150, 1e+150], got -1e+160"),
        ],
    )
    def test_rejects_g_and_delta_outside_their_range(self, kwargs, reason):
        with pytest.raises(ValueError) as excinfo:
            SystemParams(**kwargs)
        assert str(excinfo.value) == reason

    @pytest.mark.parametrize(
        "kwargs", [{"g": 1e-150}, {"g": 1e150}, {"delta": 1e150}, {"delta": -1e150}]
    )
    def test_accepts_the_ends_of_the_range(self, kwargs):
        params = SystemParams(**kwargs)
        assert getattr(params, next(iter(kwargs))) == next(iter(kwargs.values()))

    def test_times_refuse_an_overflowing_sector_phase(self):
        # with motion off, delta and t are each accepted while |delta|*t is not
        # finite; the closed form formed NaN from it
        params = SystemParams(delta=-1e150, motion_enabled=False)
        with pytest.raises(ValueError) as excinfo:
            params.times(np.array([0.0, 1e300]))
        assert str(excinfo.value) == (
            "gt_max/g = 1e+300/1 = 1e+300 overflows the largest sector phase "
            f"(|delta| + 2*g*sqrt({MAX_SECTORS}))*t"
        )
        assert params.times(np.array([1e158]))[0] == 1e158  # a phase of about 1e308

    def test_p_is_bounded_and_times_refuse_an_overflowing_mode_phase(self):
        # a p past the float range ended in an OverflowError from the coupling,
        # and a finite p with g and t at their limits in NaN populations
        with pytest.raises(ValueError) as excinfo:
            SystemParams(p=10**400)
        assert str(excinfo.value) == f"mode parameter p must be <= 1e+150, got {10**400}"
        params = SystemParams(g=1e150, p=10**149)
        with pytest.raises(ValueError) as excinfo:
            params.times(np.array([0.0, 1e300]))
        assert str(excinfo.value) == (
            "gt_max/g = 1e+300/1e+150 = 1e+150 overflows the largest mode phase p*g*t"
        )
        assert params.times(np.array([1e158]))[0] == 1e8  # a mode phase of about 1e307
        assert SystemParams(g=1e150, p=10**149, motion_enabled=False).times(
            np.array([1e300]))[0] == 1e150  # p is unused with motion off

    def test_accepts_numpy_integer_p(self):
        assert SystemParams(p=np.int64(3)).p == 3


class TestTruncationIndex:
    # frozen against the direct tail inequality (mean/(mean+1))**(n+1) <= eps
    @pytest.mark.parametrize(
        "mean, expected",
        [(0.0, 0), (0.05, 9), (0.08, 10), (0.1, 11), (0.5, 25), (5.0, 151),
         # mean + 1 rounds to 1 here, which once made the estimate divide by log(0)
         (1e-20, 0), (5e-324, 0)],
    )
    def test_frozen_cutoffs(self, mean, expected):
        assert truncation_index(mean, 1e-12) == expected

    def test_coarser_tolerance_gives_smaller_cutoff(self):
        assert truncation_index(5.0, 1e-2) < truncation_index(5.0, 1e-12)

    @pytest.mark.parametrize(
        "mean, eps",
        [(-0.1, 1e-12), (0.5, 0.0), (0.5, 1.0), (math.nan, 1e-12), (math.inf, 1e-12)],
    )
    def test_rejects_bad_arguments(self, mean, eps):
        with pytest.raises(ValueError):
            truncation_index(mean, eps)

    @pytest.mark.parametrize("mean", [1.6e5, 1e9, 1e17, 1e300])
    def test_refuses_cutoffs_beyond_the_sector_limit(self, mean):
        # 1e17 and above round mean/(mean+1) to 1, which once divided by log(1)
        with pytest.raises(ValueError, match=f"limit of {MAX_SECTORS} sectors"):
            truncation_index(mean, DEFAULT_EPSILON_TAIL)

    @pytest.mark.parametrize(
        "mean, eps, expected",
        [(1.0, math.nextafter(0.0625, 0.0), 4), (0.5, 1.0 / 3.0, 0)],
        ids=["estimate-low", "estimate-high"],
    )
    def test_exact_adjustment_corrects_the_log_estimate(self, mean, eps, expected):
        # the log estimate rounds one sector short, then one too many; the
        # discrete loops land on the exact cutoff either way
        estimate = -math.log(eps) / math.log1p(1.0 / mean)
        assert abs(math.ceil(estimate) - 1 - expected) == 1
        assert truncation_index(mean, eps) == expected
        ratio = mean / (mean + 1.0)
        assert ratio ** (expected + 1) <= eps
        assert expected == 0 or ratio**expected > eps

    def test_a_ratio_that_rounds_to_one_is_refused_not_looped_on(self):
        # mean/(mean+1) is 1.0, so no cutoff reaches a tail bound below 1; the
        # estimate (about 11 sectors) once started a loop that never ended, and
        # later one that walked to the sector limit (0.5-0.7 s a refusal)
        for mean, eps in ((1e17, math.nextafter(1.0, 0.0)), (1e16, 1 - 1e-15)):
            with pytest.raises(ValueError, match=f"limit of {MAX_SECTORS} sectors"):
                truncation_index(mean, eps)

    def test_largest_documented_mean_fits_the_limit(self):
        assert truncation_index(1.5e5, DEFAULT_EPSILON_TAIL) + 1 <= MAX_SECTORS

    @given(
        mean=st.floats(min_value=1e-6, max_value=50.0),
        eps=st.floats(min_value=1e-15, max_value=0.5),
    )
    def test_cutoff_is_minimal(self, mean, eps):
        n = truncation_index(mean, eps)
        ratio = mean / (mean + 1.0)
        assert ratio ** (n + 1) <= eps
        if n > 0:
            assert ratio**n > eps


class TestThermalDistribution:
    def test_vacuum(self):
        dist = ThermalDistribution.from_mean(0.0)
        assert dist.n_max == 0
        assert dist.probabilities().tolist() == [1.0]

    def test_probabilities_are_geometric(self):
        dist = ThermalDistribution.from_mean(0.5)
        probs = dist.probabilities()
        assert probs[0] == pytest.approx(1.0 / 1.5)
        np.testing.assert_allclose(probs[1:] / probs[:-1], 0.5 / 1.5, rtol=1e-14)
        assert 1.0 - probs.sum() <= dist.epsilon_tail

    def test_from_mean_uses_minimal_certified_cutoff(self):
        dist = ThermalDistribution.from_mean(0.1, 1e-12)
        assert dist.n_max == truncation_index(0.1, 1e-12)

    @given(
        mean=st.floats(min_value=0.0, max_value=1e4),
        eps=st.floats(min_value=1e-15, max_value=0.99),
    )
    def test_uncertified_cutoff_is_rejected(self, mean, eps):
        # the cutoff is derived, so no instance holds an uncertified one: its
        # tail is within the bound and one fewer sector would not be
        dist = ThermalDistribution(mean, eps)
        ratio = mean / (mean + 1.0)
        assert ratio ** (dist.n_max + 1) <= eps
        assert dist.n_max == 0 or ratio**dist.n_max > eps
        assert dist == ThermalDistribution.from_mean(mean, eps)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mean_photons": -0.1},
            {"mean_photons": 0.1, "epsilon_tail": 1.0},
            {"mean_photons": 0.1, "epsilon_tail": 0.0},
            {"mean_photons": 0.1, "epsilon_tail": 1.5},
            {"mean_photons": math.nan},
            {"mean_photons": math.inf},
            {"mean_photons": 0.1, "epsilon_tail": math.nan},
        ],
    )
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            ThermalDistribution(**kwargs)

    def test_only_the_mean_and_the_tail_bound_are_given(self):
        with pytest.raises(TypeError):
            ThermalDistribution(5.0, 0.5, 3)
        dist = ThermalDistribution(5.0, 0.5)
        assert dist.n_max == truncation_index(5.0, 0.5) == 3

    @pytest.mark.parametrize("mean", [math.inf, math.nan])
    def test_from_mean_names_a_non_finite_mean(self, mean):
        with pytest.raises(ValueError, match="mean photon number must be finite"):
            ThermalDistribution.from_mean(mean)

    def test_cutoff_beyond_the_sector_limit_is_rejected(self):
        # two neighbouring means whose cutoffs at tail 0.5 are MAX_SECTORS - 1
        # and MAX_SECTORS; construction allocates nothing, only probabilities()
        # would
        fits, over = 6051101.082463012, 6051101.082463013
        assert ThermalDistribution(fits, 0.5).n_max == MAX_SECTORS - 1
        ratio = over / (over + 1.0)
        assert ratio**MAX_SECTORS > 0.5 >= ratio ** (MAX_SECTORS + 1)
        with pytest.raises(ValueError, match=f"limit of {MAX_SECTORS} sectors"):
            ThermalDistribution(over, 0.5)
        with pytest.raises(ValueError, match=f"limit of {MAX_SECTORS} sectors"):
            ThermalDistribution.from_mean(1e9)

    def test_default_epsilon_tail(self):
        assert ThermalDistribution.from_mean(0.1).epsilon_tail == DEFAULT_EPSILON_TAIL


class TestThermalProbability:
    def test_matches_probabilities_array(self):
        # scalar and vectorized routes round differently in the last ulp
        dist = ThermalDistribution.from_mean(0.3)
        probs = dist.probabilities()
        for n in range(dist.n_max + 1):
            assert thermal_probability(dist, n) == pytest.approx(
                probs[n], rel=1e-13, abs=0.0)

    def test_rejects_indices_below_minus_one(self):
        dist = ThermalDistribution.from_mean(0.3)
        with pytest.raises(ValueError):
            thermal_probability(dist, -2)


def _truncation_message(trace: str) -> str:
    return (f"reduced-state trace is {trace}; the Fock truncation is too coarse "
            "(decrease epsilon_tail)")


class TestCheckXStates:
    """The X-state container and :func:`check_x_states`, the one check of the
    state that both routes return."""

    def test_bell_state(self):
        rho = XStates(0.0, 0.5, 0.5 + 0j, 0.5, 0.0)
        check_x_states(rho)
        assert x_trace(rho) == 1.0
        assert x_matrix(rho)[2, 1] == 0.5 - 0j  # x4 = conj(x3)
        assert inner_block_min_eigenvalue(rho) == pytest.approx(0.0, abs=1e-15)

    def test_to_matrix_layout(self):
        rho = x_matrix(XStates(0.1, 0.3, 0.2 + 0.1j, 0.4, 0.2))
        assert rho.shape == (4, 4)
        assert rho[0, 0] == 0.1  # |gg>
        assert rho[1, 1] == 0.3  # |ge>
        assert rho[2, 2] == 0.4  # |eg>
        assert rho[3, 3] == 0.2  # |ee>
        assert rho[1, 2] == 0.2 + 0.1j
        assert rho[2, 1] == 0.2 - 0.1j
        assert np.count_nonzero(rho) == 6
        assert np.max(np.abs(rho - rho.conj().T)) == 0.0

    def test_rejects_bad_trace(self):
        with pytest.raises(TruncationError) as raised:
            check_x_states(XStates(0.5, 0.5, 0.0j, 0.5, 0.5))
        assert str(raised.value) == _truncation_message("2.0")

    def test_rejects_negative_population(self):
        with pytest.raises(ValueError, match=r"populations outside \[0, 1\]: \(-0.2,"):
            check_x_states(XStates(-0.2, 0.5, 0.0j, 0.5, 0.2))

    def test_rejects_oversized_coherence(self):
        # |x3| > sqrt(x2*x5) makes the central block indefinite
        with pytest.raises(ValueError, match=r"coherence too large .*\|x3\|=0.3,"):
            check_x_states(XStates(0.4, 0.1, 0.3 + 0j, 0.1, 0.4))

    def test_trace_is_checked_to_trace_tol(self):
        # TRACE_TOL = 1e-9: a trace off by 5e-10 passes, one off by 2e-9 does not
        check_x_states(XStates(0.5, 0.25, 0.0j, 0.25, 5e-10))
        with pytest.raises(TruncationError) as raised:
            check_x_states(XStates(0.5, 0.25, 0.0j, 0.25, 2e-9))
        assert str(raised.value) == _truncation_message("1.000000002")

    @pytest.mark.parametrize("index", range(5))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_elements(self, index, bad):
        elements = [0.0, 0.5, 0.5 + 0j, 0.5, 0.0]
        elements[index] = bad if index != 2 else complex(0.5, bad)
        with pytest.raises(ValueError):
            check_x_states(XStates(*elements))

    def test_array_check_names_the_first_failing_row(self):
        x1 = np.array([0.0, 0.0, math.nan])
        half = np.full(3, 0.5)
        check_x_states(XStates(np.zeros(3), half, half.astype(complex), half, np.zeros(3)))
        with pytest.raises(ValueError, match="nan"):
            check_x_states(XStates(x1, half, half.astype(complex), half, np.zeros(3)))
