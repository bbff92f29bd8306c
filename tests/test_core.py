"""Parameter container, thermal truncation, and the X-state container."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thermaljc import (
    DEFAULT_EPSILON_TAIL,
    AtomicDensityMatrix,
    SystemParams,
    ThermalDistribution,
    TruncationError,
    truncation_index,
)
from thermaljc.core import MAX_SECTORS, check_x_states

from helpers import x_matrix


def thermal_probability(dist: ThermalDistribution, n: int) -> float:
    """P_n of ``dist`` one index at a time.

    ``n = -1`` denotes the annihilation channel below the vacuum and carries
    weight 0 by convention, which keeps index-shifted sums uniform."""
    if n < -1:
        raise ValueError(f"photon index must be >= -1, got {n}")
    if n == -1:
        return 0.0
    mean = dist.mean_photons
    return (mean / (mean + 1.0)) ** n / (mean + 1.0)


def mean_photons_from_temperature(omega_c: float, temperature: float) -> float:
    """Bose occupation 1/(exp(omega_c/T) - 1) of a mode at frequency omega_c."""
    if omega_c <= 0.0:
        raise ValueError(f"mode frequency must be positive, got {omega_c}")
    if temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    x = omega_c / temperature
    if x > 700.0:  # exp would overflow; the occupation is numerically zero
        return 0.0
    return 1.0 / math.expm1(x)


def inner_block_min_eigenvalue(rho: AtomicDensityMatrix) -> float:
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
        assert params.omega_c == 1.0

    def test_omega_0_is_derived_from_detuning(self):
        assert SystemParams(delta=2.5).omega_0 == 3.5
        assert SystemParams(delta=-0.5, omega_c=2.0).omega_0 == 1.5

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
            {"omega_c": math.nan},
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

    def test_accepts_numpy_integer_p(self):
        assert SystemParams(p=np.int64(3)).p == 3


class TestTruncationIndex:
    # frozen against the direct tail inequality (mean/(mean+1))**(n+1) <= eps
    @pytest.mark.parametrize(
        "mean, expected",
        [(0.0, 0), (0.05, 9), (0.08, 10), (0.1, 11), (0.5, 25), (5.0, 151)],
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

    def test_uncertified_cutoff_is_rejected(self):
        with pytest.raises(TruncationError):
            ThermalDistribution(5.0, 5, 1e-2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mean_photons": -0.1, "n_max": 0},
            {"mean_photons": 0.1, "n_max": -1},
            {"mean_photons": 0.1, "n_max": 20, "epsilon_tail": 0.0},
            {"mean_photons": 0.1, "n_max": 20, "epsilon_tail": 1.5},
            {"mean_photons": math.nan, "n_max": 5},
            {"mean_photons": math.inf, "n_max": 5},
            {"mean_photons": 0.1, "n_max": 20, "epsilon_tail": math.nan},
        ],
    )
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            ThermalDistribution(**kwargs)

    @pytest.mark.parametrize("mean", [math.inf, math.nan])
    def test_from_mean_names_a_non_finite_mean(self, mean):
        with pytest.raises(ValueError, match="mean photon number must be finite"):
            ThermalDistribution.from_mean(mean)

    def test_cutoff_beyond_the_sector_limit_is_rejected(self):
        # construction allocates nothing; only probabilities() would
        assert ThermalDistribution(0.5, MAX_SECTORS - 1).n_max == MAX_SECTORS - 1
        with pytest.raises(ValueError, match=f"limit of {MAX_SECTORS} sectors"):
            ThermalDistribution(0.5, MAX_SECTORS)
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

    def test_annihilation_channel_below_vacuum_is_zero(self):
        dist = ThermalDistribution.from_mean(0.3)
        assert thermal_probability(dist, -1) == 0.0

    def test_rejects_indices_below_minus_one(self):
        dist = ThermalDistribution.from_mean(0.3)
        with pytest.raises(ValueError):
            thermal_probability(dist, -2)


class TestMeanPhotonsFromTemperature:
    def test_unit_frequency_unit_temperature(self):
        # 1/(e - 1)
        assert mean_photons_from_temperature(1.0, 1.0) == pytest.approx(
            0.5819767068693265, abs=1e-15
        )

    def test_cold_limit_underflows_to_zero(self):
        assert mean_photons_from_temperature(1.0, 1e-3) == 0.0

    def test_hot_limit_is_classical(self):
        # n(T) -> T/omega for T >> omega
        assert mean_photons_from_temperature(1.0, 1e4) == pytest.approx(1e4, rel=1e-3)

    @pytest.mark.parametrize("omega, temp", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_rejects_bad_arguments(self, omega, temp):
        with pytest.raises(ValueError):
            mean_photons_from_temperature(omega, temp)


class TestAtomicDensityMatrix:
    def test_bell_state(self):
        rho = AtomicDensityMatrix(0.0, 0.5, 0.5 + 0j, 0.5, 0.0)
        assert rho.trace == 1.0
        assert rho.x4 == 0.5 - 0j
        assert inner_block_min_eigenvalue(rho) == pytest.approx(0.0, abs=1e-15)

    def test_to_matrix_layout(self):
        rho = x_matrix(AtomicDensityMatrix(0.1, 0.3, 0.2 + 0.1j, 0.4, 0.2))
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
        with pytest.raises(ValueError):
            AtomicDensityMatrix(0.5, 0.5, 0.0j, 0.5, 0.5)

    def test_rejects_negative_population(self):
        with pytest.raises(ValueError):
            AtomicDensityMatrix(-0.2, 0.5, 0.0j, 0.5, 0.2)

    def test_rejects_oversized_coherence(self):
        # |x3| > sqrt(x2*x5) makes the central block indefinite
        with pytest.raises(ValueError):
            AtomicDensityMatrix(0.4, 0.1, 0.3 + 0j, 0.1, 0.4)

    def test_validate_tolerance_is_adjustable(self):
        rho = AtomicDensityMatrix(0.5, 0.25, 0.0j, 0.25, 5e-10)
        with pytest.raises(ValueError):
            rho.validate(tol=1e-12)

    @pytest.mark.parametrize("index", range(5))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_elements(self, index, bad):
        elements = [0.0, 0.5, 0.5 + 0j, 0.5, 0.0]
        elements[index] = bad if index != 2 else complex(0.5, bad)
        with pytest.raises(ValueError):
            AtomicDensityMatrix(*elements)

    def test_array_check_names_the_first_failing_row(self):
        x1 = np.array([0.0, 0.0, math.nan])
        half = np.full(3, 0.5)
        check_x_states(np.zeros(3), half, half.astype(complex), half, np.zeros(3))
        with pytest.raises(ValueError, match="nan"):
            check_x_states(x1, half, half.astype(complex), half, np.zeros(3))
