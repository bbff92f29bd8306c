"""Concurrence, purity, and atomic energy on the X-state container."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thermaljc import (
    AtomicDensityMatrix,
    SystemParams,
    ThermalDistribution,
    concurrence,
    density_matrix,
    effective_coupling,
    energy,
    purity,
    time_series,
)

BELL = AtomicDensityMatrix(0.0, 0.5, 0.5 + 0j, 0.5, 0.0)
MIXED = AtomicDensityMatrix(0.25, 0.25, 0.0j, 0.25, 0.25)


def _symmetric_state(x1, x3, x6):
    """X state with the outer populations and coherence given; x2 = x5 fills
    the rest of the trace."""
    middle = 0.5 * (1.0 - x1 - x6)
    return AtomicDensityMatrix(x1, middle, x3, middle, x6)


# strategy for physically valid symmetric X states
_states = st.builds(
    lambda x1, x6, frac, phase: _symmetric_state(
        x1, frac * 0.5 * (1.0 - x1 - x6) * cmath.exp(1j * phase), x6
    ),
    x1=st.floats(min_value=0.0, max_value=0.3),
    x6=st.floats(min_value=0.0, max_value=0.3),
    frac=st.floats(min_value=0.0, max_value=1.0),
    phase=st.floats(min_value=-math.pi, max_value=math.pi),
)


class TestConcurrence:
    @pytest.mark.parametrize(
        "x1, x3, x6, expected",
        [
            (0.0, 0.5 + 0j, 0.0, 1.0),  # Bell state
            (0.04, 0.1 + 0j, 0.25, 0.0),  # |x3| equals sqrt(x1*x6) exactly
            (0.01, 0.3 + 0j, 0.04, 0.56),
            (0.01, 0.3j, 0.04, 0.56),  # phase of x3 is irrelevant
            (0.2, 0.0j, 0.2, 0.0),
        ],
    )
    def test_frozen_values(self, x1, x3, x6, expected):
        assert concurrence(_symmetric_state(x1, x3, x6)) == pytest.approx(
            expected, abs=1e-15
        )

    def test_maximally_mixed_is_separable(self):
        assert concurrence(MIXED) == 0.0

    @given(_states)
    def test_range(self, rho):
        assert 0.0 <= concurrence(rho) <= 1.0

    @given(_states, st.floats(min_value=-math.pi, max_value=math.pi))
    def test_invariant_under_coherence_phase(self, rho, phi):
        rotated = AtomicDensityMatrix(
            rho.x1, rho.x2, rho.x3 * cmath.exp(1j * phi), rho.x5, rho.x6
        )
        assert concurrence(rotated) == pytest.approx(concurrence(rho), abs=1e-12)
        assert purity(rotated) == pytest.approx(purity(rho), abs=1e-12)


class TestPurity:
    def test_bell_state_is_pure(self):
        assert purity(BELL) == 1.0

    def test_maximally_mixed_floor(self):
        assert purity(MIXED) == 0.25

    def test_generic_value(self):
        rho = _symmetric_state(0.1, 0.2 + 0.1j, 0.3)
        expected = 0.1**2 + 2 * 0.3**2 + 0.3**2 + 2 * abs(0.2 + 0.1j) ** 2
        assert purity(rho) == pytest.approx(expected, abs=1e-15)

    @given(_states)
    def test_range(self, rho):
        assert 0.25 - 1e-12 <= purity(rho) <= 1.0 + 1e-12


class TestEnergy:
    @pytest.mark.parametrize(
        "rho, expected",
        [
            (BELL, 0.0),
            (AtomicDensityMatrix(1.0, 0.0, 0.0j, 0.0, 0.0), -1.0),  # |gg>
            (AtomicDensityMatrix(0.0, 0.0, 0.0j, 0.0, 1.0), 1.0),  # |ee>
            (_symmetric_state(0.3, 0.1 + 0j, 0.1), -0.2),
        ],
    )
    def test_frozen_values(self, rho, expected):
        assert energy(rho) == pytest.approx(expected, abs=1e-15)

    @given(_states)
    def test_range(self, rho):
        assert -1.0 <= energy(rho) <= 1.0


class TestEpePoint:
    @pytest.mark.parametrize(
        "gt, expected",
        [
            (0.0, (1.0, 1.0, 0.0)),
            (math.pi / 4, (0.5, 0.5, -0.5)),
            (math.pi / 2, (0.0, 1.0, -1.0)),
        ],
    )
    def test_vacuum_landmarks(self, gt, expected):
        # motion off makes the accumulated phase exactly g*t
        params = SystemParams(motion_enabled=False)
        dist = ThermalDistribution.from_mean(0.0)
        rho = density_matrix(params, dist, dist, gt)
        assert concurrence(rho) == pytest.approx(expected[0], abs=1e-12)
        assert purity(rho) == pytest.approx(expected[1], abs=1e-12)
        assert energy(rho) == pytest.approx(expected[2], abs=1e-12)


class TestVacuumClosedForms:
    @pytest.mark.parametrize("gt", np.linspace(0.0, 12.0, 25).tolist())
    def test_observables_follow_the_accumulated_phase(self, gt):
        params = SystemParams()
        dist = ThermalDistribution.from_mean(0.0)
        rho = density_matrix(params, dist, dist, gt)
        phase = effective_coupling(params, gt) * gt
        s2, c2 = math.sin(phase) ** 2, math.cos(phase) ** 2
        assert concurrence(rho) == pytest.approx(c2, abs=1e-12)
        assert purity(rho) == pytest.approx(s2**2 + c2**2, abs=1e-12)
        assert energy(rho) == pytest.approx(-s2, abs=1e-12)


class TestHighEntanglementImpliesHighPurity:
    def test_scan_frozen_threshold_pair(self):
        # bound confirmed by scanning the reference trajectory: the tightest
        # purity seen at C >= 0.999 is 0.99878
        params = SystemParams()
        dist = ThermalDistribution.from_mean(0.1)
        series = time_series(params, dist, dist, 25.0, 2000)
        high = series.concurrence >= 0.999
        assert np.any(high)
        assert float(np.min(series.purity[high])) >= 0.9985
