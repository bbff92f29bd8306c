"""Brute-force route: sector propagators, branch evolution, partial trace,
and the general concurrence used to cross-check the X-state shortcut."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thermaljc import (
    SystemParams,
    ThermalDistribution,
    TruncationError,
    density_matrix,
    evolve_branch,
    evolve_sector,
    max_route_deviation,
    oracle_density_matrix,
    oracle_joint_density,
    sector_propagator,
    validation_grid,
    wootters_concurrence_general,
)
from thermaljc.oracle import (
    JointDensity,
    SubsystemState,
    ValidationResult,
    evolve_subsystem,
    sector_hamiltonian,
)


def _dist(mean):
    return ThermalDistribution.from_mean(mean)


BELL_MATRIX = np.zeros((4, 4), dtype=complex)
BELL_MATRIX[1:3, 1:3] = 0.5


class TestSectorPropagator:
    def test_hamiltonian_block(self):
        h = sector_hamiltonian(0.7, 2.0, 3)
        off = 0.7 * 2.0  # sqrt(4)
        np.testing.assert_allclose(h, [[1.0, off], [off, -1.0]], atol=1e-15)

    def test_identity_at_time_zero(self):
        np.testing.assert_allclose(
            sector_propagator(0.8, 1.5, 2, 0.0), np.eye(2), atol=1e-14
        )

    @pytest.mark.parametrize("gt", [0.3, 1.0, 2.9])
    def test_resonant_vacuum_rotation(self, gt):
        u = sector_propagator(1.0, 0.0, 0, gt)
        c, s = math.cos(gt), math.sin(gt)
        np.testing.assert_allclose(u, [[c, -1j * s], [-1j * s, c]], atol=1e-14)

    def test_rejects_negative_sector(self):
        with pytest.raises(ValueError):
            sector_propagator(1.0, 0.0, -1, 1.0)

    @given(
        g_eff=st.floats(min_value=0.0, max_value=5.0),
        delta=st.floats(min_value=-10.0, max_value=10.0),
        n=st.integers(min_value=0, max_value=30),
        t=st.floats(min_value=0.0, max_value=50.0),
    )
    def test_unitarity(self, g_eff, delta, n, t):
        u = sector_propagator(g_eff, delta, n, t)
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-14


class TestEvolveSector:
    @pytest.mark.parametrize("gt", [0.0, 0.4, 1.7])
    def test_resonant_vacuum_amplitudes(self, gt):
        a, b = evolve_sector(1.0, 0.0, 0, gt, (1.0, 0.0))
        assert a == pytest.approx(math.cos(gt), abs=1e-14)
        assert b == pytest.approx(-1j * math.sin(gt), abs=1e-14)

    def test_time_zero_is_identity(self):
        a, b = evolve_sector(0.9, 2.0, 1, 0.0, (0.6, 0.8j))
        assert a == pytest.approx(0.6, abs=1e-14)
        assert b == pytest.approx(0.8j, abs=1e-14)

    def test_far_detuned_exchange_is_frozen(self):
        # transfer probability is capped at 4g'^2/(delta^2 + 4g'^2) ~ 0.0016
        for t in np.linspace(0.0, 20.0, 101):
            a, _ = evolve_sector(0.1, 5.0, 0, float(t), (1.0, 0.0))
            assert abs(a) ** 2 >= 0.998

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            evolve_sector(1.0, 0.0, 0, 1.0, (1.0, 0.0, 0.0))

    @given(
        re0=st.floats(min_value=-1.0, max_value=1.0),
        im0=st.floats(min_value=-1.0, max_value=1.0),
        re1=st.floats(min_value=-1.0, max_value=1.0),
        im1=st.floats(min_value=-1.0, max_value=1.0),
        g_eff=st.floats(min_value=0.0, max_value=5.0),
        delta=st.floats(min_value=-10.0, max_value=10.0),
        n=st.integers(min_value=0, max_value=20),
        t=st.floats(min_value=0.0, max_value=30.0),
    )
    def test_norm_preserved(self, re0, im0, re1, im1, g_eff, delta, n, t):
        raw = np.array([re0 + 1j * im0, re1 + 1j * im1])
        norm = np.linalg.norm(raw)
        if norm < 1e-3:
            raw[0] += 1.0
            norm = np.linalg.norm(raw)
        a, b = evolve_sector(g_eff, delta, n, t, tuple(raw / norm))
        assert abs(a) ** 2 + abs(b) ** 2 == pytest.approx(1.0, abs=1e-14)


class TestEvolveSubsystem:
    @pytest.mark.parametrize("atom, n", [("g", 0), ("g", 2), ("e", 0), ("e", 3)])
    @pytest.mark.parametrize("t", [0.0, 0.8, 3.1])
    def test_pure_inputs_stay_normalized(self, atom, n, t):
        state = evolve_subsystem(0.9, 1.3, atom, n, t, size=n + 2)
        assert state.norm() == pytest.approx(1.0, abs=1e-12)

    def test_ground_vacuum_is_a_pure_phase(self):
        delta, t = 1.8, 2.2
        state = evolve_subsystem(0.9, delta, "g", 0, t, size=2)
        assert state.excited == pytest.approx(np.zeros(2), abs=0.0)
        assert state.ground[0] == pytest.approx(np.exp(0.5j * delta * t), abs=1e-14)
        assert state.ground[1] == 0.0

    def test_excited_state_spreads_one_photon_up(self):
        state = evolve_subsystem(1.0, 0.0, "e", 1, 0.7, size=4)
        phase = 0.7 * math.sqrt(2.0)
        assert state.excited[1] == pytest.approx(math.cos(phase), abs=1e-13)
        assert state.ground[2] == pytest.approx(-1j * math.sin(phase), abs=1e-13)

    def test_rejects_undersized_field(self):
        with pytest.raises(ValueError):
            evolve_subsystem(1.0, 0.0, "e", 2, 1.0, size=3)

    def test_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            evolve_subsystem(1.0, 0.0, "x", 0, 1.0, size=2)


class TestEvolveBranch:
    def test_product_branch_at_time_zero(self):
        dist = _dist(0.1)
        weight = dist.probabilities()[0] ** 2
        rho = evolve_branch(SystemParams(), dist, dist, 0, 0, 0.0, "e", "g")
        expected = np.zeros((4, 4), dtype=complex)
        expected[2, 2] = weight  # |eg><eg|
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    def test_vacuum_product_branch_fully_decays(self):
        # motion off, g't = pi/2: the excited atom hands its quantum to the field
        params = SystemParams(motion_enabled=False)
        dist = _dist(0.0)
        rho = evolve_branch(params, dist, dist, 0, 0, math.pi / 2, "e", "g")
        assert rho[0, 0] == pytest.approx(1.0, abs=1e-13)  # weight is P_0^2 = 1
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-13)
        assert np.max(np.abs(rho - np.diag(np.diag(rho)))) < 1e-13

    @pytest.mark.parametrize("n, m", [(0, 0), (1, 2)])
    def test_entangled_branch_trace_equals_weight(self, n, m):
        dist = _dist(0.5)
        probs = dist.probabilities()
        rho = evolve_branch(SystemParams(delta=0.7), dist, dist, n, m, 1.3)
        assert np.trace(rho).real == pytest.approx(probs[n] * probs[m], abs=1e-14)

    def test_cross_term_is_exactly_the_matching_field_coherence(self):
        # branch minus its two product halves = the interference part; after
        # the field trace it can only live on the (ge, eg) coherence pair
        params, dist = SystemParams(delta=0.7), _dist(0.5)
        n = m = 1
        bell = evolve_branch(params, dist, dist, n, m, 1.1)
        prod_eg = evolve_branch(params, dist, dist, n, m, 1.1, "e", "g")
        prod_ge = evolve_branch(params, dist, dist, n, m, 1.1, "g", "e")
        cross = bell - 0.5 * (prod_eg + prod_ge)
        support = np.zeros((4, 4), dtype=bool)
        support[1, 2] = support[2, 1] = True
        assert np.max(np.abs(cross[~support])) < 1e-14
        assert np.abs(cross[1, 2]) > 1e-3

    def test_rejects_single_atom_level(self):
        dist = _dist(0.1)
        with pytest.raises(ValueError):
            evolve_branch(SystemParams(), dist, dist, 0, 0, 1.0, "e", None)


class TestJointDensity:
    def test_oracle_output_is_x_structured(self):
        rho = oracle_joint_density(SystemParams(delta=1.0), _dist(0.1), _dist(0.1), 1.7)
        rho.validate()
        assert rho.max_off_x_magnitude() <= 1e-12

    def test_off_pattern_entry_is_reported_and_blocks_conversion(self):
        m = np.array(BELL_MATRIX)
        m[0, 3] = m[3, 0] = 0.1
        dirty = JointDensity(m)
        assert dirty.max_off_x_magnitude() == pytest.approx(0.1, abs=1e-15)
        with pytest.raises(ValueError):
            dirty.to_atomic()

    def test_rejects_non_hermitian(self):
        m = np.array(BELL_MATRIX)
        m[1, 2] = 0.5j  # conjugate partner left at 0.5
        with pytest.raises(ValueError):
            JointDensity(m).validate()

    def test_rejects_trace_loss(self):
        with pytest.raises(TruncationError):
            JointDensity(0.9 * BELL_MATRIX).validate()

    def test_rejects_indefinite_matrix(self):
        m = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            JointDensity(m).validate()

    def test_to_atomic_round_trips_the_elements(self):
        joint = oracle_joint_density(SystemParams(delta=1.0), _dist(0.1), _dist(0.1), 1.7)
        atomic = joint.to_atomic()
        np.testing.assert_allclose(atomic.to_matrix(), joint.matrix, atol=1e-12)


@pytest.fixture(scope="module")
def states():
    # one off-resonant configuration probed densely; the full cross-validation
    # grid lives in the acceptance suite
    params = SystemParams(delta=1.0)
    dist = _dist(0.1)
    grid = np.arange(0.0, 25.5, 0.5)
    return [oracle_joint_density(params, dist, dist, float(t)) for t in grid]


class TestOracleInvariants:

    def test_hermitian(self, states):
        for rho in states:
            assert np.max(np.abs(rho.matrix - rho.matrix.conj().T)) <= 1e-12

    def test_trace_one(self, states):
        for rho in states:
            assert abs(np.trace(rho.matrix).real - 1.0) <= 1e-9

    def test_positive_semidefinite(self, states):
        for rho in states:
            assert np.min(np.linalg.eigvalsh(rho.matrix)) >= -1e-9

    def test_x_structure(self, states):
        for rho in states:
            assert rho.max_off_x_magnitude() <= 1e-12


class TestRouteAgreement:
    def test_thermal_reference_point(self):
        params = SystemParams()
        dist = _dist(0.1)
        gap = max_route_deviation(params, dist, dist, [1.0])
        assert gap <= 1e-9

    def test_vacuum_matches_to_closed_form_accuracy(self):
        params = SystemParams()
        dist = _dist(0.0)
        gap = max_route_deviation(params, dist, dist, np.linspace(0.0, 6.0, 13))
        assert gap <= 1e-12

    def test_validation_grid_covers_all_configurations(self):
        results = validation_grid(gt_max=2.0, times=3)
        assert len(results) == 18
        assert all(r.ok() for r in results)
        assert {(r.p, r.mean_a, r.delta) for r in results} == {
            (p, mean, delta)
            for p in (1, 4)
            for mean in (0.0, 0.1, 0.5)
            for delta in (0.0, 1.0, 5.0)
        }

    @pytest.mark.parametrize("kwargs", [{"times": 0}, {"times": -5}, {"g": 0.0}])
    def test_validation_grid_rejects_a_vacuous_or_invalid_grid(self, kwargs):
        with pytest.raises(ValueError):
            validation_grid(gt_max=2.0, **{"times": 3, **kwargs})

    def test_validation_result_failure_handling(self):
        good = ValidationResult(1, 0.1, 0.1, 0.0, 1e-12)
        bad = ValidationResult(1, 0.1, 0.1, 0.0, 1e-6)
        broken = ValidationResult(1, 5.0, 5.0, 0.0, math.inf, failure="tail")
        assert good.ok()
        assert not bad.ok()
        assert not broken.ok()
        assert bad.ok(tol=1e-3)


class TestWoottersConcurrence:
    def test_bell_state(self):
        assert wootters_concurrence_general(BELL_MATRIX) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert wootters_concurrence_general(np.eye(4) / 4.0) == 0.0

    def test_product_state(self):
        m = np.zeros((4, 4), dtype=complex)
        m[2, 2] = 1.0
        assert wootters_concurrence_general(m) == 0.0

    @pytest.mark.parametrize(
        "w, expected",
        [(0.2, 0.0), (1.0 / 3.0, 0.0), (0.8, 0.7), (1.0, 1.0)],
    )
    def test_werner_family(self, w, expected):
        rho = w * BELL_MATRIX + (1.0 - w) * np.eye(4) / 4.0
        assert wootters_concurrence_general(rho) == pytest.approx(expected, abs=1e-12)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            wootters_concurrence_general(np.eye(3))

    def test_rejects_non_hermitian(self):
        m = np.array(BELL_MATRIX)
        m[1, 2] = 0.4j
        with pytest.raises(ValueError):
            wootters_concurrence_general(m)

    @pytest.mark.parametrize("delta", [0.0, 5.0])
    @pytest.mark.parametrize("gt", [0.9, 2.4, 6.1])
    def test_matches_x_state_shortcut_on_model_states(self, delta, gt):
        from thermaljc import concurrence

        params = SystemParams(delta=delta)
        dist = _dist(0.1)
        rho = density_matrix(params, dist, dist, gt)
        general = wootters_concurrence_general(rho.to_matrix())
        assert abs(general - concurrence(rho)) <= 1e-10
