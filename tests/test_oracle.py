"""Brute-force route: sector propagators, evolved basis states, the per-cavity
field trace, and the general concurrence used to cross-check the X-state
shortcut."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thermaljc import (
    ORACLE_TOL,
    SystemParams,
    ThermalDistribution,
    TruncationError,
    density_matrix,
    effective_coupling,
    max_route_deviation,
    oracle_density_matrix,
    oracle_joint_density,
    validation_grid,
    wootters_concurrence_general,
)
from thermaljc.oracle import (
    _CHUNK_ELEMENTS,
    JointDensity,
    ValidationResult,
    evolve_basis,
    sector_hamiltonians,
)
from thermaljc.cli import main as cli_main

from helpers import x_matrix


def _dist(mean, epsilon_tail=1e-12):
    return ThermalDistribution.from_mean(mean, epsilon_tail)


BELL_MATRIX = np.zeros((4, 4), dtype=complex)
BELL_MATRIX[1:3, 1:3] = 0.5

G, E = 0, 1  # atomic level indices of evolve_basis; joint index is 2*a + b
BELL = {(E, G): 1.0 / math.sqrt(2.0), (G, E): 1.0 / math.sqrt(2.0)}


def _evolve(g_eff, delta, t, n_max):
    """evolve_basis at one coupling and one time: amp[a, n, l], photon[a, n, l]."""
    amp, photon = evolve_basis(np.array([g_eff]), delta, np.array([t]), n_max)
    return amp[0], photon


def _sector_unitary(g_eff, delta, n, t):
    """Propagator of sector n on {|e,n>, |g,n+1>}, read off the evolved basis
    states |e,n> and |g,n+1> (its two columns)."""
    amp, photon = _evolve(g_eff, delta, t, n + 1)
    assert photon[E, n, G] == photon[G, n + 1, G] == n + 1
    assert photon[E, n, E] == photon[G, n + 1, E] == n
    return np.array([[amp[E, n, E], amp[G, n + 1, E]], [amp[E, n, G], amp[G, n + 1, G]]])


def _dense_propagator(g_eff, delta, t, size):
    """exp(-iHt) of one pair on the truncated basis |l, f> (index l*size + f),
    H = delta/2 sz + g_eff (s+ a + s- a^dag), by full diagonalization: no
    sector structure is used."""
    a = np.diag(np.sqrt(np.arange(1.0, size)), 1)
    raise_level = np.array([[0.0, 0.0], [1.0, 0.0]])  # |e><g|
    h = 0.5 * delta * np.kron(np.diag([-1.0, 1.0]), np.eye(size))
    h = h + g_eff * (np.kron(raise_level, a) + np.kron(raise_level.T, a.T))
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def _branch(evolved_a, evolved_b, n, m, components):
    """Field trace of the evolved branch sum_c coeff_c |a_c, n; b_c, m>, as
    (times, 4, 4) and unweighted.  The joint components are products of the
    single-pair ones; bucketed by their photon numbers (f_A, f_B), each bucket
    is one pure atomic vector of the trace over both fields."""
    (amp_a, photon_a), (amp_b, photon_b) = evolved_a, evolved_b
    buckets = {}
    for (a, b), coeff in components.items():
        for la in (G, E):
            for lb in (G, E):
                key = (int(photon_a[a, n, la]), int(photon_b[b, m, lb]))
                vec = buckets.setdefault(key, np.zeros((amp_a.shape[0], 4), dtype=complex))
                vec[:, 2 * la + lb] += coeff * amp_a[:, a, n, la] * amp_b[:, b, m, lb]
    return sum(np.einsum("ti,tj->tij", v, v.conj()) for v in buckets.values())


def _evolved_pairs(params, dist_a, dist_b, t):
    g_eff = np.atleast_1d(effective_coupling(params, t))
    return (evolve_basis(g_eff, params.delta, t, dist_a.n_max),
            evolve_basis(g_eff, params.delta, t, dist_b.n_max))


def _reference_joint(params, dist_a, dist_b, t, components=BELL):
    """Plain thermal double loop: every branch (n, m) traced on its own and
    weighted by P_n * P_m."""
    evolved_a, evolved_b = _evolved_pairs(params, dist_a, dist_b, t)
    probs_a, probs_b = dist_a.probabilities(), dist_b.probabilities()
    rho = np.zeros((t.size, 4, 4), dtype=complex)
    for n in range(dist_a.n_max + 1):
        for m in range(dist_b.n_max + 1):
            rho += probs_a[n] * probs_b[m] * _branch(evolved_a, evolved_b, n, m, components)
    return rho


def _weighted_branch(params, dist_a, dist_b, n, m, t, components=BELL):
    """One thermal branch at one time, weighted by P_n * P_m, as a 4x4."""
    t = np.array([t])
    evolved_a, evolved_b = _evolved_pairs(params, dist_a, dist_b, t)
    weight = dist_a.probabilities()[n] * dist_b.probabilities()[m]
    return weight * _branch(evolved_a, evolved_b, n, m, components)[0]


class TestSectorPropagator:
    def test_hamiltonian_block(self):
        h = sector_hamiltonians(np.array([0.7]), 2.0, 4)[0, 3]
        off = 0.7 * 2.0  # sqrt(4)
        np.testing.assert_allclose(h, [[1.0, off], [off, -1.0]], atol=1e-15)

    def test_identity_at_time_zero(self):
        np.testing.assert_allclose(
            _sector_unitary(0.8, 1.5, 2, 0.0), np.eye(2), atol=1e-14
        )

    @pytest.mark.parametrize("gt", [0.3, 1.0, 2.9])
    def test_resonant_vacuum_rotation(self, gt):
        u = _sector_unitary(1.0, 0.0, 0, gt)
        c, s = math.cos(gt), math.sin(gt)
        np.testing.assert_allclose(u, [[c, -1j * s], [-1j * s, c]], atol=1e-14)

    def test_rejects_negative_sector(self):
        with pytest.raises(ValueError):
            evolve_basis(np.array([1.0]), 0.0, np.array([1.0]), -1)

    @given(
        g_eff=st.floats(min_value=0.0, max_value=5.0),
        delta=st.floats(min_value=-10.0, max_value=10.0),
        n=st.integers(min_value=0, max_value=30),
        t=st.floats(min_value=0.0, max_value=50.0),
    )
    def test_unitarity(self, g_eff, delta, n, t):
        u = _sector_unitary(g_eff, delta, n, t)
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-14

    @pytest.mark.parametrize(
        "g_eff, delta, t", [(0.9, 1.3, 2.2), (1.0, 0.0, 7.1), (0.2, -4.0, 0.6)]
    )
    def test_matches_the_dense_pair_propagator(self, g_eff, delta, t):
        # every evolved basis state equals its column of exp(-iHt) on the whole
        # truncated pair space, components outside the recorded two included
        n_max = 6
        size = n_max + 2
        amp, photon = _evolve(g_eff, delta, t, n_max)
        dense = _dense_propagator(g_eff, delta, t, size)
        for a in (G, E):
            for n in range(n_max + 1):
                column = dense[:, a * size + n].copy()
                for level in (G, E):
                    if photon[a, n, level] >= 0:
                        column[level * size + photon[a, n, level]] -= amp[a, n, level]
                assert np.max(np.abs(column)) < 1e-12


class TestEvolveSector:
    @pytest.mark.parametrize("gt", [0.0, 0.4, 1.7])
    def test_resonant_vacuum_amplitudes(self, gt):
        amp, photon = _evolve(1.0, 0.0, gt, 0)
        assert amp[E, 0, E] == pytest.approx(math.cos(gt), abs=1e-14)
        assert amp[E, 0, G] == pytest.approx(-1j * math.sin(gt), abs=1e-14)
        assert (photon[E, 0, E], photon[E, 0, G]) == (0, 1)

    def test_time_zero_is_identity(self):
        a, b = _sector_unitary(0.9, 2.0, 1, 0.0) @ np.array([0.6, 0.8j])
        assert a == pytest.approx(0.6, abs=1e-14)
        assert b == pytest.approx(0.8j, abs=1e-14)

    def test_far_detuned_exchange_is_frozen(self):
        # transfer probability is capped at 4g'^2/(delta^2 + 4g'^2) ~ 0.0016
        t = np.linspace(0.0, 20.0, 101)
        amp, _ = evolve_basis(np.full(t.size, 0.1), 5.0, t, 0)
        assert np.all(np.abs(amp[:, E, 0, E]) ** 2 >= 0.998)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            oracle_joint_density(SystemParams(), _dist(0.1), _dist(0.1), np.zeros((2, 2)))

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
        a, b = _sector_unitary(g_eff, delta, n, t) @ (raw / norm)
        assert abs(a) ** 2 + abs(b) ** 2 == pytest.approx(1.0, abs=1e-14)


class TestEvolveSubsystem:
    @pytest.mark.parametrize("atom, n", [("g", 0), ("g", 2), ("e", 0), ("e", 3)])
    @pytest.mark.parametrize("t", [0.0, 0.8, 3.1])
    def test_pure_inputs_stay_normalized(self, atom, n, t):
        amp, _ = _evolve(0.9, 1.3, t, n + 1)
        a = {"g": G, "e": E}[atom]
        assert np.sum(np.abs(amp[a, n]) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_ground_vacuum_is_a_pure_phase(self):
        delta, t = 1.8, 2.2
        amp, photon = _evolve(0.9, delta, t, 1)
        assert amp[G, 0, E] == 0.0
        assert photon[G, 0, G] == 0
        assert amp[G, 0, G] == pytest.approx(np.exp(0.5j * delta * t), abs=1e-14)

    def test_excited_state_spreads_one_photon_up(self):
        amp, photon = _evolve(1.0, 0.0, 0.7, 2)
        phase = 0.7 * math.sqrt(2.0)
        assert photon[E, 1, E] == 1 and photon[E, 1, G] == 2
        assert amp[E, 1, E] == pytest.approx(math.cos(phase), abs=1e-13)
        assert amp[E, 1, G] == pytest.approx(-1j * math.sin(phase), abs=1e-13)

    def test_photon_numbers_stay_within_one_of_the_input(self):
        # the trace over the field pairs levels by these numbers; only the
        # empty excited slot of |g,0> lies below the vacuum, with amplitude 0
        t = np.linspace(0.0, 9.0, 7)
        amp, photon = evolve_basis(np.full(t.size, 0.9), 1.3, t, 5)
        n = np.arange(6)
        np.testing.assert_array_equal(photon[E], np.stack([n + 1, n], axis=1))
        np.testing.assert_array_equal(photon[G], np.stack([n, n - 1], axis=1))
        assert np.all(amp[:, G, 0, E] == 0.0)


class TestEvolveBranch:
    def test_product_branch_at_time_zero(self):
        dist = _dist(0.1)
        weight = dist.probabilities()[0] ** 2
        rho = _weighted_branch(SystemParams(), dist, dist, 0, 0, 0.0, {(E, G): 1.0})
        expected = np.zeros((4, 4), dtype=complex)
        expected[2, 2] = weight  # |eg><eg|
        np.testing.assert_allclose(rho, expected, atol=1e-15)

    def test_vacuum_product_branch_fully_decays(self):
        # motion off, g't = pi/2: the excited atom hands its quantum to the field
        params = SystemParams(motion_enabled=False)
        dist = _dist(0.0)
        rho = _weighted_branch(params, dist, dist, 0, 0, math.pi / 2, {(E, G): 1.0})
        assert rho[0, 0] == pytest.approx(1.0, abs=1e-13)  # weight is P_0^2 = 1
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-13)
        assert np.max(np.abs(rho - np.diag(np.diag(rho)))) < 1e-13

    @pytest.mark.parametrize("n, m", [(0, 0), (1, 2)])
    def test_entangled_branch_trace_equals_weight(self, n, m):
        dist = _dist(0.5)
        probs = dist.probabilities()
        rho = _weighted_branch(SystemParams(delta=0.7), dist, dist, n, m, 1.3)
        assert np.trace(rho).real == pytest.approx(probs[n] * probs[m], abs=1e-14)

    def test_cross_term_is_exactly_the_matching_field_coherence(self):
        # branch minus its two product halves = the interference part; after
        # the field trace it can only live on the (ge, eg) coherence pair
        params, dist = SystemParams(delta=0.7), _dist(0.5)
        n = m = 1
        bell = _weighted_branch(params, dist, dist, n, m, 1.1)
        prod_eg = _weighted_branch(params, dist, dist, n, m, 1.1, {(E, G): 1.0})
        prod_ge = _weighted_branch(params, dist, dist, n, m, 1.1, {(G, E): 1.0})
        cross = bell - 0.5 * (prod_eg + prod_ge)
        support = np.zeros((4, 4), dtype=bool)
        support[1, 2] = support[2, 1] = True
        assert np.max(np.abs(cross[~support])) < 1e-14
        assert np.abs(cross[1, 2]) > 1e-3

    @pytest.mark.parametrize(
        "params, dist_a, dist_b",
        [
            (SystemParams(delta=1.0), _dist(0.1), _dist(0.1)),
            (SystemParams(delta=0.7), _dist(0.5, 1e-5), _dist(0.5, 1e-5)),
            (SystemParams(delta=1.0), _dist(0.1), _dist(0.5, 1e-5)),
            (SystemParams(g=1.7, p=2, delta=0.3), _dist(0.3, 1e-6), _dist(0.0)),
            (SystemParams(delta=-2.0, motion_enabled=False), _dist(0.0), _dist(0.1)),
        ],
        ids=["equal", "equal-N10", "unequal", "unequal-g1.7", "unequal-motion-off"],
    )
    def test_factorized_trace_matches_the_branch_loop(self, params, dist_a, dist_b):
        assert max(dist_a.n_max, dist_b.n_max) <= 11
        t = np.linspace(0.0, 25.0, 9) / params.g
        factorized = oracle_joint_density(params, dist_a, dist_b, t).matrix
        assert np.max(np.abs(factorized - _reference_joint(params, dist_a, dist_b, t))) <= 1e-14


class TestJointDensity:
    def test_oracle_output_is_x_structured(self):
        rho = oracle_joint_density(
            SystemParams(delta=1.0), _dist(0.1), _dist(0.1), np.array([1.7, 4.2])
        )
        rho.validate()
        assert rho.max_off_x_magnitude() <= 1e-12

    def test_off_pattern_entry_is_reported_and_blocks_conversion(self):
        m = np.array(BELL_MATRIX)
        m[0, 3] = m[3, 0] = 0.1
        dirty = JointDensity(np.stack([BELL_MATRIX, m]))
        assert dirty.max_off_x_magnitude() == pytest.approx(0.1, abs=1e-15)
        with pytest.raises(ValueError):
            dirty.to_atomic()

    def test_rejects_non_hermitian(self):
        m = np.array(BELL_MATRIX)
        m[1, 2] = 0.5j  # conjugate partner left at 0.5
        with pytest.raises(ValueError):
            JointDensity(np.stack([BELL_MATRIX, m])).validate()

    def test_rejects_trace_loss(self):
        with pytest.raises(TruncationError, match="0.9"):
            JointDensity(np.stack([BELL_MATRIX, 0.9 * BELL_MATRIX])).validate()

    def test_rejects_indefinite_matrix(self):
        m = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            JointDensity(np.stack([BELL_MATRIX, m])).validate()

    @pytest.mark.parametrize("entry", [(0, 0), (1, 2), (3, 3)])
    def test_rejects_nan_at_any_time(self, entry):
        m = np.array(BELL_MATRIX)
        m[entry] = np.nan
        with pytest.raises((ValueError, TruncationError)):
            JointDensity(np.stack([BELL_MATRIX, BELL_MATRIX, m])).validate()

    def test_rejects_a_single_matrix(self):
        with pytest.raises(ValueError, match="times, 4, 4"):
            JointDensity(BELL_MATRIX).validate()

    def test_to_atomic_round_trips_the_elements(self):
        joint = oracle_joint_density(
            SystemParams(delta=1.0), _dist(0.1), _dist(0.1), np.array([1.7, 4.2])
        )
        atomic = joint.to_atomic()
        assert len(atomic) == 2
        for rho, matrix in zip(atomic, joint.matrix):
            np.testing.assert_allclose(x_matrix(rho), matrix, atol=1e-12)

    def test_one_point_view_is_the_grid_entry(self):
        params, dist = SystemParams(delta=1.0), _dist(0.1)
        grid = oracle_joint_density(params, dist, dist, np.array([0.4, 1.7]))
        point = oracle_density_matrix(params, dist, dist, 1.7)
        np.testing.assert_allclose(x_matrix(point), grid.matrix[1], atol=1e-15)


@pytest.fixture(scope="module")
def oracle_grid():
    # one off-resonant configuration probed densely; the full cross-validation
    # grid lives in the acceptance suite
    params = SystemParams(delta=1.0)
    dist = _dist(0.1)
    return oracle_joint_density(params, dist, dist, np.arange(0.0, 25.5, 0.5))


class TestOracleInvariants:

    def test_hermitian(self, oracle_grid):
        for rho in oracle_grid.matrix:
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12

    def test_trace_one(self, oracle_grid):
        for rho in oracle_grid.matrix:
            assert abs(np.trace(rho).real - 1.0) <= 1e-9

    def test_positive_semidefinite(self, oracle_grid):
        for rho in oracle_grid.matrix:
            assert np.min(np.linalg.eigvalsh(rho)) >= -1e-9

    def test_x_structure(self, oracle_grid):
        assert oracle_grid.max_off_x_magnitude() <= 1e-12

    def test_empty_grid(self):
        joint = oracle_joint_density(SystemParams(), _dist(0.1), _dist(0.1), np.array([]))
        assert joint.matrix.shape == (0, 4, 4)
        joint.validate()


class TestChunking:
    @pytest.mark.parametrize("chunk", [1, 7, 1 << 15])
    def test_chunk_size_does_not_change_the_grid(self, monkeypatch, chunk):
        params, dist_a, dist_b = SystemParams(delta=1.0), _dist(0.1), _dist(0.5)
        t = np.linspace(0.0, 25.0, 23)
        whole = oracle_joint_density(params, dist_a, dist_b, t).matrix
        # the budget is counted in propagator entries, 4 per sector and time
        monkeypatch.setattr("thermaljc.oracle._CHUNK_ELEMENTS", chunk * 4 * 26)
        chunked = oracle_joint_density(params, dist_a, dist_b, t).matrix
        np.testing.assert_array_equal(chunked, whole)

    @pytest.mark.parametrize("times", [1, 120])
    def test_memory_at_kbar_50_stays_within_the_chunk_budget(self, times):
        # one chunk holds at most _CHUNK_ELEMENTS propagator entries (16 bytes
        # each when complex); a handful of such arrays is alive at once, and
        # 120 unchunked times at N = 1395 would need 10.7 MB per array
        params, dist = SystemParams(delta=1.0), _dist(50.0)
        assert dist.n_max == 1395
        t = np.linspace(0.0, 25.0, times)
        tracemalloc.start()
        try:
            oracle_joint_density(params, dist, dist, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 16 * _CHUNK_ELEMENTS


# unequal cavities, a large cutoff, motion off and g != 1: the parts of the
# accepted input space the 18-configuration validation grid does not reach
WIDER_CASES = {
    "unequal-0.1-0.5": (SystemParams(delta=1.0), 0.1, 0.5),
    "unequal-0.5-0": (SystemParams(delta=1.0), 0.5, 0.0),
    "kbar-5": (SystemParams(delta=1.0), 5.0, 5.0),
    "motion-off": (SystemParams(delta=1.0, motion_enabled=False), 0.5, 0.5),
    "g-1.7-p-2": (SystemParams(g=1.7, p=2, delta=0.3), 0.5, 0.1),
}


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

    def test_empty_time_list_has_no_gap(self):
        assert max_route_deviation(SystemParams(), _dist(0.1), _dist(0.1), []) == 0.0

    @pytest.mark.parametrize("case", WIDER_CASES)
    def test_states_match_the_oracle_across_the_input_space(self, case):
        params, kbar, lbar = WIDER_CASES[case]
        dist_a, dist_b = _dist(kbar), _dist(lbar)
        t = np.linspace(0.0, 25.0, 50) / params.g
        assert max_route_deviation(params, dist_a, dist_b, t) <= ORACLE_TOL

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

    @pytest.mark.parametrize(
        "kwargs",
        [{"times": 0}, {"times": -5}, {"g": 0.0},
         # gt = 0 alone compares the initial Bell state with itself
         {"times": 1}, {"gt_max": 0.0}, {"gt_max": -1.0}, {"times": (1 << 22) + 1}],
    )
    def test_validation_grid_rejects_a_vacuous_or_invalid_grid(self, kwargs):
        with pytest.raises(ValueError):
            validation_grid(**{"gt_max": 2.0, "times": 3, **kwargs})

    def test_validation_result_failure_handling(self):
        good = ValidationResult(1, 0.1, 0.1, 0.0, 1e-12)
        bad = ValidationResult(1, 0.1, 0.1, 0.0, 1e-6)
        broken = ValidationResult(1, 5.0, 5.0, 0.0, math.inf, failure="tail")
        assert good.ok()
        assert not bad.ok()
        assert not broken.ok()
        assert bad.ok(tol=1e-3)


class TestIndependence:
    """The oracle forms g'(t) itself, so a wrong one in the closed form shows."""

    def test_a_wrong_closed_form_coupling_fails_validation(self, monkeypatch, capsys):
        def mutated(params, t):  # sin(p*g*t) where the half angle belongs
            t = np.asarray(t, dtype=float)
            with np.errstate(divide="ignore", invalid="ignore"):
                g_eff = np.where(
                    t > 0.0, 2.0 * np.sin(params.p * params.g * t) ** 2 / (params.p * t), 0.0
                )
            return float(g_eff) if g_eff.ndim == 0 else g_eff

        bound = [
            module for name, module in sys.modules.items()
            if name.split(".")[0] == "thermaljc"
            and getattr(module, "effective_coupling", None) is effective_coupling
        ]
        assert bound  # dynamics at least
        for module in bound:
            monkeypatch.setattr(module, "effective_coupling", mutated)
        dist = _dist(0.1)
        t = np.linspace(0.0, 25.0, 50)
        assert max_route_deviation(SystemParams(), dist, dist, t) > ORACLE_TOL
        assert cli_main(["validate", "--gt-max", "25"]) == 3
        assert capsys.readouterr().out.endswith(
            f"validate: FAILURES above (tolerance {ORACLE_TOL:g})\n"
        )


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
        general = wootters_concurrence_general(x_matrix(rho))
        assert abs(general - concurrence(rho)) <= 1e-10
