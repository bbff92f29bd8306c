"""Brute-force route: sector propagators, evolved basis states, the per-cavity
field trace, and the general concurrence used to cross-check the X-state
shortcut."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from thermaljc import (
    SystemParams,
    ThermalDistribution,
    TruncationError,
    XStates,
    density_matrix,
    states,
)
from thermaljc.core import DEFAULT_EPSILON_TAIL
from thermaljc.dynamics import effective_coupling
from thermaljc.oracle import (
    _CHUNK_ELEMENTS,
    ORACLE_TOL,
    _sector_exponential,
    evolve_basis,
    field_traced_channel,
    joint_x_states,
    max_route_deviation,
    oracle_density_matrix,
    oracle_joint_density,
    sector_hamiltonians,
    validation_times,
)
from thermaljc import cli, dynamics, oracle
from thermaljc.cli import main as cli_main

from helpers import (
    field_trace_by_photon_match,
    max_off_x_magnitude,
    wootters_concurrence_general,
    x_matrix,
)


def _dist(mean, epsilon_tail=1e-12):
    return ThermalDistribution.from_mean(mean, epsilon_tail)


BELL_MATRIX = np.zeros((4, 4), dtype=complex)
BELL_MATRIX[1:3, 1:3] = 0.5

G, E = 0, 1  # atomic level indices of evolve_basis; joint index is 2*a + b
BELL = {(E, G): 1.0 / math.sqrt(2.0), (G, E): 1.0 / math.sqrt(2.0)}


def _evolve(g_eff, delta, t, n_max):
    """evolve_basis at one coupling and one time: amp[a, n, l], photon[a, n, l]."""
    amp, photon = evolve_basis(np.array([g_eff]), delta, np.array([t]), 0, n_max + 1)
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
    return (evolve_basis(g_eff, params.delta, t, 0, dist_a.n_max + 1),
            evolve_basis(g_eff, params.delta, t, 0, dist_b.n_max + 1))


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


class TestSectorExponential:
    def test_hamiltonian_block(self):
        h = sector_hamiltonians(np.array([0.7]), 2.0, np.arange(4))[0, 3]
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
        for lo, hi in [(0, 0), (-1, 2), (3, 2)]:
            with pytest.raises(ValueError, match="0 <= lo < hi"):
                evolve_basis(np.array([1.0]), 0.0, np.array([1.0]), lo, hi)

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
        "g_eff, delta, t, n_max",
        [pytest.param(0.9, 1.3, 2.2, 6, id="0.9-1.3-2.2"),
         pytest.param(1.0, 0.0, 7.1, 6, id="1.0-0.0-7.1"),
         pytest.param(0.2, -4.0, 0.6, 6, id="0.2--4.0-0.6"),
         pytest.param(0.0, 0.0, 3.0, 6, id="omega-0"),  # the identity in every sector
         pytest.param(5.0, 1.0, 49.7, 30, id="large-phase"),  # omega*t up to about 1400
         pytest.param(0.05, 200.0, 2.9, 6, id="far-detuned"),  # omega*t about 290
         # omega and t far from 1 with omega*t of order 1
         pytest.param(1e-200, 2e-200, 3e199, 6, id="tiny-coupling-huge-time")],
    )
    def test_matches_the_dense_pair_propagator(self, g_eff, delta, t, n_max):
        # every evolved basis state equals its column of exp(-iHt) on the whole
        # truncated pair space, components outside the recorded two included
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

    def test_matches_a_dense_exponential_of_complex_blocks(self):
        # any traceless hermitian block, complex off-diagonal included, as a
        # time-ordered route would pass; omega*t from 1e-3 to 1e3, and omega = 0
        rng = np.random.default_rng(17)
        size = 2000
        h00 = rng.normal(size=size)
        h01 = rng.normal(size=size) + 1j * rng.normal(size=size)
        h00[:3] = h01[:3] = 0.0
        h = np.stack([np.stack([h00, h01], -1), np.stack([h01.conj(), -h00], -1)], -2)
        omega = np.hypot(h00, np.abs(h01))
        phase = 10.0 ** rng.uniform(-3.0, 3.0, size)
        t = phase / np.where(omega > 0.0, omega, 1.0)
        w, v = np.linalg.eigh(h)
        dense = np.einsum("sij,sj,skj->sik", v, np.exp(-1j * w * t[:, None]), v.conj())
        u = _sector_exponential(h, t)
        np.testing.assert_array_equal(u[:3], np.broadcast_to(np.eye(2), (3, 2, 2)))
        gap = np.max(np.abs(u - dense), axis=(1, 2))
        # both routes know omega to a few ulps, which moves the phase by about
        # omega*t*eps: 1e-13 up to omega*t = 28, and a few ulps of the phase
        # past it (measured at most about 5.5 eps*max(1, omega*t))
        bound = np.maximum(1e-13, 16.0 * np.finfo(float).eps * omega * t)
        assert np.all(gap <= bound)


class TestEvolvedAmplitudes:
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
        amp, _ = evolve_basis(np.full(t.size, 0.1), 5.0, t, 0, 1)
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


class TestEvolvedBasisStates:
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
        amp, photon = evolve_basis(np.full(t.size, 0.9), 1.3, t, 0, 6)
        n = np.arange(6)
        np.testing.assert_array_equal(photon[E], np.stack([n + 1, n], axis=1))
        np.testing.assert_array_equal(photon[G], np.stack([n, n - 1], axis=1))
        assert np.all(amp[:, G, 0, E] == 0.0)


class TestThermalBranches:
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
        factorized = oracle_joint_density(params, dist_a, dist_b, t)
        assert np.max(np.abs(factorized - _reference_joint(params, dist_a, dist_b, t))) <= 1e-14


class TestFieldTrace:
    """The weighted Gram product of :func:`field_traced_channel` against the
    sum that matches photon numbers at every n."""

    @pytest.mark.parametrize("lo, size", [(0, 1), (0, 26), (5, 9), (4096, 31)])
    @pytest.mark.parametrize("kept", [1, "all"])
    def test_matches_the_photon_match_sum(self, lo, size, kept):
        # slices from the vacuum on hold |g,0>'s empty excited slot (photon -1)
        rng = np.random.default_rng(lo + size)
        t = np.linspace(0.0, 9.0, 6)
        amp, photon = evolve_basis(np.full(t.size, 0.9), 1.3, t, lo, lo + size)
        k = size if kept == "all" else kept
        probs = rng.uniform(size=k)
        probs /= probs.sum()
        # random amplitudes of at most unit norm per basis state, and evolved ones
        noise = rng.uniform(size=amp.shape) * np.exp(2j * np.pi * rng.uniform(size=amp.shape))
        for a in (noise / math.sqrt(2.0), amp):
            gap = field_traced_channel(a, photon, probs) - field_trace_by_photon_match(a, photon, probs)
            assert np.max(np.abs(gap)) <= 1e-15
        if lo == 0:
            assert photon[G, 0, E] == -1

    def test_a_pairing_that_varies_with_n_is_refused(self):
        amp, photon = evolve_basis(np.array([0.9]), 1.3, np.array([2.0]), 0, 5)
        photon = photon.copy()
        photon[E, 3, G] += 1  # |e,3> would reach 5 photons where the rest reach n + 1
        for kept in (5, 3):
            with pytest.raises(ValueError, match="pair the levels alike at every n"):
                field_traced_channel(amp, photon, np.full(kept, 1.0 / kept))


class TestJointXStates:
    """The checks of :func:`joint_x_states` on (times, 4, 4) stacks: its own
    (shape, hermiticity, eigenvalues, X pattern), then the state check that
    the closed form runs too."""

    def test_oracle_output_is_x_structured(self):
        rho = oracle_joint_density(
            SystemParams(delta=1.0), _dist(0.1), _dist(0.1), np.array([1.7, 4.2])
        )
        joint_x_states(rho)
        assert max_off_x_magnitude(rho) <= 1e-12

    def test_off_pattern_entry_is_reported_and_blocks_conversion(self):
        m = np.array(BELL_MATRIX)
        m[0, 3] = m[3, 0] = 0.1
        dirty = np.stack([BELL_MATRIX, m])
        assert max_off_x_magnitude(dirty) == pytest.approx(0.1, abs=1e-15)
        with pytest.raises(ValueError):
            joint_x_states(dirty)

    def test_a_valid_state_off_the_x_pattern_is_refused(self):
        # positive (eigenvalues 0.25 +- 0.1) and of unit trace, but not X shaped
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 3] = m[3, 0] = 0.1
        with pytest.raises(ValueError, match="not X structured: off-pattern magnitude 1.000e-01"):
            joint_x_states(np.stack([BELL_MATRIX, m]))

    def test_rejects_non_hermitian(self):
        m = np.array(BELL_MATRIX)
        m[1, 2] = 0.5j  # conjugate partner left at 0.5
        with pytest.raises(ValueError):
            joint_x_states(np.stack([BELL_MATRIX, m]))

    def test_rejects_trace_loss(self):
        with pytest.raises(TruncationError) as raised:
            joint_x_states(np.stack([BELL_MATRIX, 0.9 * BELL_MATRIX]))
        assert str(raised.value) == (
            "reduced-state trace is 0.9; the Fock truncation is too coarse "
            "(decrease epsilon_tail)"
        )

    def test_rejects_indefinite_matrix(self):
        m = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError):
            joint_x_states(np.stack([BELL_MATRIX, m]))

    @pytest.mark.parametrize("entry", [(0, 0), (1, 2), (3, 3)])
    def test_rejects_nan_at_any_time(self, entry):
        m = np.array(BELL_MATRIX)
        m[entry] = np.nan
        with pytest.raises((ValueError, TruncationError)):
            joint_x_states(np.stack([BELL_MATRIX, BELL_MATRIX, m]))

    def test_rejects_a_single_matrix(self):
        with pytest.raises(ValueError, match="times, 4, 4"):
            joint_x_states(BELL_MATRIX)

    def test_joint_x_states_round_trips_the_elements(self):
        joint = oracle_joint_density(
            SystemParams(delta=1.0), _dist(0.1), _dist(0.1), np.array([1.7, 4.2])
        )
        grid = joint_x_states(joint)
        assert all(field.shape == (2,) for field in grid)
        for i, matrix in enumerate(joint):
            rho = XStates._make(field[i] for field in grid)
            np.testing.assert_allclose(x_matrix(rho), matrix, atol=1e-12)

    def test_one_point_view_is_the_grid_entry(self):
        params, dist = SystemParams(delta=1.0), _dist(0.1)
        grid = oracle_joint_density(params, dist, dist, np.array([0.4, 1.7]))
        point = oracle_density_matrix(params, dist, dist, 1.7)
        np.testing.assert_allclose(x_matrix(point), grid[1], atol=1e-15)


@pytest.mark.parametrize(
    "route",
    [lambda params, a, b, t: states(params, a, b, np.array([t])), oracle_density_matrix],
    ids=["states", "oracle_density_matrix"],
)
def test_both_routes_refuse_a_coarse_truncation_alike(route):
    # certified only to 0.5: fine for construction, fatal for the trace.  The
    # routes once named it "reduced-state" and "joint-state"; the trace itself
    # may differ in its last bit between them (gt 0.3: ...175 and ...164)
    coarse = ThermalDistribution(5.0, 0.5)
    with pytest.raises(TruncationError) as raised:
        route(SystemParams(), coarse, coarse, 1.0)
    match = re.fullmatch(
        r"reduced-state trace is (\S+); the Fock truncation is too coarse "
        r"\(decrease epsilon_tail\)",
        str(raised.value),
    )
    assert match is not None, str(raised.value)
    retained = float(np.sum(coarse.probabilities()))
    assert float(match[1]) == pytest.approx(retained * retained, rel=1e-15)


@pytest.mark.parametrize("bad", [-1e-300, math.nan])
def test_both_routes_refuse_a_bad_time_with_one_text(bad):
    params, dist = SystemParams(), _dist(0.1)
    t = np.array([0.5, bad])
    with pytest.raises(ValueError) as closed:
        states(params, dist, dist, t)
    with pytest.raises(ValueError) as oracle:
        oracle_joint_density(params, dist, dist, t)
    assert str(oracle.value) == str(closed.value) == f"time must be finite and >= 0, got {bad!r}"


@pytest.fixture(scope="module")
def oracle_grid():
    # one off-resonant configuration probed densely; the full cross-validation
    # grid lives in the acceptance suite
    params = SystemParams(delta=1.0)
    dist = _dist(0.1)
    return oracle_joint_density(params, dist, dist, np.arange(0.0, 25.5, 0.5))


class TestOracleInvariants:

    def test_hermitian(self, oracle_grid):
        for rho in oracle_grid:
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12

    def test_trace_one(self, oracle_grid):
        for rho in oracle_grid:
            assert abs(np.trace(rho).real - 1.0) <= 1e-9

    def test_positive_semidefinite(self, oracle_grid):
        for rho in oracle_grid:
            assert np.min(np.linalg.eigvalsh(rho)) >= -1e-9

    def test_x_structure(self, oracle_grid):
        assert max_off_x_magnitude(oracle_grid) <= 1e-12

    def test_empty_grid(self):
        joint = oracle_joint_density(SystemParams(), _dist(0.1), _dist(0.1), np.array([]))
        assert joint.shape == (0, 4, 4)
        joint_x_states(joint)


class TestChunking:
    @pytest.mark.parametrize("chunk", [1, 7, 1 << 15])
    def test_chunk_size_does_not_change_the_grid(self, monkeypatch, chunk):
        params, dist_a, dist_b = SystemParams(delta=1.0), _dist(0.1), _dist(0.5)
        t = np.linspace(0.0, 25.0, 23)
        whole = oracle_joint_density(params, dist_a, dist_b, t)
        # the budget is counted in propagator entries, 4 per sector and time
        monkeypatch.setattr("thermaljc.oracle._CHUNK_ELEMENTS", chunk * 4 * 26)
        chunked = oracle_joint_density(params, dist_a, dist_b, t)
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

    @pytest.mark.parametrize("block", [1, 5, 1 << 12])
    def test_a_time_is_bit_identical_in_any_grid_with_sector_blocks(self, monkeypatch, block):
        # cavities of N = 11 and 25 cut into slices of ``block`` photon numbers,
        # so that the narrower one skips the last slices
        params, dist_a, dist_b = SystemParams(delta=1.0), _dist(0.1), _dist(0.5)
        t = np.linspace(0.0, 25.0, 23)
        whole = oracle_joint_density(params, dist_a, dist_b, t)
        monkeypatch.setattr("thermaljc.oracle._SECTOR_BLOCK", block)
        blocked = oracle_joint_density(params, dist_a, dist_b, t)
        alone = [oracle_joint_density(params, dist_a, dist_b, t[i : i + 1]) for i in range(t.size)]
        np.testing.assert_array_equal(np.concatenate(alone), blocked)
        monkeypatch.setattr("thermaljc.oracle._CHUNK_ELEMENTS", 7 * 4 * (min(block, 26) + 1))
        np.testing.assert_array_equal(oracle_joint_density(params, dist_a, dist_b, t), blocked)
        # the slices reorder the thermal sums, which moves the state by rounding only
        assert np.max(np.abs(blocked - whole)) <= 1e-15

    def test_memory_per_time_is_set_by_the_sector_block(self):
        # one time used to peak at 8.8 MiB at kbar 1e3 and 84.7 MiB at kbar 1e4
        params, t = SystemParams(delta=1.0), np.array([3.7])
        sizes, peaks = [], []
        for mean in (1e3, 1e4):
            dist = _dist(mean)
            tracemalloc.start()
            try:
                oracle_joint_density(params, dist, dist, t)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            sizes.append(dist.n_max)
        assert sizes == [27644, 276324]
        assert max(peaks) <= 6_000_000
        # past one slice, only the probability vector grows with N: two floats
        # per photon number while it is formed
        assert peaks[1] - peaks[0] <= 16 * (sizes[1] - sizes[0])

    def test_many_slices_match_the_closed_form(self):
        # seven slices at kbar 1e3 (N = 27 644)
        params, dist = SystemParams(delta=1.0), _dist(1e3)
        assert max_route_deviation(params, dist, dist, [0.9, 3.7]) <= ORACLE_TOL


class TestBlasThreads:
    def test_bytes_do_not_depend_on_the_blas_thread_count(self):
        # the field trace and the Bell assembly go through np.matmul, and so
        # through BLAS; one grid at kbar 50 and 0.5 (N = 1395 and 25), then a
        # per-delta call whose Bell product spans two pairs at p 1 and 4
        script = (
            "import hashlib, numpy as np\n"
            "from thermaljc import SystemParams, ThermalDistribution\n"
            "from thermaljc.oracle import oracle_joint_density, stacked_joint_density\n"
            "hot, warm = ThermalDistribution.from_mean(50.0), ThermalDistribution.from_mean(0.5)\n"
            "t = np.linspace(0.0, 25.0, 200)\n"
            "rho = oracle_joint_density(SystemParams(delta=1.0), hot, warm, t)\n"
            "configs = [(SystemParams(p=p, delta=1.0), a, b)\n"
            "           for p in (1, 4) for a, b in ((hot, warm), (warm, warm))]\n"
            "digest = hashlib.sha256(rho.tobytes())\n"
            "digest.update(stacked_joint_density(configs, t).tobytes())\n"
            "print(digest.hexdigest())\n"
        )
        src = str(Path(dynamics.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            run = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, timeout=120, check=True)
            digests.append(run.stdout)
        assert len(digests[0]) == 65
        assert digests[0] == digests[1]


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

    @pytest.mark.parametrize("delta", [0.0, 1.0])
    def test_early_populations_agree_relatively_with_motion_on(self, delta):
        # x1 grows as (g't)^2, 5.6e-49 at t = 1e-12, where a g'(t) formed as
        # (1 - cos)/(pt) is 0 and costs 2e-4 relative at t = 1e-6
        params, t = SystemParams(delta=delta), np.array([1e-12, 1e-8, 1e-6, 1e-3])
        dist_a, dist_b = _dist(0.5), _dist(2.0)
        closed = states(params, dist_a, dist_b, t).x1
        brute = oracle_joint_density(params, dist_a, dist_b, t)[:, 0, 0].real
        assert closed[0] == pytest.approx(5.625e-49, rel=1e-12)
        assert np.all(np.abs(brute / closed - 1.0) <= 2e-15), brute / closed - 1.0

    def test_validation_grid_covers_all_configurations(self, capsys):
        assert cli_main(["validate", "--gt-max", "2", "--times", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 19
        assert all(line.endswith(" ok") for line in lines[:18])
        fields = [dict(f.split("=") for f in line.split()[:4]) for line in lines[:18]]
        assert all(f["lbar"] == f["kbar"] for f in fields)
        assert {(int(f["p"]), float(f["kbar"]), float(f["delta"])) for f in fields} == {
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
        kwargs = {"gt_max": 2.0, "times": 3, **kwargs}
        with pytest.raises(ValueError):
            validation_times(SystemParams(g=kwargs.pop("g", 1.0)), **kwargs)

    def test_validation_result_failure_handling(self, monkeypatch, capsys):
        for deviation, verdict in ((1e-12, "ok"), (1e-6, "FAILED"),
                                   (math.nan, "FAILED"), (math.inf, "FAILED")):
            monkeypatch.setattr(oracle, "route_deviations",
                                lambda configs, *args: np.full(len(configs), deviation))
            rc = cli_main(["validate", "--kbar", "0.1", "--times", "2"])
            assert capsys.readouterr().out == (
                f"p=1 kbar=0.1 lbar=0.1 delta=0.0 max_deviation={deviation:.3e} {verdict}\n"
            )
            assert rc == (0 if verdict == "ok" else 3)

        def broken(*args):
            raise TruncationError("tail")

        monkeypatch.setattr(oracle, "route_deviations", broken)
        assert cli_main(["validate", "--times", "2"]) == 3  # grid mode: every line FAILED
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 19
        assert all(line.endswith(" FAILED (tail)") for line in lines[:18])
        assert lines[-1] == "validate: FAILURES above (tolerance 1e-09)"
        assert cli_main(["validate", "--kbar", "0.1", "--times", "2"]) == 3  # single mode
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "validation failure: tail\n")


def _validate_grid(times=50):
    """The configurations and times of ``validate --gt-max 25``."""
    resolved = {"g": 1.0, "motion": True, "epsilon_tail": DEFAULT_EPSILON_TAIL,
                **cli._VALIDATE_GRID}
    configs = cli._scan_configs(resolved)
    return configs, validation_times(configs[0][0], 25.0, times)


def _assert_rows_alone(configs, t):
    """Both routes' stacked rows of ``configs`` equal each configuration's own
    call, bit for bit."""
    closed = dynamics.stacked_states(configs, t)
    brute = oracle.stacked_joint_density(configs, t)
    for j, config in enumerate(configs):
        rows = slice(j * t.size, (j + 1) * t.size)
        for name, stacked, x in zip(XStates._fields, closed, states(*config, t)):
            assert stacked[rows].tobytes() == x.tobytes(), (config, name)
        assert brute[rows].tobytes() == oracle_joint_density(*config, t).tobytes(), config


class TestStackedRoutes:
    """validate stacks its configurations, whatever their delta, into calls of
    each route of up to oracle._STACK_ROWS rows."""

    def test_stacked_rows_are_each_configuration_alone_bit_for_bit(self):
        configs, t = _validate_grid()
        assert len(configs) == 18 and len({params.delta for params, _, _ in configs}) == 3
        _assert_rows_alone(configs, t)

    @pytest.mark.parametrize("delta", [0.0, 1.0])
    def test_a_cavity_in_an_unequal_and_an_equal_pair_keeps_each_pairs_bits(self, delta):
        # 0.5 is cavity A of an unequal pair, whose sums are cut at both
        # cutoffs, and both cavities of an equal pair; 0.1 likewise
        t = np.linspace(0.0, 25.0, 50)
        configs = [(SystemParams(p=p, delta=delta), _dist(a), _dist(b))
                   for p in (1, 4) for a, b in ((0.5, 0.1), (0.5, 0.5), (0.1, 0.1))]
        _assert_rows_alone(configs, t)
        _assert_rows_alone(configs[::-1], t)

    def test_deviations_are_those_of_each_configuration_alone(self):
        configs, t = _validate_grid()
        alone = [max_route_deviation(params, dist_a, dist_b, t)
                 for params, dist_a, dist_b in configs]
        assert oracle.config_deviations(configs, t) == alone

    def test_each_distribution_forms_its_probabilities_once_per_route_call(self, monkeypatch):
        # a distribution shared by pairs, or by p-values, is formed once per
        # call of each route, not once per pair or per params
        calls = []
        probabilities = ThermalDistribution.probabilities

        def counted(dist):
            calls.append(dist)
            return probabilities(dist)

        monkeypatch.setattr(ThermalDistribution, "probabilities", counted)
        grid, t = _validate_grid()
        mixed = [(SystemParams(p=p, delta=1.0), _dist(a), _dist(b))
                 for p in (1, 4) for a, b in ((0.5, 0.1), (0.5, 0.5), (0.1, 0.1))]
        for configs in (grid, mixed):
            distinct = {dist for _, *pair in configs for dist in pair}
            for stacked in (dynamics.stacked_states, oracle.stacked_joint_density):
                calls.clear()
                stacked(configs, t)
                assert Counter(calls) == dict.fromkeys(distinct, 1)
        calls.clear()
        assert cli_main(["validate", "--gt-max", "25"]) == 0
        assert len(calls) == 2 * 3  # per route, kbar 0, 0.1 and 0.5

    def test_any_mix_of_delta_keeps_each_configurations_bits(self):
        # resonant, detuned and subnormal-squared delta, motion on and off,
        # equal and unequal pairs: 3000 rows in two bands of one worker, so
        # that, in the reversed order, resonant rows reuse detuned rows' sums
        t = np.linspace(0.0, 25.0, 100)
        configs = [(SystemParams(p=4, delta=delta, motion_enabled=motion), _dist(a), _dist(b))
                   for delta in (0.0, 1.0, 5.0, -2.0, 1e-160) for motion in (True, False)
                   for a, b in ((0.5, 0.1), (0.1, 0.1), (0.1, 0.5))]
        _assert_rows_alone(configs, t)
        _assert_rows_alone(configs[::-1], t)

    def test_an_empty_list_is_refused_alike_by_both_routes(self):
        for stacked in (dynamics.stacked_states, oracle.stacked_joint_density):
            with pytest.raises(ValueError, match="^stacked routes need at least one configuration$"):
                stacked([], np.linspace(0.0, 2.0, 3))

    def test_the_grid_makes_one_call_within_the_row_budget(self, monkeypatch, capsys):
        sizes = []
        route_deviations = oracle.route_deviations

        def spy(configs, *args):
            sizes.append(len(configs))
            return route_deviations(configs, *args)

        monkeypatch.setattr(oracle, "route_deviations", spy)
        assert cli_main(["validate", "--gt-max", "25"]) == 0
        assert sizes == [18]
        sizes.clear()
        # two configurations of 513 times pass the 1024-row budget
        assert cli_main(["validate", "--gt-max", "25", "--times", "513"]) == 0
        assert sizes == [1] * 18
        assert capsys.readouterr().out.count(" ok\n") == 36

    def test_past_the_row_budget_the_peak_does_not_grow_with_the_p_values(self):
        dist, t, peaks = _dist(0.5), np.linspace(0.0, 25.0, 1025), []
        for count in (1, 2, 4, 8):
            configs = [(SystemParams(p=p, delta=1.0), dist, dist) for p in range(1, count + 1)]
            oracle.config_deviations(configs, t)  # warm caches
            tracemalloc.start()
            try:
                oracle.config_deviations(configs, t)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # 2.02 MB at each count: the kernel's workspace and one configuration
        assert max(peaks) - min(peaks) <= 4096, peaks

    @pytest.mark.parametrize("failure", ["nan-coupling", "truncation", "wrong-coupling"])
    def test_a_failing_configuration_reads_as_it_does_alone(self, monkeypatch, capsys, failure):
        # p = 4 fails in every group, p = 1 does not; a budget of one row
        # runs every configuration alone, as before stacking
        coupling, check = dynamics._coupling, dynamics.check_x_states

        def mutated(params, t):
            scale = {"wrong-coupling": 1.001}.get(failure, math.nan)
            return coupling(params, t) * (scale if params.p == 4 else 1.0)

        def check_trace(state):
            if np.isnan(state.x1).any():
                raise TruncationError("trace is nan")
            check(state)

        monkeypatch.setattr(dynamics, "_coupling", mutated)
        if failure == "truncation":
            monkeypatch.setattr(dynamics, "check_x_states", check_trace)
        outputs = []
        for budget in (oracle._STACK_ROWS, 1):
            monkeypatch.setattr(oracle, "_STACK_ROWS", budget)
            assert cli_main(["validate", "--gt-max", "25"]) == 3
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        lines = outputs[0].splitlines()
        assert [line.endswith(" ok") for line in lines[:18]] == [True] * 9 + [False] * 9
        reason = {"nan-coupling": "FAILED (populations outside [0, 1]: (nan, nan, nan, nan))",
                  "truncation": "FAILED (trace is nan)"}.get(failure, "FAILED")
        assert all(line.endswith(" " + reason) for line in lines[9:18])
        assert lines[-1] == f"validate: FAILURES above (tolerance {ORACLE_TOL:g})"


class TestIndependence:
    """The oracle forms g'(t) and the sector frequencies itself, so a wrong one
    in the closed form shows."""

    def test_a_wrong_closed_form_coupling_fails_validation(self, monkeypatch, capsys):
        def mutated(params, t):  # sin(p*g*t) where the half angle belongs
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.where(
                    t > 0.0, 2.0 * np.sin(params.p * params.g * t) ** 2 / (params.p * t), 0.0
                )

        # the formula the kernel's bands evaluate; effective_coupling checks
        # the times and calls it too
        monkeypatch.setattr(dynamics, "_coupling", mutated)
        dist = _dist(0.1)
        t = np.linspace(0.0, 25.0, 50)
        assert max_route_deviation(SystemParams(), dist, dist, t) > ORACLE_TOL
        assert cli_main(["validate", "--gt-max", "25"]) == 3
        assert capsys.readouterr().out.endswith(
            f"validate: FAILURES above (tolerance {ORACLE_TOL:g})\n"
        )

    def test_a_wrong_closed_form_sector_frequency_fails_validation(self, monkeypatch, capsys):
        # both routes take trig of the sector frequency times t; the oracle
        # forms its own, so a phase off by one part in 1e6 shows
        factors = dynamics._factors

        def mutated(ws, g4, quarter_t, n, delta):
            factors(ws, g4, quarter_t * (1.0 + 1e-6), n, delta)

        monkeypatch.setattr(dynamics, "_factors", mutated)
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
