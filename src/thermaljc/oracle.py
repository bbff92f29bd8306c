"""Brute-force verification route for the closed-form solution.

Every thermal branch of the initial mixture is propagated exactly: the
excitation-number sectors are diagonalized numerically, each pure branch is
evolved amplitude by amplitude in the truncated joint Fock space, and the
cavities are traced out explicitly.  No factorized-sum identities from the
closed form are reused, so agreement between the two routes checks the
algebra rather than restating it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    TRACE_TOL,
    AtomicDensityMatrix,
    SystemParams,
    ThermalDistribution,
    TruncationError,
    thermal_probability,
)
from .dynamics import effective_coupling, states

ORACLE_TOL = 1e-9
X_STRUCTURE_TOL = 1e-12
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)

# joint atomic basis order (|gg>, |ge>, |eg>, |ee>); A is the first letter
_ATOM_INDEX = {("g", "g"): 0, ("g", "e"): 1, ("e", "g"): 2, ("e", "e"): 3}

Entry = tuple[str, int, complex]  # (atom level, photon number, amplitude)


def sector_hamiltonian(g_eff: float, delta: float, n: int) -> np.ndarray:
    """Traceless block on the sector span {|e,n>, |g,n+1>}; the common sector
    energy is a global phase that cancels in every reduced matrix element."""
    off = g_eff * math.sqrt(n + 1)
    return np.array([[0.5 * delta, off], [off, -0.5 * delta]])


def sector_propagator(g_eff: float, delta: float, n: int, t: float) -> np.ndarray:
    """Exact 2x2 propagator of one sector, by numerical diagonalization."""
    if n < 0:
        raise ValueError(f"sector index must be >= 0, got {n}")
    w, v = np.linalg.eigh(sector_hamiltonian(g_eff, delta, n))
    return (v * np.exp(-1j * w * t)) @ v.T


def evolve_sector(
    g_eff: float, delta: float, n: int, t: float, amplitudes: Sequence[complex]
) -> tuple[complex, complex]:
    """Evolve amplitudes over {|e,n>, |g,n+1>} for time t."""
    a = np.asarray(amplitudes, dtype=complex)
    if a.shape != (2,):
        raise ValueError("amplitudes must be a pair (on |e,n> and |g,n+1>)")
    out = sector_propagator(g_eff, delta, n, t) @ a
    return complex(out[0]), complex(out[1])


def _sector_propagators(g_eff: float, delta: float, t: float, count: int) -> np.ndarray:
    """Propagators of sectors 0 .. count-1, stacked, via batched eigh."""
    off = g_eff * np.sqrt(np.arange(1, count + 1, dtype=float))
    h = np.zeros((count, 2, 2))
    h[:, 0, 0] = 0.5 * delta
    h[:, 1, 1] = -0.5 * delta
    h[:, 0, 1] = off
    h[:, 1, 0] = off
    w, v = np.linalg.eigh(h)
    return np.einsum("sij,sj,skj->sik", v, np.exp(-1j * w * t), v)


def _evolved_entries(props: np.ndarray, delta: float, t: float, atom: str, n: int) -> tuple[Entry, ...]:
    """Amplitude list for the evolved basis state |atom, n> of one pair."""
    if atom == "e":
        u = props[n]
        return (("e", n, complex(u[0, 0])), ("g", n + 1, complex(u[1, 0])))
    if atom == "g":
        if n == 0:
            # one-dimensional sector: pure phase relative to the sector energy
            return (("g", 0, complex(np.exp(0.5j * delta * t))),)
        u = props[n - 1]
        return (("e", n - 1, complex(u[0, 1])), ("g", n, complex(u[1, 1])))
    raise ValueError(f"atom level must be 'g' or 'e', got {atom!r}")


@dataclass(frozen=True)
class SubsystemState:
    """Amplitudes of one atom-cavity pair over {|g,n>, |e,n>}."""

    ground: np.ndarray
    excited: np.ndarray

    def norm(self) -> float:
        return math.sqrt(
            float(np.sum(np.abs(self.ground) ** 2) + np.sum(np.abs(self.excited) ** 2))
        )


def evolve_subsystem(
    g_eff: float, delta: float, atom: str, n: int, t: float, size: int
) -> SubsystemState:
    """Evolve the basis state |atom, n> of a single pair; ``size`` sets the
    photon slots (at least n + 2 so the emitted photon fits)."""
    if size < n + 2:
        raise ValueError(f"size {size} cannot hold photon number {n + 1}")
    props = _sector_propagators(g_eff, delta, t, n + 1)
    ground = np.zeros(size, dtype=complex)
    excited = np.zeros(size, dtype=complex)
    for level, photon, amplitude in _evolved_entries(props, delta, t, atom, n):
        if level == "g":
            ground[photon] += amplitude
        else:
            excited[photon] += amplitude
    return SubsystemState(ground, excited)


def _product_components(
    entries_a: Iterable[Entry], entries_b: Iterable[Entry], scale: complex
) -> Iterator[tuple[str, str, int, int, complex]]:
    for level_a, photon_a, amp_a in entries_a:
        for level_b, photon_b, amp_b in entries_b:
            yield level_a, level_b, photon_a, photon_b, scale * amp_a * amp_b


def _reduce_over_fields(
    components: Iterable[tuple[str, str, int, int, complex]]
) -> np.ndarray:
    """Trace the cavities out of a pure joint state given as sparse amplitudes."""
    buckets: dict[tuple[int, int], np.ndarray] = {}
    for level_a, level_b, photon_a, photon_b, amplitude in components:
        vec = buckets.get((photon_a, photon_b))
        if vec is None:
            vec = np.zeros(4, dtype=complex)
            buckets[(photon_a, photon_b)] = vec
        vec[_ATOM_INDEX[(level_a, level_b)]] += amplitude
    psi = np.column_stack(list(buckets.values()))
    return psi @ psi.conj().T


def evolve_product_branch(
    params: SystemParams,
    dist_a: ThermalDistribution,
    dist_b: ThermalDistribution,
    n: int,
    m: int,
    atom_a: str,
    atom_b: str,
    t: float,
) -> np.ndarray:
    """Field-traced 4x4 contribution of the product branch |atom_a,n; atom_b,m>,
    weighted by its thermal probability P_n * P_m."""
    g_eff = effective_coupling(params, t)
    props = _sector_propagators(g_eff, params.delta, t, max(n, m) + 1)
    entries_a = _evolved_entries(props, params.delta, t, atom_a, n)
    entries_b = _evolved_entries(props, params.delta, t, atom_b, m)
    weight = thermal_probability(dist_a, n) * thermal_probability(dist_b, m)
    return weight * _reduce_over_fields(_product_components(entries_a, entries_b, 1.0))


def _bell_branch_reduced(
    evolved_e: Sequence[tuple[Entry, ...]],
    evolved_g: Sequence[tuple[Entry, ...]],
    n: int,
    m: int,
) -> np.ndarray:
    """Field trace of the evolved branch (|e,n;g,m> + |g,n;e,m>)/sqrt(2)."""

    def components() -> Iterator[tuple[str, str, int, int, complex]]:
        yield from _product_components(evolved_e[n], evolved_g[m], _INV_SQRT2)
        yield from _product_components(evolved_g[n], evolved_e[m], _INV_SQRT2)

    return _reduce_over_fields(components())


def evolve_bell_branch(
    params: SystemParams,
    dist_a: ThermalDistribution,
    dist_b: ThermalDistribution,
    n: int,
    m: int,
    t: float,
) -> np.ndarray:
    """Field-traced 4x4 contribution of one entangled thermal branch, cross
    terms between its two components included, weighted by P_n * P_m."""
    g_eff = effective_coupling(params, t)
    count = max(n, m) + 1
    props = _sector_propagators(g_eff, params.delta, t, count)
    evolved_e = [_evolved_entries(props, params.delta, t, "e", k) for k in range(count)]
    evolved_g = [_evolved_entries(props, params.delta, t, "g", k) for k in range(count)]
    weight = thermal_probability(dist_a, n) * thermal_probability(dist_b, m)
    return weight * _bell_branch_reduced(evolved_e, evolved_g, n, m)


def evolve_branch(
    params: SystemParams,
    dist_a: ThermalDistribution,
    dist_b: ThermalDistribution,
    n: int,
    m: int,
    t: float,
    atom_a: str | None = None,
    atom_b: str | None = None,
) -> np.ndarray:
    """Field-traced 4x4 contribution of one thermal branch (n, m).

    With atom levels given, the branch is the product state |atom_a,n;atom_b,m>;
    without them it is the entangled branch (|e,n;g,m> + |g,n;e,m>)/sqrt(2)
    including its two coherence cross terms.  Either way the contribution is
    weighted by P_n * P_m.
    """
    if (atom_a is None) != (atom_b is None):
        raise ValueError("give both atom levels or neither")
    if atom_a is None:
        return evolve_bell_branch(params, dist_a, dist_b, n, m, t)
    return evolve_product_branch(params, dist_a, dist_b, n, m, atom_a, atom_b, t)


@dataclass(frozen=True)
class JointDensity:
    """4x4 two-atom density matrix accumulated from field-traced branches."""

    matrix: np.ndarray

    def max_off_x_magnitude(self) -> float:
        """Largest entry outside the X pattern (diagonal plus the anti-diagonal
        coherence pair); exactly zero for the model's symmetric initial state."""
        mask = np.ones((4, 4), dtype=bool)
        for i, j in ((0, 0), (1, 1), (2, 2), (3, 3), (1, 2), (2, 1)):
            mask[i, j] = False
        return float(np.max(np.abs(self.matrix[mask])))

    def validate(self, trace_tol: float = TRACE_TOL) -> None:
        m = self.matrix
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        if float(np.max(np.abs(m - m.conj().T))) > 1e-12:
            raise ValueError("accumulated state is not hermitian")
        trace = float(np.real(np.trace(m)))
        if abs(trace - 1.0) > trace_tol:
            raise TruncationError(
                f"joint-state trace is {trace!r}; the Fock truncation is too coarse"
            )
        if float(np.min(np.linalg.eigvalsh(m))) < -trace_tol:
            raise ValueError("accumulated state has a negative eigenvalue")

    def to_atomic(self, trace_tol: float = TRACE_TOL) -> AtomicDensityMatrix:
        self.validate(trace_tol)
        if self.max_off_x_magnitude() > X_STRUCTURE_TOL:
            raise ValueError(
                f"state is not X structured: off-pattern magnitude "
                f"{self.max_off_x_magnitude():.3e}"
            )
        m = self.matrix
        return AtomicDensityMatrix(
            float(m[0, 0].real),
            float(m[1, 1].real),
            complex(m[1, 2]),
            float(m[2, 2].real),
            float(m[3, 3].real),
        )


def oracle_joint_density(
    params: SystemParams,
    dist_a: ThermalDistribution,
    dist_b: ThermalDistribution,
    t: float,
) -> JointDensity:
    """Accumulate the full reduced state branch by branch in a fixed order."""
    g_eff = effective_coupling(params, t)
    count = max(dist_a.n_max, dist_b.n_max) + 1
    props = _sector_propagators(g_eff, params.delta, t, count)
    evolved_e = [_evolved_entries(props, params.delta, t, "e", k) for k in range(count)]
    evolved_g = [_evolved_entries(props, params.delta, t, "g", k) for k in range(count)]
    probs_a = dist_a.probabilities()
    probs_b = dist_b.probabilities()
    rho = np.zeros((4, 4), dtype=complex)
    for n in range(dist_a.n_max + 1):
        for m in range(dist_b.n_max + 1):
            rho += (probs_a[n] * probs_b[m]) * _bell_branch_reduced(
                evolved_e, evolved_g, n, m
            )
    return JointDensity(rho)


def oracle_density_matrix(
    params: SystemParams,
    dist_a: ThermalDistribution,
    dist_b: ThermalDistribution,
    t: float,
) -> AtomicDensityMatrix:
    """Brute-force reduced state, validated and converted to the X container."""
    return oracle_joint_density(params, dist_a, dist_b, t).to_atomic()


def wootters_concurrence_general(rho: np.ndarray) -> float:
    """Concurrence of an arbitrary two-qubit density matrix from the spin-flip
    spectrum: max{0, l1 - l2 - l3 - l4} with l_i the decreasing square roots of
    the eigenvalues of rho * (sy x sy) * conj(rho) * (sy x sy).

    The roots are computed as the singular values of R^T (sy x sy) R for a
    factor rho = R R†: the product above is similar to the Gram matrix of that
    kernel, and singular values carry absolute (not square-root-amplified)
    rounding error, which keeps near-zero roots at machine accuracy.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    if float(np.max(np.abs(rho - rho.conj().T))) > 1e-10:
        raise ValueError("density matrix must be hermitian")
    lam, vec = np.linalg.eigh(rho)
    # eigenvalues below the solver's backward-error floor are rounding residue
    # of exact zeros; keeping them would seed spurious factor columns
    lam = np.where(lam > 64.0 * np.finfo(float).eps * float(lam[-1]), lam, 0.0)
    factor = vec * np.sqrt(lam)
    roots = np.linalg.svd(factor.T @ _SPIN_FLIP @ factor, compute_uv=False)
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of one closed-form-versus-brute-force comparison."""

    p: int
    mean_a: float
    mean_b: float
    delta: float
    max_deviation: float
    failure: str | None = None

    def ok(self, tol: float = ORACLE_TOL) -> bool:
        return self.failure is None and self.max_deviation <= tol


def max_route_deviation(
    params: SystemParams,
    dist_a: ThermalDistribution,
    dist_b: ThermalDistribution,
    times: Iterable[float],
) -> float:
    """Largest elementwise gap between the closed form and the brute force.

    The closed form takes all times in one grid; the brute force runs time by
    time."""
    times = np.fromiter(times, dtype=float)
    closed = states(params, dist_a, dist_b, times)
    worst = 0.0
    for i, t in enumerate(times):
        brute = oracle_joint_density(params, dist_a, dist_b, float(t)).matrix
        worst = max(worst, float(np.max(np.abs(closed.at(i).to_matrix() - brute))))
    return worst


DEFAULT_GRID_P = (1, 4)
DEFAULT_GRID_MEANS = (0.0, 0.1, 0.5)
DEFAULT_GRID_DELTAS = (0.0, 1.0, 5.0)


def validation_grid(
    gt_max: float = 25.0,
    times: int = 50,
    epsilon_tail: float = 1e-12,
    g: float = 1.0,
    motion_enabled: bool = True,
) -> list[ValidationResult]:
    """Run the default cross-validation grid and report one result per setting.

    A bad ``times`` or ``g`` raises ValueError before any comparison runs; a
    setting that fails on its own is reported as a failed result."""
    if times < 1:
        raise ValueError(f"times must be >= 1, got {times}")
    base = SystemParams(g=g, motion_enabled=motion_enabled)
    sample_times = np.linspace(0.0, gt_max, times) / g
    results = []
    for p in DEFAULT_GRID_P:
        for mean in DEFAULT_GRID_MEANS:
            for delta in DEFAULT_GRID_DELTAS:
                params = replace(base, delta=delta, p=p)
                try:
                    dist = ThermalDistribution.from_mean(mean, epsilon_tail)
                    deviation = max_route_deviation(params, dist, dist, sample_times)
                    results.append(ValidationResult(p, mean, mean, delta, deviation))
                except (TruncationError, ValueError) as exc:
                    results.append(
                        ValidationResult(p, mean, mean, delta, math.inf, failure=str(exc))
                    )
    return results
