"""Brute-force verification route for the closed-form solution.

Each atom-cavity pair is evolved on its own.  Every basis state |a, n> of the
pair is propagated at every time of the grid through its excitation sector,
whose 2x2 block is diagonalized numerically.  Tracing the cavity out of the
evolved states gives one channel per pair, a 2x2 block for each pair (a, a')
of initial atomic levels:

    M_aa'[l, l'] = sum_n P_n sum_f <l,f|U|a,n> <a',n|U^dag|l',f>.

The two cavities are independent, so the thermal double sum over (n, m) of
the two-atom state factorizes into one such sum per cavity.  For the Bell
input (|eg> + |ge>)/sqrt(2) the field-traced state is

    rho = 1/2 sum M_A[a, a'] (x) M_B[b, b'] over (ab), (a'b') in {eg, ge}.

This is the generic partial trace of a product of two channels.  No dressed
state, angle, factorized-sum identity or g'(t) of the closed form is reused
(the closed form is imported only to be compared), so agreement between the
two routes checks the algebra rather than restating it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .core import (
    MAX_POINTS,
    TRACE_TOL,
    AtomicDensityMatrix,
    SystemParams,
    ThermalDistribution,
    TruncationError,
)
from .dynamics import states

ORACLE_TOL = 1e-9
X_STRUCTURE_TOL = 1e-12
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)

# atomic level indices; the joint basis (|gg>, |ge>, |eg>, |ee>) has index
# 2*a + b, with atom A the first letter
_G, _E = 0, 1
_X_PATTERN = np.eye(4, dtype=bool)
_X_PATTERN[1, 2] = _X_PATTERN[2, 1] = True

# Entries of one (times x sectors x 2 x 2) propagator stack.  It bounds the
# working memory for any grid length and cutoff while keeping numpy's
# per-call overhead small next to the arithmetic.
_CHUNK_ELEMENTS = 1 << 15


def _mean_coupling(params: SystemParams, t: np.ndarray) -> np.ndarray:
    """The paper's g'(t) = (1 - cos(p*g*t))/(p*t), the average of g*sin(p*g*tau)
    over [0, t] and 0 at t = 0, or g with motion off.

    The oracle's own formula: a wrong g'(t) in the closed form does not enter
    both routes alike.  1 - cos cancels near t = 0 and at the revivals, which
    costs about 1e-16 in the pulse area g'*t, what the state depends on at
    delta = 0."""
    valid = np.isfinite(t) & (t >= 0.0)
    if not valid.all():
        raise ValueError(f"time must be finite and >= 0, got {float(t[~valid][0])!r}")
    if not params.motion_enabled:
        return np.full(t.shape, params.g)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(t > 0.0, (1.0 - np.cos(params.p * params.g * t)) / (params.p * t), 0.0)


def sector_hamiltonians(g_eff: np.ndarray, delta: float, count: int) -> np.ndarray:
    """Blocks of sectors 0 .. count-1 at each coupling, shape (times, count, 2, 2).

    Sector n spans {|e,n>, |g,n+1>}.  Each block is traceless: the common
    sector energy is a phase that cancels in every field-traced element of
    the two-atom state, whose two Bell components carry equal excitation."""
    off = g_eff[:, None] * np.sqrt(np.arange(1, count + 1, dtype=float))
    h = np.zeros((g_eff.size, count, 2, 2))
    h[..., 0, 0] = 0.5 * delta
    h[..., 1, 1] = -0.5 * delta
    h[..., 0, 1] = off
    h[..., 1, 0] = off
    return h


def evolve_basis(
    g_eff: np.ndarray, delta: float, t: np.ndarray, n_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Evolve every basis state |a, n> (n <= n_max) of one pair at every time.

    Returns ``amp`` of shape (times, 2, n_max + 1, 2) and ``photon`` of shape
    (2, n_max + 1, 2): the evolved |a, n> at time index i is the sum over
    levels l of ``amp[i, a, n, l] |l, photon[a, n, l]>``, with levels indexed
    g = 0, e = 1.  |e, n> evolves in sector n and |g, n> in sector n - 1;
    |g, 0> is alone in its sector and only gains the phase exp(i*delta*t/2).
    Its empty excited slot has photon number -1 and amplitude 0.
    """
    if n_max < 0:
        raise ValueError(f"photon cutoff must be >= 0, got {n_max}")
    w, v = np.linalg.eigh(sector_hamiltonians(g_eff, delta, n_max + 1))
    u = np.einsum("tsij,tsj,tskj->tsik", v, np.exp(-1j * w * t[:, None, None]), v)
    amp = np.zeros((t.size, 2, n_max + 1, 2), dtype=complex)
    amp[:, _E, :, _E] = u[:, :, 0, 0]
    amp[:, _E, :, _G] = u[:, :, 1, 0]
    amp[:, _G, 1:, _E] = u[:, :-1, 0, 1]
    amp[:, _G, 1:, _G] = u[:, :-1, 1, 1]
    amp[:, _G, 0, _G] = np.exp(0.5j * delta * t)
    n = np.arange(n_max + 1)
    photon = np.empty((2, n_max + 1, 2), dtype=np.int64)
    photon[_E, :, _E] = n
    photon[_E, :, _G] = n + 1
    photon[_G, :, _E] = n - 1
    photon[_G, :, _G] = n
    return amp, photon


def field_traced_channel(
    amp: np.ndarray, photon: np.ndarray, probs: np.ndarray
) -> np.ndarray:
    """Thermal field trace of one pair, shape (times, 2, 2, 2, 2).

    Entry [i, a, a', l, l'] is sum_n P_n sum_f <l,f|U|a,n><a',n|U^dag|l',f>,
    over the first ``probs.size`` basis states n of ``amp`` and ``photon``.
    Each evolved state holds one photon number per level, so the trace over
    f keeps exactly the level pairs whose photon numbers match."""
    k = probs.size
    amp, photon = amp[:, :, :k], photon[:, :k]
    match = photon[:, None, :, :, None] == photon[None, :, :, None, :]
    weight = probs[:, None, None] * match  # [a, a', n, l, l']
    return np.einsum("tanl,tbnm,abnlm->tablm", amp, amp.conj(), weight)


def _bell_state(m_a: np.ndarray, m_b: np.ndarray) -> np.ndarray:
    """1/2 sum M_A[a, a'] (x) M_B[b, b'] over (ab), (a'b') in {eg, ge}, as
    (times, 4, 4): each Bell component has b = 1 - a."""
    rho = 0.5 * np.einsum("tablm,tabnk->tlnmk", m_a, m_b[:, ::-1, ::-1])
    return rho.reshape(-1, 4, 4)


@dataclass(frozen=True)
class JointDensity:
    """Two-atom density matrices over a time grid, shape (times, 4, 4), in the
    basis (|gg>, |ge>, |eg>, |ee>)."""

    matrix: np.ndarray

    def max_off_x_magnitude(self) -> float:
        """Largest entry outside the X pattern (diagonal plus the anti-diagonal
        coherence pair) over the grid; exactly zero for the model's symmetric
        initial state."""
        return float(np.max(np.abs(self.matrix[:, ~_X_PATTERN]), initial=0.0))

    def validate(self, trace_tol: float = TRACE_TOL) -> None:
        """Check every time at once; each comparison fails on NaN."""
        m = self.matrix
        if m.ndim != 3 or m.shape[1:] != (4, 4):
            raise ValueError(f"expected a (times, 4, 4) stack, got shape {m.shape}")
        if not np.all(np.abs(m - m.conj().transpose(0, 2, 1)) <= 1e-12):
            raise ValueError("accumulated state is not hermitian")
        trace = np.trace(m, axis1=1, axis2=2).real
        bad = ~(np.abs(trace - 1.0) <= trace_tol)
        if bad.any():
            raise TruncationError(
                f"joint-state trace is {float(trace[bad.argmax()])!r}; the Fock "
                "truncation is too coarse"
            )
        if not np.all(np.linalg.eigvalsh(m) >= -trace_tol):
            raise ValueError("accumulated state has a negative eigenvalue")

    def to_atomic(self, trace_tol: float = TRACE_TOL) -> list[AtomicDensityMatrix]:
        """One validated X container per time."""
        self.validate(trace_tol)
        off_x = self.max_off_x_magnitude()
        if off_x > X_STRUCTURE_TOL:
            raise ValueError(f"state is not X structured: off-pattern magnitude {off_x:.3e}")
        m = self.matrix
        return [
            AtomicDensityMatrix(x1, x2, x3, x5, x6)
            for x1, x2, x3, x5, x6 in zip(
                m[:, 0, 0].real.tolist(),
                m[:, 1, 1].real.tolist(),
                m[:, 1, 2].tolist(),
                m[:, 2, 2].real.tolist(),
                m[:, 3, 3].real.tolist(),
            )
        ]


def oracle_joint_density(
    params: SystemParams,
    dist_a: ThermalDistribution,
    dist_b: ThermalDistribution,
    t: np.ndarray,
) -> JointDensity:
    """Brute-force two-atom state at every time of the one-dimensional array t.

    Both pairs share one stack of sector propagators; a cavity whose
    distribution equals the other's reuses its channel.  The grid is
    evaluated in chunks of at most ``_CHUNK_ELEMENTS`` propagator entries, or
    of one time when a single time needs more.  The result is not validated;
    see :meth:`JointDensity.validate`."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"times must be a one-dimensional array, got shape {t.shape}")
    g_eff = _mean_coupling(params, t)
    same = dist_b == dist_a
    probs_a = dist_a.probabilities()
    probs_b = dist_b.probabilities()
    n_max = max(dist_a.n_max, dist_b.n_max)
    step = max(1, _CHUNK_ELEMENTS // (4 * (n_max + 1)))
    rho = np.empty((t.size, 4, 4), dtype=complex)
    for lo in range(0, t.size, step):
        rows = slice(lo, lo + step)
        amp, photon = evolve_basis(g_eff[rows], params.delta, t[rows], n_max)
        m_a = field_traced_channel(amp, photon, probs_a)
        m_b = m_a if same else field_traced_channel(amp, photon, probs_b)
        rho[rows] = _bell_state(m_a, m_b)
    return JointDensity(rho)


def oracle_density_matrix(
    params: SystemParams,
    dist_a: ThermalDistribution,
    dist_b: ThermalDistribution,
    t: float,
) -> AtomicDensityMatrix:
    """Brute-force reduced state at time t, validated and converted to the X
    container: the one-point view of :func:`oracle_joint_density`."""
    joint = oracle_joint_density(params, dist_a, dist_b, np.array([t], dtype=float))
    return joint.to_atomic()[0]


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
    """Largest elementwise gap between the closed form and the brute force,
    each evaluated over all times in one grid call."""
    times = np.fromiter(times, dtype=float)
    closed = states(params, dist_a, dist_b, times)
    gap = oracle_joint_density(params, dist_a, dist_b, times).matrix
    for (i, j), x in (((0, 0), closed.x1), ((1, 1), closed.x2), ((1, 2), closed.x3),
                      ((2, 1), closed.x3.conj()), ((2, 2), closed.x5), ((3, 3), closed.x6)):
        gap[:, i, j] -= x
    return float(np.max(np.abs(gap), initial=0.0))


DEFAULT_GRID_P = (1, 4)
DEFAULT_GRID_MEANS = (0.0, 0.1, 0.5)
DEFAULT_GRID_DELTAS = (0.0, 1.0, 5.0)


def validation_times(params: SystemParams, gt_max: float, times: int) -> np.ndarray:
    """``times`` equally spaced times t = gt/g with gt from 0 to ``gt_max``.

    Raises ValueError unless 2 <= ``times`` <= MAX_POINTS and ``gt_max`` > 0
    (a grid at gt = 0 alone compares the initial state with itself), and when
    gt_max/g overflows."""
    if times < 1:
        raise ValueError(f"times must be >= 1, got {times}")
    if times > MAX_POINTS:
        raise ValueError(
            f"times must be <= {MAX_POINTS}, the limit of grid points, got {times}"
        )
    if gt_max < 0.0:
        raise ValueError(f"gt_max must be >= 0, got {gt_max}")
    if times == 1:
        raise ValueError("times must be >= 2 to compare anything past gt = 0, got 1")
    if not gt_max > 0.0:
        raise ValueError(f"gt_max must be > 0 to compare anything past gt = 0, got {gt_max}")
    return params.times(np.linspace(0.0, gt_max, times))


def validation_grid(
    gt_max: float = 25.0,
    times: int = 50,
    epsilon_tail: float = 1e-12,
    g: float = 1.0,
    motion_enabled: bool = True,
) -> list[ValidationResult]:
    """Run the default cross-validation grid and report one result per setting.

    A bad ``times``, ``gt_max``, ``g`` or ``gt_max/g`` raises ValueError
    before any comparison runs; a setting that fails on its own is reported as
    a failed result."""
    base = SystemParams(g=g, motion_enabled=motion_enabled)
    sample_times = validation_times(base, gt_max, times)
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
