"""Brute-force verification route for the closed-form solution.

Each atom-cavity pair is evolved on its own.  Every basis state |a, n> of the
pair is propagated at every time of the grid through its excitation sector by
the exact exponential of the sector's traceless 2x2 block; the tests check it
against dense diagonalization of the whole truncated pair.  Tracing the cavity
out of the evolved states gives one channel per pair, a 2x2 block for each
pair (a, a') of initial atomic levels:

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

from typing import Iterable

import numpy as np

from .core import (
    MAX_POINTS,
    TRACE_TOL,
    SystemParams,
    ThermalDistribution,
    TruncationError,
    XStates,
    check_x_states,
)
from .dynamics import states

ORACLE_TOL = 1e-9
X_STRUCTURE_TOL = 1e-12

# atomic levels are indexed g = 0, e = 1; the joint basis (|gg>, |ge>, |eg>,
# |ee>) has index 2*a + b, with atom A the first letter
_X_PATTERN = np.eye(4, dtype=bool)
_X_PATTERN[1, 2] = _X_PATTERN[2, 1] = True

# Entries of one (times x sectors x 2 x 2) propagator stack.  It bounds the
# working memory for any grid length and cutoff while keeping numpy's
# per-call overhead small next to the arithmetic.
_CHUNK_ELEMENTS = 1 << 15
# Widest slice of photon numbers in one stack.  The slices depend on the
# cutoff alone, so a time's channel accumulates in the same order in any grid.
_SECTOR_BLOCK = 1 << 12
# photon number of level l in the evolved |a, n>, less n, at [a, l]
_PHOTON_SHIFT = np.array([[0, -1], [1, 0]])


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


def sector_hamiltonians(g_eff: np.ndarray, delta: float, n: np.ndarray) -> np.ndarray:
    """Blocks of the sectors ``n`` at each coupling, shape (times, n.size, 2, 2).

    Sector n spans {|e,n>, |g,n+1>}; sector -1 holds |g,0> alone, in its
    second slot, with a zero coupling.  Each block is traceless: the common
    sector energy is a phase that cancels in every field-traced element of
    the two-atom state, whose two Bell components carry equal excitation."""
    off = g_eff[:, None] * np.sqrt(n + 1.0)
    h = np.zeros((g_eff.size, n.size, 2, 2))
    h[..., 0, 0] = 0.5 * delta
    h[..., 1, 1] = -0.5 * delta
    h[..., 0, 1] = off
    h[..., 1, 0] = off
    return h


def _sector_exponential(h: np.ndarray, t: np.ndarray) -> np.ndarray:
    """exp(-i*h*t) of a (..., 2, 2) stack of traceless hermitian blocks, with
    ``t`` broadcast against the leading axes.

    Such a block squares to omega^2 times the identity, omega = hypot(h00,
    |h01|), so exp(-i*h*t) = cos(omega*t) - i*sin(omega*t)/omega * h exactly,
    where sin(omega*t)/omega is t at omega = 0."""
    omega = np.hypot(h[..., 0, 0].real, np.abs(h[..., 0, 1]))
    phase = omega * t
    with np.errstate(divide="ignore", invalid="ignore"):
        sin_over = np.where(omega > 0.0, np.sin(phase) / omega, t)
    u = (-1j * sin_over)[..., None, None] * h
    cos = np.cos(phase)
    u[..., 0, 0] += cos
    u[..., 1, 1] += cos
    return u


def _evolve_block(
    g_eff: np.ndarray, delta: float, t: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`evolve_basis` for the basis states lo <= n < hi alone: ``amp``
    of shape (times, 2, hi - lo, 2) and ``photon`` of shape (2, hi - lo, 2).
    |e, n> evolves in sector n and |g, n> in sector n - 1."""
    u = _sector_exponential(sector_hamiltonians(g_eff, delta, np.arange(lo - 1, hi)), t[:, None])
    # an evolved state is a column of its sector's propagator, whose rows are
    # the levels (e, g): [a, l] = u[sector, 1 - l, 1 - a]
    amp = np.stack((u[:, :-1, ::-1, 1], u[:, 1:, ::-1, 0]), axis=1)
    photon = np.arange(lo, hi)[:, None] + _PHOTON_SHIFT[:, None, :]
    return amp, photon


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
    return _evolve_block(g_eff, delta, t, 0, n_max + 1)


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


def joint_x_states(m: np.ndarray) -> XStates:
    """The X elements of a (times, 4, 4) stack of two-atom states, checked at
    every time at once; each comparison fails on NaN.

    Raises ValueError for a wrong shape, a non-hermitian state, a negative
    eigenvalue or an entry outside the X pattern, and TruncationError for a
    trace off 1 by more than TRACE_TOL."""
    if m.ndim != 3 or m.shape[1:] != (4, 4):
        raise ValueError(f"expected a (times, 4, 4) stack, got shape {m.shape}")
    if not np.all(np.abs(m - m.conj().transpose(0, 2, 1)) <= 1e-12):
        raise ValueError("accumulated state is not hermitian")
    trace = np.trace(m, axis1=1, axis2=2).real
    bad = ~(np.abs(trace - 1.0) <= TRACE_TOL)
    if bad.any():
        raise TruncationError(
            f"joint-state trace is {float(trace[bad.argmax()])!r}; the Fock "
            "truncation is too coarse"
        )
    if not np.all(np.linalg.eigvalsh(m) >= -TRACE_TOL):
        raise ValueError("accumulated state has a negative eigenvalue")
    off_x = float(np.max(np.abs(m[:, ~_X_PATTERN]), initial=0.0))
    if off_x > X_STRUCTURE_TOL:
        raise ValueError(f"state is not X structured: off-pattern magnitude {off_x:.3e}")
    x = XStates(m[:, 0, 0].real, m[:, 1, 1].real, m[:, 1, 2], m[:, 2, 2].real, m[:, 3, 3].real)
    check_x_states(*x)
    return x


def oracle_joint_density(
    params: SystemParams,
    dist_a: ThermalDistribution,
    dist_b: ThermalDistribution,
    t: np.ndarray,
) -> np.ndarray:
    """Brute-force two-atom state at every time of the one-dimensional array t.

    Both pairs share one stack of sector propagators; a cavity whose
    distribution equals the other's reuses its channel.  Photon numbers are
    cut into slices at every ``_SECTOR_BLOCK``, and each cavity's channel
    accumulates over its slices.  The grid is evaluated in chunks of at most
    ``_CHUNK_ELEMENTS`` propagator entries of one slice, or of one time when
    a single time needs more.  A time's state is bit-identical in any grid.
    Returns the (times, 4, 4) stack in the basis (|gg>, |ge>, |eg>, |ee>), not
    validated; see :func:`joint_x_states`."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"times must be a one-dimensional array, got shape {t.shape}")
    g_eff = _mean_coupling(params, t)
    probs = [dist_a.probabilities()] + ([] if dist_b == dist_a else [dist_b.probabilities()])
    count = max(p.size for p in probs)
    step = max(1, _CHUNK_ELEMENTS // (4 * (min(count, _SECTOR_BLOCK) + 1)))
    rho = np.empty((t.size, 4, 4), dtype=complex)
    for lo in range(0, t.size, step):
        rows = slice(lo, lo + step)
        channels = [0.0] * len(probs)
        for first in range(0, count, _SECTOR_BLOCK):
            last = min(first + _SECTOR_BLOCK, count)
            amp, photon = _evolve_block(g_eff[rows], params.delta, t[rows], first, last)
            for i, p in enumerate(probs):
                if p.size > first:
                    channels[i] += field_traced_channel(amp, photon, p[first:last])
        rho[rows] = _bell_state(channels[0], channels[-1])
    return rho


def oracle_density_matrix(
    params: SystemParams,
    dist_a: ThermalDistribution,
    dist_b: ThermalDistribution,
    t: float,
) -> XStates:
    """Brute-force reduced state at time t, validated, as Python scalars: the
    one-point view of :func:`oracle_joint_density`."""
    joint = oracle_joint_density(params, dist_a, dist_b, np.array([t], dtype=float))
    return XStates._make(v.item() for v in joint_x_states(joint))


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
    gap = oracle_joint_density(params, dist_a, dist_b, times)
    for (i, j), x in (((0, 0), closed.x1), ((1, 1), closed.x2), ((1, 2), closed.x3),
                      ((2, 1), closed.x3.conj()), ((2, 2), closed.x5), ((3, 3), closed.x6)):
        gap[:, i, j] -= x
    return float(np.max(np.abs(gap), initial=0.0))


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

