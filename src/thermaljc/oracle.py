"""Brute-force verification route for the closed-form solution.

Each atom-cavity pair is evolved on its own.  Every basis state |a, n> of the
pair is propagated at every time of the grid through its excitation sector by
the exact exponential of the sector's traceless 2x2 block; the tests check it
against dense diagonalization of the whole truncated pair.  Tracing the cavity
out of the evolved states gives one channel per pair, a 2x2 block for each
pair (a, a') of initial atomic levels:

    M_aa'[l, l'] = sum_n P_n sum_f <l,f|U|a,n> <a',n|U^dag|l',f>.

Excitation conservation fixes which levels of the evolved states share a
photon number, the same at every n, so each channel is one weighted Gram
product of the evolved amplitudes.  The two cavities are independent, so the
thermal double sum over (n, m) of the two-atom state factorizes into one such
sum per cavity.  For the Bell input (|eg> + |ge>)/sqrt(2) the field-traced
state is

    rho = 1/2 sum M_A[a, a'] (x) M_B[b, b'] over (ab), (a'b') in {eg, ge}.

This is the generic partial trace of a product of two channels.  No dressed
state, angle, factorized-sum identity or g'(t) of the closed form is reused
(the closed form is imported only to be compared), so agreement between the
two routes checks the algebra rather than restating it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .core import (
    MAX_POINTS,
    TRACE_TOL,
    SystemParams,
    ThermalDistribution,
    TruncationError,
    XStates,
    check_times,
    check_x_states,
)
from .dynamics import stacked_states

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
# Most rows of one stacked call of each route; config_deviations cuts its list,
# in order, into such calls.  Stacking saves the fixed cost of a call (about
# 0.1 ms per route at 50 times): the default validate grid, 900 rows, is one
# call.  The budget keeps the stacked arrays small and lets a long grid run one
# configuration at a time, as without stacking.
_STACK_ROWS = 1 << 10

_Config = tuple[SystemParams, ThermalDistribution, ThermalDistribution]


def _mean_coupling(params: SystemParams, t: np.ndarray) -> np.ndarray:
    """The paper's g'(t) = (1 - cos(p*g*t))/(p*t), the average of g*sin(p*g*tau)
    over [0, t] and 0 at t = 0, or g with motion off.

    The oracle's own formula: a wrong g'(t) in the closed form does not enter
    both routes alike.  1 - cos cancels near t = 0 and at the revivals, so
    where cos > 0.9 it is formed as sin^2/(1 + cos), which keeps the small
    populations of early times relatively exact."""
    check_times(t)
    if not params.motion_enabled:
        return np.full(t.shape, params.g)
    x = params.p * params.g * t
    cos = np.cos(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        versine = np.where(cos > 0.9, np.sin(x) ** 2 / (1.0 + cos), 1.0 - cos)
        return np.where(t > 0.0, versine / (params.p * t), 0.0)


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
    where sin(omega*t)/omega is t at omega = 0.  With h11 = -h00 and h10 =
    conj(h01), each real and imaginary part of an entry is one real product,
    written straight into the output."""
    h00, h01 = h[..., 0, 0].real, h[..., 0, 1]
    off_re, off_im = h01.real, h01.imag
    omega = np.hypot(h00, np.abs(h01))
    phase = omega * t
    with np.errstate(divide="ignore", invalid="ignore"):
        sin_over = np.where(omega > 0.0, np.sin(phase) / omega, t)
    u = np.empty(sin_over.shape + (2, 2), dtype=complex)
    re, im = u.real, u.imag
    np.cos(phase, out=re[..., 0, 0])
    re[..., 1, 1] = re[..., 0, 0]
    np.multiply(sin_over, h00, out=im[..., 1, 1])
    np.multiply(sin_over, off_im, out=re[..., 0, 1])
    minus = -sin_over
    np.multiply(minus, h00, out=im[..., 0, 0])
    np.multiply(minus, off_im, out=re[..., 1, 0])
    np.multiply(minus, off_re, out=im[..., 0, 1])
    im[..., 1, 0] = im[..., 0, 1]
    return u


def evolve_basis(
    g_eff: np.ndarray, delta: float, t: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Evolve the basis states |a, n> (lo <= n < hi) of one pair at every time.

    Returns ``amp`` of shape (times, 2, hi - lo, 2) and ``photon`` of shape
    (2, hi - lo, 2): the evolved |a, lo + k> at time index i is the sum over
    levels l of ``amp[i, a, k, l] |l, photon[a, k, l]>``, with levels indexed
    g = 0, e = 1.  |e, n> evolves in sector n and |g, n> in sector n - 1;
    |g, 0> is alone in its sector and only gains the phase exp(i*delta*t/2).
    Its empty excited slot has photon number -1 and amplitude 0.  Raises
    ValueError unless 0 <= lo < hi.
    """
    if not 0 <= lo < hi:
        raise ValueError(f"photon range must satisfy 0 <= lo < hi, got lo={lo}, hi={hi}")
    u = _sector_exponential(sector_hamiltonians(g_eff, delta, np.arange(lo - 1, hi)), t[:, None])
    # an evolved state is a column of its sector's propagator, whose rows are
    # the levels (e, g): [a, l] = u[sector, 1 - l, 1 - a].  The amplitudes are
    # held as [time, a, l, n], the rows and columns of the field trace's product.
    amp = np.empty((t.size, 2, 2, hi - lo), dtype=complex)
    amp[:, 0] = u[:, :-1, ::-1, 1].transpose(0, 2, 1)
    amp[:, 1] = u[:, 1:, ::-1, 0].transpose(0, 2, 1)
    photon = np.arange(lo, hi)[:, None] + _PHOTON_SHIFT[:, None, :]
    return amp.transpose(0, 1, 3, 2), photon


def field_traced_channel(
    amp: np.ndarray, photon: np.ndarray, probs: np.ndarray
) -> np.ndarray:
    """Thermal field trace of one pair, shape (times, 2, 2, 2, 2).

    Entry [i, a, a', l, l'] is sum_n P_n sum_f <l,f|U|a,n><a',n|U^dag|l',f>,
    over the first ``probs.size`` basis states n of ``amp`` and ``photon``.
    Each evolved state holds one photon number per level, so the trace over
    f keeps exactly the level pairs whose photon numbers match.  Excitation
    conservation puts level l of the evolved |a, n> at n plus a shift of its
    own, so the pairs that match are the same at every n: the sum is the
    weighted Gram product A diag(P) A^dag of the amplitudes A[(a, l), n],
    masked by that fixed match.  Raises ValueError for photon numbers whose
    match varies with n."""
    k = probs.size
    shift = photon - np.arange(photon.shape[1])[:, None]
    if (shift != shift[:, :1]).any():
        raise ValueError("photon numbers must pair the levels alike at every n")
    level = shift[:, 0].reshape(4)
    a = amp[:, :, :k].transpose(0, 1, 3, 2).reshape(len(amp), 4, k)
    gram = np.matmul(a * probs, a.conj().transpose(0, 2, 1))
    gram *= level[:, None] == level
    return gram.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4)


def _bell_state(m_a: np.ndarray, m_b: np.ndarray) -> np.ndarray:
    """1/2 sum M_A[a, a'] (x) M_B[b, b'] over (ab), (a'b') in {eg, ge}, as
    (times, 4, 4): each Bell component has b = 1 - a, so the sum over (a, a')
    is one product of M_A and the reversed M_B, each as a matrix with rows
    (a, a') and columns (l, l')."""
    a = m_a.reshape(-1, 4, 4)
    b = m_b[:, ::-1, ::-1].reshape(-1, 4, 4)
    rho = 0.5 * np.matmul(a.transpose(0, 2, 1), b)  # [(l, m), (n, k)]
    return rho.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 4, 4)


def joint_x_states(m: np.ndarray) -> XStates:
    """The X elements of a (times, 4, 4) stack of two-atom states, checked at
    every time at once; each comparison fails on NaN.

    Raises ValueError for a wrong shape, a non-hermitian state, a negative
    eigenvalue or an entry outside the X pattern, and then what
    :func:`~thermaljc.core.check_x_states` raises for the X elements."""
    if m.ndim != 3 or m.shape[1:] != (4, 4):
        raise ValueError(f"expected a (times, 4, 4) stack, got shape {m.shape}")
    if not np.all(np.abs(m - m.conj().transpose(0, 2, 1)) <= 1e-12):
        raise ValueError("accumulated state is not hermitian")
    if not np.all(np.linalg.eigvalsh(m) >= -TRACE_TOL):
        raise ValueError("accumulated state has a negative eigenvalue")
    off_x = float(np.max(np.abs(m[:, ~_X_PATTERN]), initial=0.0))
    if off_x > X_STRUCTURE_TOL:
        raise ValueError(f"state is not X structured: off-pattern magnitude {off_x:.3e}")
    x = XStates(m[:, 0, 0].real, m[:, 1, 1].real, m[:, 1, 2], m[:, 2, 2].real, m[:, 3, 3].real)
    check_x_states(x)
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
    return stacked_joint_density([(params, dist_a, dist_b)], t)


def stacked_joint_density(configs: Sequence[_Config], t: np.ndarray) -> np.ndarray:
    """:func:`oracle_joint_density` of every configuration (params, dist_a,
    dist_b) of ``configs`` at every time of t, in one call: row j*t.size + i
    holds configuration j at time i, bit-identical to that call.  Per chunk
    of the times, the configurations that share params, delta included, share
    one evolution, over the widest of their cutoffs, each distinct cavity's
    channel and one Bell product.  Each distinct distribution's probabilities
    are formed once per call.  Raises ValueError for an empty ``configs``."""
    grid = np.asarray(t, dtype=float)
    if grid.ndim != 1:
        raise ValueError(f"times must be a one-dimensional array, got shape {grid.shape}")
    if not configs:
        raise ValueError("stacked routes need at least one configuration")
    by_params: dict[SystemParams, list[int]] = {}
    for j, (params, _, _) in enumerate(configs):
        by_params.setdefault(params, []).append(j)
    rho = np.empty((len(configs), grid.size, 4, 4), dtype=complex)
    distinct = {dist for _, *pair in configs for dist in pair}
    vectors = {dist: dist.probabilities() for dist in distinct}
    for params, members in by_params.items():
        # widest first, so that no other channel is held while it is traced
        dists = sorted(dict.fromkeys(dist for j in members for dist in configs[j][1:]),
                       key=lambda dist: -dist.n_max)
        sides = [[dists.index(dist) for dist in configs[j][1:]] for j in members]
        probs = [vectors[dist] for dist in dists]
        g_eff = _mean_coupling(params, grid)
        width = min(probs[0].size, _SECTOR_BLOCK) + 1  # sectors of one slice
        step = max(1, min(grid.size, _CHUNK_ELEMENTS // (4 * width)))
        for lo in range(0, grid.size, step):
            rows = slice(lo, lo + step)
            rho[members, rows] = _bell_state(
                *_channels(g_eff[rows], params.delta, grid[rows], probs, sides)
            ).reshape(len(members), -1, 4, 4)
    return rho.reshape(-1, 4, 4)


def _channels(g_eff: np.ndarray, delta: float, t: np.ndarray, probs: list, sides: list) -> list:
    """Channels of cavities A and B, ``probs[sides[j]]``, of each configuration
    j, each side stacked over j.  One evolution over the widest cutoff,
    ``probs[0]``, serves every cavity, each over its own slices."""
    channels = [0.0] * len(probs)
    for first in range(0, probs[0].size, _SECTOR_BLOCK):
        last = min(first + _SECTOR_BLOCK, probs[0].size)
        amp, photon = evolve_basis(g_eff, delta, t, first, last)
        for i, p in enumerate(probs):
            if p.size > first:
                channels[i] += field_traced_channel(amp, photon, p[first:last])
    return [np.concatenate([channels[i] for i in side]) for side in zip(*sides)]


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
    return float(route_deviations([(params, dist_a, dist_b)], times)[0])


def route_deviations(configs: Sequence[_Config], times: Iterable[float]) -> np.ndarray:
    """:func:`max_route_deviation` of every configuration (params, dist_a,
    dist_b), from one stacked call of each route over all their rows."""
    times = np.fromiter(times, dtype=float)
    closed = stacked_states(configs, times)
    gap = stacked_joint_density(configs, times)
    for (i, j), x in (((0, 0), closed.x1), ((1, 1), closed.x2), ((1, 2), closed.x3),
                      ((2, 1), closed.x3.conj()), ((2, 2), closed.x5), ((3, 3), closed.x6)):
        gap[:, i, j] -= x
    return np.max(np.abs(gap).reshape(len(configs), -1), axis=1, initial=0.0)


def config_deviations(configs: Sequence[_Config], times: np.ndarray) -> list[float | Exception]:
    """:func:`max_route_deviation` of each configuration (params, dist_a,
    dist_b), in order, or the TruncationError or ValueError its routes raise.

    The list is cut, in order, into stacked calls of :func:`route_deviations`
    of as many configurations as fit in ``_STACK_ROWS`` rows: a grid longer
    than half of that runs one configuration at a time.  A stacked call that
    raises is re-run one configuration at a time, so a failure is reported,
    with its own text, by the configurations that raise it."""
    per_call = max(1, _STACK_ROWS // max(len(times), 1))
    return [result for lo in range(0, len(configs), per_call)
            for result in _deviations(configs[lo : lo + per_call], times)]


def _deviations(configs: Sequence[_Config], times: np.ndarray) -> list[float | Exception]:
    try:
        return route_deviations(configs, times).tolist()
    except (TruncationError, ValueError) as exc:
        if len(configs) == 1:
            return [exc]
        return [result for config in configs for result in _deviations([config], times)]


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

