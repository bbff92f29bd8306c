"""Closed-form reduced dynamics: motion-averaged coupling, dressed sector
factors, and factorized Fock sums for the two-atom X state.

Each matrix element of the reduced state is a double thermal sum that
factorizes into a product of one sum per cavity, so the cost per time point is
linear in the Fock cutoff instead of quadratic.  A whole time grid is
evaluated at once, as (times x sectors) arrays.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import (
    TRACE_TOL,
    AtomicDensityMatrix,
    SystemParams,
    ThermalDistribution,
    TruncationError,
    check_x_states,
)

# Entries of one (times x sectors) factor block.  It bounds the working memory
# for any grid length and cutoff while keeping numpy's per-call overhead small
# next to the arithmetic.
_BLOCK_ELEMENTS = 1 << 15


def effective_coupling(
    params: SystemParams, t: float | np.ndarray
) -> float | np.ndarray:
    """Coupling averaged over the standing-mode profile crossed up to time t.

    With motion disabled the bare ``g`` is returned for every t; with motion
    the average is ``g' = [1 - cos(p*g*t)]/(p*t)``, which vanishes at t = 0 and
    at every revival time ``g*t = 2*pi*k/p`` and obeys ``g'*t <= 2/p``.  It is
    evaluated as ``2*sin(p*g*t/2)**2/(p*t)``, which keeps full relative
    accuracy near t = 0 and near the revivals, where ``1 - cos`` cancels.
    Returns a float for a scalar ``t`` and an array for an array.
    """
    t = np.asarray(t, dtype=float)
    valid = np.isfinite(t) & (t >= 0.0)
    if not valid.all():
        raise ValueError(f"time must be finite and >= 0, got {float(t[~valid][0])!r}")
    if not params.motion_enabled:
        g_eff = np.full(t.shape, params.g)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            g_eff = np.where(
                t > 0.0,
                2.0 * np.sin(0.5 * (params.p * params.g * t)) ** 2 / (params.p * t),
                0.0,
            )
    return float(g_eff) if g_eff.ndim == 0 else g_eff


class XStates(NamedTuple):
    """Closed-form X elements over a time grid, one array entry per time."""

    g_eff: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray  # complex coherence <ge|rho|eg>
    x5: np.ndarray
    x6: np.ndarray

    def at(self, i: int) -> AtomicDensityMatrix:
        """The state at grid index ``i`` as a validated container."""
        return AtomicDensityMatrix(
            float(self.x1[i]),
            float(self.x2[i]),
            complex(self.x3[i]),
            float(self.x5[i]),
            float(self.x6[i]),
        )


def _sector_factors(
    g_eff: np.ndarray, delta: float, t: np.ndarray, count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sector factors of sectors 0 .. count-1 at each time, as
    (times x sectors) arrays.

    ``stay`` and ``swap`` partition the unit transition probability of a
    sector: cos^2(l*t/2) + sin^2(l*t/2)*cos^2(2*theta) and
    sin^2(l*t/2)*sin^2(2*theta), with l = lambda_n = sqrt(delta^2 + 4*g'^2*n).
    ``amp`` = cos(l*t/2) + i*sin(l*t/2)*cos(2*theta) is the complex amplitude
    of the non-transferring branch.  sin(2*theta) and cos(2*theta) are taken
    through their exact algebraic forms -2*g'*sqrt(n)/l and delta/l, which
    equal the arctan definition of the angle wherever it is finite and extend
    it continuously to g' = 0.
    """
    n = np.arange(count, dtype=float)
    root = 2.0 * g_eff[:, None] * np.sqrt(n)
    # sqrt of the sum of squares, not np.hypot, which costs as much as a cosine
    lam = np.sqrt(delta * delta + root * root)
    positive = lam > 0.0
    inverse = 1.0 / np.where(positive, lam, 1.0)
    # n = 0 is one dimensional: cos(2*theta) = sign(delta) reproduces its exact
    # phase exp(i*delta*t/2).  Degenerate lam = 0 entries are inert and only
    # need sin^2 + cos^2 = 1.
    sin2t = np.where(positive, -root * inverse, np.where(n == 0, 0.0, -1.0))
    cos2t = np.where(positive, delta * inverse, np.where(n == 0, 1.0, 0.0))
    half = (0.5 * t)[:, None] * lam
    c = np.cos(half)
    s = np.sin(half)
    swap = (s * sin2t) ** 2
    stay = c * c + (s * cos2t) ** 2
    amp = c + 1j * (s * cos2t)
    return stay, swap, amp


def _thermal_sums(
    probs: np.ndarray, stay: np.ndarray, swap: np.ndarray, amp: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Thermal averages of the sector factors for one cavity, per time.

    Returns (stay_g, swap_g, stay_e, swap_e, coh): survival and transfer
    weights of the ground and excited atomic branches plus the complex
    coherence factor.  The excited branch of photon number n lives in sector
    n + 1.  Each sum runs along the sector axis of one row, so its value does
    not depend on how many rows the block holds.
    """
    k = probs.size
    return (
        np.sum(probs * stay[:, :k], axis=1),
        np.sum(probs * swap[:, :k], axis=1),
        np.sum(probs * stay[:, 1 : k + 1], axis=1),
        np.sum(probs * swap[:, 1 : k + 1], axis=1),
        np.sum(probs * amp[:, :k] * amp[:, 1 : k + 1], axis=1),
    )


def states(
    params: SystemParams,
    dist_a: ThermalDistribution,
    dist_b: ThermalDistribution,
    t: np.ndarray,
) -> XStates:
    """Reduced two-atom X state at every time of the one-dimensional array t.

    The initial state is the symmetric Bell state of the atoms with each
    cavity in its own thermal mixture; the evolution uses the coupling frozen
    at its running average g'(t).  ``t`` holds times, not gt: divide gt by
    ``params.g``.  The grid is evaluated in blocks of at most
    ``_BLOCK_ELEMENTS`` sector factors, or of one time when a single time
    needs more; a time's elements are bit-identical whichever grid or block
    it is evaluated in.

    Raises TruncationError when a trace misses 1 by more than TRACE_TOL (the
    Fock truncation is too coarse) and ValueError for any other row that is
    not a valid X state.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"times must be a one-dimensional array, got shape {t.shape}")
    g_eff = effective_coupling(params, t)
    same = dist_b == dist_a
    probs_a = dist_a.probabilities()
    probs_b = probs_a if same else dist_b.probabilities()
    count = max(dist_a.n_max, dist_b.n_max) + 2
    step = max(1, _BLOCK_ELEMENTS // count)
    x1, x2, x5, x6 = (np.empty(t.size) for _ in range(4))
    x3 = np.empty(t.size, dtype=complex)
    for lo in range(0, t.size, step):
        rows = slice(lo, lo + step)
        factors = _sector_factors(g_eff[rows], params.delta, t[rows], count)
        ad, af, aa, ab, ac = _thermal_sums(probs_a, *factors)
        bd, bf, ba, bb, bc = (ad, af, aa, ab, ac) if same else _thermal_sums(probs_b, *factors)
        x1[rows] = 0.5 * (ab * bd + ad * bb)
        x2[rows] = 0.5 * (ab * bf + ad * ba)
        # x3 = ac * conj(bc) / 2 in real arithmetic, so that it is exactly real
        # for equal cavities and exactly conjugated when the cavities swap
        x3.real[rows] = 0.5 * (ac.real * bc.real + ac.imag * bc.imag)
        x3.imag[rows] = 0.5 * (ac.imag * bc.real - ac.real * bc.imag)
        x5[rows] = 0.5 * (aa * bd + af * bb)
        x6[rows] = 0.5 * (aa * bf + af * ba)
    trace = x1 + x2 + x5 + x6
    off = np.abs(trace - 1.0) > TRACE_TOL  # NaN passes here and fails check_x_states
    if off.any():
        raise TruncationError(
            f"reduced-state trace is {float(trace[off.argmax()])!r}; the Fock "
            "truncation is too coarse (decrease epsilon_tail)"
        )
    check_x_states(x1, x2, x3, x5, x6)
    return XStates(g_eff, x1, x2, x3, x5, x6)


def density_matrix(
    params: SystemParams,
    dist_a: ThermalDistribution,
    dist_b: ThermalDistribution,
    t: float,
) -> AtomicDensityMatrix:
    """Reduced two-atom state at time t: the one-point view of :func:`states`."""
    return states(params, dist_a, dist_b, np.array([t], dtype=float)).at(0)
