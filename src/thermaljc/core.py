"""Shared physical types: system parameters, thermal photon statistics, and the
two-qubit X-state container used by every other module."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

TRACE_TOL = 1e-9
DEFAULT_EPSILON_TAIL = 1e-12
# Largest number of photon sectors (n_max + 1) per cavity: 34 MB per float
# array, enough for mean photon numbers up to about 1.5e5 at the default tail.
MAX_SECTORS = 1 << 22
# Largest number of points in one time grid.  The eleven float columns of a
# time series then take about 0.4 GB; a larger grid is refused as an input
# error before anything is allocated for it.
MAX_POINTS = 1 << 22
# Largest |delta| and p, the range of g and the largest time t = gt/g accepted.
# Sector frequencies are formed as sqrt(delta**2 + (2*g'*sqrt(n))**2), whose
# squares underflow below about 1e-154 and overflow above about 1e154.  Within
# these bounds the square of the bare coupling g stays normal and every sum
# stays finite for up to MAX_SECTORS sectors.  A moving atom's coupling
# g'(t) = (1 - cos pgt)/(pt) is not bounded below by g: it falls as 1/t, so
# only a bound on t keeps 4*g'**2 clear of subnormals and of 0, where the
# closed form loses the exchange.  With motion off, g' = g, and only an
# infinite t is refused.  The bound on p lets the mode phase p*g*t form as a
# float; a moving atom's grid whose p*g*t still overflows is refused.
PARAM_LIMIT = 1e150


class TruncationError(RuntimeError):
    """A truncated Fock sum left out more probability mass than tolerated."""


def check_times(t: np.ndarray) -> None:
    """Raise ValueError at the first time of the array ``t`` that is not
    finite and >= 0: the one rule both routes apply to their times."""
    valid = np.isfinite(t) & (t >= 0.0)
    if not valid.all():
        raise ValueError(f"time must be finite and >= 0, got {float(t[~valid][0])!r}")


@dataclass(frozen=True)
class SystemParams:
    """Constants of one atom-cavity pair; the two pairs are identical by assumption.

    ``g`` sets the global time scale (times elsewhere are reported as the
    dimensionless product ``g*t``), ``delta`` is the atom-cavity detuning and
    ``p`` counts the half wavelengths of the standing mode the atom crosses
    during one coupling time.  The transit-velocity convention ties the motion
    to the coupling, so neither velocity nor cavity length appears separately.
    """

    g: float = 1.0
    delta: float = 0.0
    p: int = 1
    motion_enabled: bool = True

    def __post_init__(self) -> None:
        if not 1.0 / PARAM_LIMIT <= self.g <= PARAM_LIMIT:
            raise ValueError(
                f"coupling strength g must lie in [{1.0 / PARAM_LIMIT:g}, "
                f"{PARAM_LIMIT:g}], got {self.g}"
            )
        if not abs(self.delta) <= PARAM_LIMIT:
            raise ValueError(
                f"detuning delta must lie in [-{PARAM_LIMIT:g}, {PARAM_LIMIT:g}], "
                f"got {self.delta}"
            )
        if isinstance(self.p, bool) or not isinstance(self.p, (int, np.integer)):
            raise ValueError(f"mode parameter p must be an integer, got {self.p!r}")
        if self.p < 1:
            raise ValueError(f"mode parameter p must be >= 1, got {self.p}")
        if self.p > PARAM_LIMIT:
            raise ValueError(f"mode parameter p must be <= {PARAM_LIMIT:g}, got {self.p}")

    def times(self, gt: np.ndarray) -> np.ndarray:
        """Times t = gt/g; ValueError when the largest overflows to infinity,
        or, for a moving atom, exceeds PARAM_LIMIT or gives a mode phase p*g*t
        that overflows, or when the largest sector phase (|delta| +
        2*g*sqrt(MAX_SECTORS))*t overflows.  g'(t) <= g, so that bounds every
        sector phase either route forms; with motion off only this bound keeps
        it finite."""
        with np.errstate(over="ignore"):
            t = np.asarray(gt, dtype=float) / self.g
        longest = float(np.max(t, initial=0.0))
        if not np.isfinite(t).all():
            reason = "overflows to an infinite time"
        elif self.motion_enabled and longest > PARAM_LIMIT:
            reason = f"= {longest!r} exceeds the largest time, {PARAM_LIMIT:g}"
        elif self.motion_enabled and not math.isfinite(self.p * self.g * longest):
            reason = f"= {longest!r} overflows the largest mode phase p*g*t"
        elif not math.isfinite((abs(self.delta) + 2.0 * self.g * math.sqrt(MAX_SECTORS)) * longest):
            reason = (
                f"= {longest!r} overflows the largest sector phase "
                f"(|delta| + 2*g*sqrt({MAX_SECTORS}))*t"
            )
        else:
            return t
        raise ValueError(f"gt_max/g = {float(np.max(gt)):g}/{self.g:g} {reason}")


def truncation_index(mean: float, epsilon: float) -> int:
    """Smallest cutoff N whose geometric tail (mean/(mean+1))**(N+1) is <= epsilon.

    Raises ValueError when N + 1 would exceed ``MAX_SECTORS``."""
    if not 0.0 <= mean < math.inf:
        raise ValueError(f"mean photon number must be finite and >= 0, got {mean}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"tail tolerance must lie in (0, 1), got {epsilon}")
    if mean == 0.0:
        return 0
    ratio = mean / (mean + 1.0)
    # the tail falls with N, so the limit's own tail decides the refusal before
    # any loop walks toward it (where ratio rounds to 1 that walk took 4.2 M steps)
    if ratio ** MAX_SECTORS > epsilon:
        raise ValueError(
            f"mean photon number {mean} needs more than the limit of {MAX_SECTORS} "
            f"sectors for tail tolerance {epsilon:.3e}"
        )
    # log estimate capped at the limit, then exact steps so boundaries round right;
    # -log(ratio) = log1p(1/mean) is nonzero where ratio rounds to 1, finite at mean ~ 0
    estimate = -math.log(epsilon) / math.log1p(1.0 / mean)
    n = max(0, math.ceil(min(estimate, MAX_SECTORS)) - 1)
    while ratio ** (n + 1) > epsilon:
        n += 1
    while n > 0 and ratio ** n <= epsilon:
        n -= 1
    return n


@dataclass(frozen=True)
class ThermalDistribution:
    """Geometric photon-number weights P_n = mean**n / (mean+1)**(n+1), truncated.

    The cutoff ``n_max`` is derived, not given: the smallest whose retained
    weights account for at least ``1 - epsilon_tail`` of the full distribution
    (:func:`truncation_index`, which also judges both arguments).
    """

    mean_photons: float
    epsilon_tail: float = DEFAULT_EPSILON_TAIL
    n_max: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_max", truncation_index(self.mean_photons, self.epsilon_tail))

    # ThermalDistribution(mean, epsilon_tail) under the name callers already use
    from_mean = classmethod(lambda cls, *args, **kwargs: cls(*args, **kwargs))

    def probabilities(self) -> np.ndarray:
        """Weights P_0 .. P_{n_max}."""
        ratio = self.mean_photons / (self.mean_photons + 1.0)
        return ratio ** np.arange(self.n_max + 1) / (self.mean_photons + 1.0)


def check_x_states(state: XStates) -> None:
    """Raise at the first entry of ``state`` that is not a two-atom X state.

    The fields may be scalars or equal-length arrays.  Checked to TRACE_TOL,
    in this order: populations in [0, 1] (ValueError), unit trace
    (TruncationError: a state that loses trace has lost it to the Fock
    truncation) and a positive semidefinite inner block [[x2, x3], [x4, x5]]
    (ValueError).  Every comparison is written so that a NaN entry fails it.
    """
    x1, x2, x3, x5, x6 = (np.atleast_1d(v) for v in state)
    populations = np.stack((x1, x2, x5, x6))
    bad = ~np.all((populations >= -TRACE_TOL) & (populations <= 1.0 + TRACE_TOL), axis=0)
    if bad.any():
        values = tuple(populations[:, bad.argmax()].tolist())
        raise ValueError(f"populations outside [0, 1]: {values}")
    trace = x1 + x2 + x5 + x6
    bad = ~(np.abs(trace - 1.0) <= TRACE_TOL)
    if bad.any():
        raise TruncationError(
            f"reduced-state trace is {float(trace[bad.argmax()])!r}; the Fock "
            "truncation is too coarse (decrease epsilon_tail)"
        )
    inner = 0.5 * (x2 + x5) - np.hypot(0.5 * (x2 - x5), np.abs(x3))
    bad = ~(inner >= -TRACE_TOL)
    if bad.any():
        i = bad.argmax()
        raise ValueError(
            f"coherence too large for the populations: |x3|={abs(x3[i]):.6g}, "
            f"x2={x2[i]:.6g}, x5={x5[i]:.6g}"
        )


class XStates(NamedTuple):
    """Two-atom X state in the basis (|gg>, |ge>, |eg>, |ee>).

    Only the X entries are stored: the populations x1, x2, x5, x6 and the
    single independent coherence x3 = <ge|rho|eg>, with x4 = conj(x3).  Each
    field is an array with one entry per time of a grid, or a Python scalar
    for one time.  The container does not check itself: the closed form and
    the oracle pass every state they return through :func:`check_x_states`.
    """

    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray  # complex coherence <ge|rho|eg>
    x5: np.ndarray
    x6: np.ndarray
