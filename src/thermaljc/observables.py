"""Observables of the two-atom X state: entanglement, purity, energy."""

from __future__ import annotations

import numpy as np

from .core import XStates


def concurrence(rho: XStates) -> float | np.ndarray:
    """Entanglement of an X state: 2*max{0, |x3| - sqrt(x1*x6)}.

    For the stored X structure the spin-flip spectrum is available in closed
    form and reduces to this expression; the clip to zero marks separability.
    Like :func:`purity` and :func:`energy`, it takes one state or the arrays
    of a whole grid and evaluates elementwise.
    """
    x1 = np.maximum(rho.x1, 0.0)  # guard vanishing populations against -1e-16 noise
    x6 = np.maximum(rho.x6, 0.0)
    return 2.0 * np.maximum(0.0, np.abs(rho.x3) - np.sqrt(x1 * x6))


def purity(rho: XStates) -> float | np.ndarray:
    """Tr(rho^2) = x1^2 + x2^2 + x5^2 + x6^2 + 2*|x3|^2, in [1/4, 1]."""
    return (
        rho.x1 * rho.x1
        + rho.x2 * rho.x2
        + rho.x5 * rho.x5
        + rho.x6 * rho.x6
        + 2.0 * np.abs(rho.x3) ** 2
    )


def energy(rho: XStates) -> float | np.ndarray:
    """Mean atomic excitation energy x6 - x1 (both atoms, units of the atomic
    splitting).  Zero for the initial one-excitation Bell state; -1 and +1 are
    reached only by |gg> and |ee>."""
    return rho.x6 - rho.x1
