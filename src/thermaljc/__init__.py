"""Closed-form dynamics of two moving two-level atoms, each coupled to its own
single-mode thermal cavity, with entanglement, purity, and energy tracking.

The closed-form route (:mod:`thermaljc.dynamics`) evaluates the reduced
two-atom X state through factorized thermal sums; the brute-force route
(:mod:`thermaljc.oracle`) rebuilds the same state by explicit evolution of each
atom-cavity pair and a field trace over a truncated Fock space, and exists to
check the first.
:mod:`thermaljc.sweep` turns either into time series and parameter scans, and
:mod:`thermaljc.cli` serializes results as CSV/JSON/SVG.
"""

from .core import SystemParams, ThermalDistribution, TruncationError, XStates
from .dynamics import density_matrix, states
from .observables import concurrence, energy, purity
from .sweep import TimeSeries, time_series

__version__ = "0.1.0"

__all__ = [
    "SystemParams",
    "ThermalDistribution",
    "TimeSeries",
    "TruncationError",
    "XStates",
    "concurrence",
    "density_matrix",
    "energy",
    "purity",
    "states",
    "time_series",
    "__version__",
]
