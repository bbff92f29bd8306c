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

from .core import (
    DEFAULT_EPSILON_TAIL,
    TRACE_TOL,
    AtomicDensityMatrix,
    SystemParams,
    ThermalDistribution,
    TruncationError,
    truncation_index,
)
from .dynamics import (
    density_matrix,
    effective_coupling,
    states,
)
from .observables import concurrence, energy, purity
from .oracle import (
    ORACLE_TOL,
    JointDensity,
    ValidationResult,
    max_route_deviation,
    oracle_density_matrix,
    oracle_joint_density,
    validation_grid,
    wootters_concurrence_general,
)
from .sweep import (
    DEAD_THRESHOLD,
    SweepReport,
    TimeSeries,
    dead_intervals,
    scan,
    time_series,
    verified_period,
)

__version__ = "0.1.0"

__all__ = [
    "AtomicDensityMatrix",
    "DEAD_THRESHOLD",
    "DEFAULT_EPSILON_TAIL",
    "JointDensity",
    "ORACLE_TOL",
    "SweepReport",
    "SystemParams",
    "ThermalDistribution",
    "TimeSeries",
    "TRACE_TOL",
    "TruncationError",
    "ValidationResult",
    "concurrence",
    "dead_intervals",
    "density_matrix",
    "effective_coupling",
    "energy",
    "max_route_deviation",
    "oracle_density_matrix",
    "oracle_joint_density",
    "purity",
    "scan",
    "states",
    "time_series",
    "truncation_index",
    "validation_grid",
    "verified_period",
    "wootters_concurrence_general",
    "__version__",
]
