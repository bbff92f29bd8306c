"""Test-only views of the model's objects: the dense matrix of an X state, its
trace, and the size of a dense state's entries outside the X pattern."""

import numpy as np

_X_PATTERN = np.eye(4, dtype=bool)
_X_PATTERN[1, 2] = _X_PATTERN[2, 1] = True


def x_matrix(rho) -> np.ndarray:
    """Dense 4x4 complex matrix of an X state (x1, x2, x3, x5, x6) in the basis
    (|gg>, |ge>, |eg>, |ee>)."""
    x3 = complex(rho.x3)
    return np.array(
        [
            [rho.x1, 0.0, 0.0, 0.0],
            [0.0, rho.x2, x3, 0.0],
            [0.0, x3.conjugate(), rho.x5, 0.0],
            [0.0, 0.0, 0.0, rho.x6],
        ],
        dtype=complex,
    )


def x_trace(rho):
    """Trace of an X state: the sum of its four populations."""
    return rho.x1 + rho.x2 + rho.x5 + rho.x6


def max_off_x_magnitude(m: np.ndarray) -> float:
    """Largest entry of a (times, 4, 4) stack outside the X pattern (diagonal
    plus the anti-diagonal coherence pair) over the grid; exactly zero for the
    model's symmetric initial state."""
    return float(np.max(np.abs(m[:, ~_X_PATTERN]), initial=0.0))
