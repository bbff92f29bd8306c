"""Test-only views of the model's objects: the dense matrix of an X state."""

import numpy as np


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
