"""Test-only views of the model's objects: the dense matrix of an X state, its
trace, the size of a dense state's entries outside the X pattern, the
concurrence of any two-qubit state, and the oracle's field trace by explicit
photon matching.  Also the float encoder's tables, one entry at a time."""

import numpy as np

_X_PATTERN = np.eye(4, dtype=bool)
_X_PATTERN[1, 2] = _X_PATTERN[2, 1] = True
_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)


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


def field_trace_by_photon_match(
    amp: np.ndarray, photon: np.ndarray, probs: np.ndarray
) -> np.ndarray:
    """The thermal field trace of one pair, (times, 2, 2, 2, 2), as the sum
    over n of every level pair whose photon numbers match at that n:
    [i, a, a', l, l'] = sum_n P_n amp[i, a, n, l] conj(amp[i, a', n, l'])
    [photon[a, n, l] == photon[a', n, l']].  No pairing is assumed to be the
    same at every n."""
    k = probs.size
    amp, photon = amp[:, :, :k], photon[:, :k]
    match = photon[:, None, :, :, None] == photon[None, :, :, None, :]
    weight = probs[:, None, None] * match  # [a, a', n, l, l']
    return np.einsum("tanl,tbnm,abnlm->tablm", amp, amp.conj(), weight)


def schubfach_rows_per_k(k_min: int, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Schubfach's g rows [g mod 2**63, g >> 63] and floor(log2 10**-k) for
    k_min <= k <= k_max, each k by its own powers of ten and one big-integer
    division: 10**-k = beta 2**r with 2**125 <= beta < 2**126, g = floor(beta) + 1."""

    def floor_log2_pow10(e: int) -> int:
        # 10**m is not a power of two for m >= 1, so floor(-m log2 10) = -bit_length
        return (10**e).bit_length() - 1 if e >= 0 else -(10**-e).bit_length()

    g, log2 = [], []
    for k in range(k_min, k_max + 1):
        log2.append(floor_log2_pow10(-k))
        r = log2[-1] - 125
        beta = (10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0))
        g.append(((beta + 1) & ((1 << 63) - 1), (beta + 1) >> 63))
    return np.ascontiguousarray(np.array(g, np.uint64).T), np.array(log2, np.int64)


def text_rows_per_text(texts: list[str], width: int) -> np.ndarray:
    """ASCII ``texts`` as rows of ``width`` bytes, NUL-padded, one row at a time."""
    rows = np.zeros((len(texts), width), np.uint8)
    for row, text in zip(rows, texts):
        row[: len(text)] = np.frombuffer(text.encode(), np.uint8)
    return rows
