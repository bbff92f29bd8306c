"""Closed-form reduced dynamics: motion-averaged coupling, dressed sector
factors, and factorized Fock sums for the two-atom X state.

Each matrix element of the reduced state is a double thermal sum that
factorizes into a product of one sum per cavity, so the cost per time point is
linear in the Fock cutoff instead of quadratic.  A whole time grid is
evaluated at once, as (times x sectors) blocks spread over a few CPU threads.
"""

from __future__ import annotations

import os
import threading
from typing import Callable

import numpy as np

from .core import SystemParams, ThermalDistribution, XStates, check_times, check_x_states

# Entries of one (times x sectors) factor block.  It bounds the working memory
# for any grid length and cutoff.  Each numpy call on a block hands the
# interpreter lock between the workers once, so fewer, longer calls let a
# second worker earn more; on 2 vCPUs with 2 MB of L2 cache per core, 2^16
# beat both 2^15 and 2^17.
_BLOCK_ELEMENTS = 1 << 16
# Most worker threads, whatever the CPU count.  einsum, which holds the
# interpreter lock, takes about 40 % of the one-thread kernel, so by Amdahl's
# law more workers would add workspaces but little speed.
_MAX_WORKERS = 4
# Widest slice of photon numbers in one block.  The slices depend on the cutoffs
# alone, so a time's sums accumulate in the same order in any grid.
_SECTOR_BLOCK = 1 << 12
# Rows in one band, a thread's unit of work, unless one full-width block holds
# more.  A band's sums fill one buffer per worker and become x1..x6 at once.
_BAND_ROWS = 1 << 10


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
    check_times(t)
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


def _factors(ws: np.ndarray, g4: np.ndarray, quarter_t: np.ndarray, n: np.ndarray,
             delta: float) -> None:
    """Factors of the sectors ``n`` at each row's 4*g'^2 and t/4, written into
    the workspace ``ws`` = (swap, s, w, c), each of shape (rows, n.size).

    With l = sqrt(delta^2 + 4*g'^2*n) and s, c = sin, cos(l*t/2), a sector
    transfers with probability swap = s^2*sin^2(2*theta) and its other branch
    has amplitude c + i*w, w = s*cos(2*theta).  With u = tan(l*t/4), one SIMD
    loop where sin and cos are scalar, and d = 2/(1 + u^2): s = u*d, relatively
    exact near 0, and c = d - 1.  The angle enters through sin^2(2*theta) =
    4*g'^2*n/l^2 and cos(2*theta) = delta/l, sign(delta) at n = 0 for the exact
    phase exp(i*delta*t/2).  When delta^2 is 0, swap = s^2 and w, unwritten, is 0.
    """
    swap, s, w, c = ws
    # einsum forms the two row-times-column products in about half the time of
    # a broadcasting ufunc, and without its 64 KiB iterator buffer per operand
    np.einsum("i,j->ij", g4, n, out=swap)
    if delta * delta > 0.0:
        np.add(swap, delta * delta, out=s)
        np.divide(swap, s, out=swap)
        np.sqrt(s, out=s)
        np.divide(delta, s, out=w)
    else:
        np.sqrt(swap, out=s)
    np.einsum("ij,i->ij", s, quarter_t, out=c)
    np.tan(c, out=s)
    np.multiply(s, s, out=c)
    np.add(c, 1.0, out=c)
    np.divide(2.0, c, out=c)
    np.multiply(s, c, out=s)
    np.subtract(c, 1.0, out=c)
    if delta * delta > 0.0:
        np.multiply(w, s, out=w)
        np.multiply(s, s, out=s)
        np.multiply(swap, s, out=swap)
    else:
        np.multiply(s, s, out=swap)


def _spread(work: Callable[[int], None], workers: int) -> None:
    """Call ``work(k)`` for k < ``workers``: the caller is worker 0, the others
    run on threads.  A worker's exception is raised here once all have ended."""
    errors: list[BaseException | None] = [None] * workers

    def run(k: int) -> None:
        try:
            work(k)
        except BaseException as exc:  # re-raised in the caller after the join
            errors[k] = exc

    threads = [threading.Thread(target=run, args=(k,)) for k in range(1, workers)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    if any(errors):
        raise next(exc for exc in errors if exc is not None)


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
    ``params.g``.

    Only ``swap`` and (c, w) of :func:`_factors` are formed per sector, and the
    thermal sums are ``np.einsum`` reductions (survival = sum(P) - sum(P*swap)).
    Photon numbers are cut into slices at every ``_SECTOR_BLOCK`` and at each
    cavity's cutoff, so each cavity sums over its own slices only.  The grid
    goes to one worker per ``_BLOCK_ELEMENTS`` factors, up to the CPUs in the
    affinity set and at most ``_MAX_WORKERS`` (``taskset -c 0`` gives one
    thread; see :func:`_spread`), in bands of ``_BAND_ROWS`` rows or one
    full-width block; band k goes to worker k mod W.  A worker forms g'(t) of
    a band, sums each slice over it in blocks of at most ``_BLOCK_ELEMENTS``
    factors, reusing one workspace, and forms the band's x1..x6 at once, so a
    narrow slice costs a few numpy calls per band, not per block.  The working
    memory beyond the outputs is thus bounded by a constant.  A time's elements
    are bit-identical in any grid, block, band or worker.

    Raises what :func:`~thermaljc.core.check_x_states` raises for a row that
    is not a valid X state: TruncationError for a trace off 1 (the Fock
    truncation is too coarse), ValueError otherwise.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"times must be a one-dimensional array, got shape {t.shape}")
    check_times(t)
    delta = params.delta
    probs = [dist_a.probabilities()] + ([] if dist_b == dist_a else [dist_b.probabilities()])
    totals = [float(np.sum(p)) for p in probs]
    count = max(p.size for p in probs) + 1  # sectors 0..N + 1 of the wider cavity
    ends = sorted({*range(0, count - 1, _SECTOR_BLOCK), *(p.size for p in probs)})
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    workers = max(1, min(cpus, _MAX_WORKERS, t.size, -(-t.size * count // _BLOCK_ELEMENTS)))
    band_rows = max(_BAND_ROWS, _BLOCK_ELEMENTS // count)  # most rows in one band
    bands = min(t.size, workers * -(-t.size // (workers * band_rows)))
    tall = -(-t.size // max(bands, 1))
    # slice [lo, hi): its sectors n = lo..hi, rows per block, cavities reaching lo
    slices = [(np.arange(lo, hi + 1.0), max(1, min(tall, _BLOCK_ELEMENTS // (hi - lo + 1))),
               [(i, p[lo:hi]) for i, p in enumerate(probs) if p.size > lo])
              for lo, hi in zip(ends, ends[1:])]
    x1, x2, x5, x6 = (np.empty(t.size) for _ in range(4))
    x3 = np.empty(t.size, dtype=complex)

    def work(worker: int) -> None:
        # four arrays 64-byte apart, so that SIMD loops see them equally aligned
        ws = np.empty((4, -(-max(h * n.size for n, h, _ in slices) // 8) * 8))
        blocks = [ws[:, : h * n.size].reshape(4, h, n.size) for n, h, _ in slices]
        # per cavity and band row: sum(P*swap) over ground and excited sectors,
        # then sum(P*c*c), sum(P*w*w), sum(P*c*w), sum(P*w*c) over sectors n, n + 1
        sums, part = np.zeros((2, len(probs), 6, tall))
        for k in range(worker, bands, workers):
            first, last = k * t.size // bands, (k + 1) * t.size // bands
            g_eff = effective_coupling(params, t[first:last])
            g4, quarter_t = 4.0 * g_eff * g_eff, 0.25 * t[first:last]
            for (n, h, cavities), block in zip(slices, blocks):
                acc = part if n[0] else sums
                for r0 in range(0, last - first, h):
                    rows = slice(r0, min(r0 + h, last - first))
                    swap, _, w, c = view = block[:, : rows.stop - r0]
                    _factors(view, g4[rows], quarter_t[rows], n, delta)
                    pairs = ((c, c), (w, w), (c, w), (w, c)) if delta * delta > 0.0 else ((c, c),)
                    for i, pk in cavities:
                        out = acc[i, :, rows]
                        np.einsum("ij,j->i", swap[:, :-1], pk, out=out[0])
                        np.einsum("ij,j->i", swap[:, 1:], pk, out=out[1])
                        for total, (u, v) in zip(out[2:], pairs):
                            np.einsum("ij,ij,j->i", u[:, :-1], v[:, 1:], pk, out=total)
                if n[0]:
                    for i, _ in cavities:
                        sums[i, :, : last - first] += part[i, :, : last - first]
            sides = [
                (total - sg, sg, total - se, se, cc - ww, cw + wc)
                for total, (sg, se, cc, ww, cw, wc) in zip(totals, sums[:, :, : last - first])
            ]
            (ad, af, aa, ab, ar, ai), (bd, bf, ba, bb, br, bi) = sides[0], sides[-1]
            rows = slice(first, last)
            x1[rows] = 0.5 * (ab * bd + ad * bb)
            x2[rows] = 0.5 * (ab * bf + ad * ba)
            # x3 = coh_a * conj(coh_b) / 2 in real arithmetic, so that it is exactly
            # real for equal cavities and exactly conjugated when the cavities swap
            x3.real[rows] = 0.5 * (ar * br + ai * bi)
            x3.imag[rows] = 0.5 * (ai * br - ar * bi)
            x5[rows] = 0.5 * (aa * bd + af * bb)
            x6[rows] = 0.5 * (aa * bf + af * ba)

    _spread(work, workers)
    state = XStates(x1, x2, x3, x5, x6)
    check_x_states(state)
    return state


def density_matrix(
    params: SystemParams,
    dist_a: ThermalDistribution,
    dist_b: ThermalDistribution,
    t: float,
) -> XStates:
    """Reduced two-atom state at time t, as Python scalars: the one-point view
    of :func:`states`."""
    grid = states(params, dist_a, dist_b, np.array([t], dtype=float))
    return XStates._make(v.item() for v in grid)
