"""Closed-form reduced dynamics: motion-averaged coupling, dressed sector
factors, and factorized Fock sums for the two-atom X state.

Each matrix element of the reduced state is a double thermal sum that
factorizes into a product of one sum per cavity, so the cost per time point is
linear in the Fock cutoff instead of quadratic.  A whole time grid is
evaluated at once, as (times x sectors) blocks spread over a few CPU threads.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Callable, Sequence

import numpy as np

from .core import SystemParams, ThermalDistribution, XStates, check_times, check_x_states

# Entries of one (times x sectors) factor block.  It bounds the working memory
# for any grid length and cutoff.  Each numpy call on a block hands the
# interpreter lock between the workers once, so fewer, longer calls let a
# second worker earn more; on 2 vCPUs with 2 MB of L2 cache per core, 2^16
# beat both 2^15 and 2^17.
_BLOCK_ELEMENTS = 1 << 16
# Whole factor blocks of the grid per worker thread.  A worker beyond the
# caller costs a thread start, a fresh malloc arena and a 1.5 MiB workspace,
# which a grid of a few blocks does not earn back: on 2 vCPUs, in a fresh
# process's first call, a second worker lost time at 2 to 5 blocks, tied at 6
# and won from 9, and on the figure pipeline's 4.7-block grids (2001 times x
# 153 sectors) it added about 1.9 MB to the pass's peak RSS (with a 2 MiB
# workspace).
_BLOCKS_PER_WORKER = 3
# Most worker threads, whatever the CPU count.  einsum holds the interpreter
# lock and takes about half of the one-thread kernel (52 % at hot_bath size);
# the other calls can overlap it, so no worker count runs more than about
# twice as fast as one, and more workers would add workspaces but little speed.
_MAX_WORKERS = 4
# Widest slice of photon numbers in one block.  The slices depend on the cutoffs
# alone, so a time's sums accumulate in the same order in any grid.
_SECTOR_BLOCK = 1 << 12
# Rows in one band, a thread's unit of work, unless one full-width block holds
# more.  A band's sums fill one buffer per worker and become x1..x6 at once.
_BAND_ROWS = 1 << 10
# A thermal sum over a block's rows: with one factor array (a transfer
# probability at delta = 0) or with two, always weighted per sector.
_SUMS = {2: "ij,j->i", 3: "ij,ij,j->i"}


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
    g_eff = _coupling(params, t)
    return float(g_eff) if g_eff.ndim == 0 else g_eff


def _coupling(params: SystemParams, t: np.ndarray) -> np.ndarray:
    """g'(t) of :func:`effective_coupling` at the checked times t."""
    if not params.motion_enabled:
        return np.full(t.shape, params.g)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(
            t > 0.0, 2.0 * np.sin(0.5 * (params.p * params.g * t)) ** 2 / (params.p * t), 0.0
        )


def _factors(ws: np.ndarray, g4: np.ndarray, quarter_t: np.ndarray, n: np.ndarray,
             delta: float) -> None:
    """Factors of the sectors ``n`` at each row's 4*g'^2 and t/4, written into
    the workspace ``ws`` = (scratch, v, c), each of shape (rows, n.size).

    With l = sqrt(delta^2 + 4*g'^2*n) and s, c = sin, cos(l*t/2), a sector
    transfers with probability 4*g'^2*n*(s/l)^2 and its other branch has
    amplitude c + i*delta*s/l, exp(i*delta*t/2) at n = 0.  With u = tan(l*t/4),
    one SIMD loop where sin and cos are scalar, and d = 2/(1 + u^2): s = u*d,
    relatively exact near 0, and c = d - 1.  When delta^2 is not 0,
    v = l1*(s/l), with l1 = sqrt(delta^2 + 4*g'^2) the l of sector 1, and the
    factors 4*g'^2/l1^2 and delta/l1 are left to the sums.  v holds no
    subtraction, is at most 1 from sector 1 on, and its square stays normal
    wherever the transfer probability does, at any g; s/l alone is about
    t/2, whose square underflows below t = 1e-154.  Otherwise v is the
    transfer probability s^2.
    """
    s, v, c = ws  # v holds l until the last pass
    # einsum forms the row-times-column products in about half the time of
    # a broadcasting ufunc, and without its 64 KiB iterator buffer per operand
    np.einsum("i,j->ij", g4, n, out=v)
    if delta * delta > 0.0:
        np.add(v, delta * delta, out=v)
    np.sqrt(v, out=v)
    if delta * delta > 0.0 and n[0] == 0.0:
        # sector 0's l is |delta|, which sqrt(delta^2) misses where delta^2
        # is subnormal (by 5.6e-6 relative at delta = 1e-160)
        v[:, 0] = abs(delta)
    np.einsum("ij,i->ij", v, quarter_t, out=c)
    np.tan(c, out=s)
    np.multiply(s, s, out=c)
    np.add(c, 1.0, out=c)
    np.divide(2.0, c, out=c)
    np.multiply(s, c, out=s)
    np.subtract(c, 1.0, out=c)
    if delta * delta > 0.0:
        np.divide(s, v, out=s)
        np.einsum("ij,i->ij", s, np.sqrt(g4 + delta * delta), out=v)
    else:
        np.multiply(s, s, out=v)


def _pin(cpus: set[int]) -> None:
    """Keep the calling thread to ``cpus``, where the system allows it."""
    with contextlib.suppress(OSError):  # a CPU absent or no longer allowed
        os.sched_setaffinity(threading.get_native_id(), cpus)


def _spread(work: Callable[[int], None], workers: int, cpus: list[int]) -> None:
    """Call ``work(k)`` for k < ``workers``: the caller is worker 0, the others
    run on threads.  When there are two or more workers and as many as
    ``cpus``, worker k first pins itself to CPU ``cpus[k]`` alone, so that two
    cannot share a CPU while another idles, and the caller gets its previous
    mask back at the end.  With fewer workers than CPUs none is pinned: the
    kernels of concurrent processes would all crowd onto the lowest CPUs.  A
    worker's exception is raised here once all have ended."""
    errors: list[BaseException | None] = [None] * workers
    pin = 1 < workers == len(cpus) and hasattr(os, "sched_setaffinity")
    mask = os.sched_getaffinity(0) if pin else set()

    def run(k: int) -> None:
        try:
            if pin:
                _pin({cpus[k]})
            work(k)
        except BaseException as exc:  # re-raised in the caller after the join
            errors[k] = exc

    # the threads start before the caller pins itself: a thread inherits the
    # mask of the thread that starts it
    threads = [threading.Thread(target=run, args=(k,)) for k in range(1, workers)]
    for thread in threads:
        thread.start()
    try:
        run(0)
    finally:
        if pin:
            _pin(mask)
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

    Only v and c of :func:`_factors` are formed per sector, and the thermal
    sums are ``np.einsum`` reductions (survival = sum(P) - sum(P*swap)).
    Photon numbers are cut into slices at every ``_SECTOR_BLOCK`` and at each
    cavity's cutoff, so each cavity sums over its own slices only.  The grid
    goes to one worker per ``_BLOCKS_PER_WORKER`` whole blocks of
    ``_BLOCK_ELEMENTS`` factors, at least one, up to the CPUs in the
    affinity set and at most ``_MAX_WORKERS`` (``taskset -c 0`` gives one
    thread; as many as the set each run on their own CPU of it, see
    :func:`_spread`), in bands of ``_BAND_ROWS`` rows or one
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
    return stacked_states([params], dist_a, dist_b, t)


def stacked_states(
    params: Sequence[SystemParams],
    dist_a: ThermalDistribution,
    dist_b: ThermalDistribution,
    t: np.ndarray,
) -> XStates:
    """:func:`states` of every configuration ``params[j]`` at every time of
    t, in one call: row j*t.size + i holds configuration j at time i, and
    its elements are bit-identical to that call of :func:`states`.  The
    configurations differ only where g'(t) is formed (p, g, motion), which a
    band forms over each configuration's rows in it; they must share delta,
    or ValueError is raised.  Raises what :func:`states` raises for any row."""
    grid = np.asarray(t, dtype=float)
    if grid.ndim != 1:
        raise ValueError(f"times must be a one-dimensional array, got shape {grid.shape}")
    check_times(grid)
    if len({config.delta for config in params}) != 1:
        raise ValueError("stacked configurations must share one delta")
    delta, size = params[0].delta, grid.size
    t = grid if len(params) == 1 else np.tile(grid, len(params))  # the rows

    def coupling(first: int, last: int) -> np.ndarray:
        """g'(t) of the rows [first, last)."""
        parts = [_coupling(params[j], grid[max(first - j * size, 0) : last - j * size])
                 for j in range(first // size, -(-last // size))]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    probs = [dist_a.probabilities()] + ([] if dist_b == dist_a else [dist_b.probabilities()])
    totals = [float(np.sum(p)) for p in probs]
    count = max(p.size for p in probs) + 1  # sectors 0..N + 1 of the wider cavity
    ends = sorted({*range(0, count - 1, _SECTOR_BLOCK), *(p.size for p in probs)})
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = sorted(affinity(0)) if affinity else list(range(os.cpu_count() or 1))
    workers = max(1, min(len(cpus), _MAX_WORKERS, t.size,
                         t.size * count // (_BLOCKS_PER_WORKER * _BLOCK_ELEMENTS)))
    band_rows = max(_BAND_ROWS, _BLOCK_ELEMENTS // count)  # most rows in one band
    bands = min(t.size, workers * -(-t.size // (workers * band_rows)))
    tall = -(-t.size // max(bands, 1))
    detuned = delta * delta > 0.0
    # slice [lo, hi): its sectors n = lo..hi, rows per block, cavities reaching lo
    slices = [(np.arange(lo, hi + 1.0), max(1, min(tall, _BLOCK_ELEMENTS // (hi - lo + 1))),
               [(i, p[lo:hi]) for i, p in enumerate(probs) if p.size > lo])
              for lo, hi in zip(ends, ends[1:])]
    x1, x2, x5, x6 = (np.empty(t.size) for _ in range(4))
    x3 = np.empty(t.size, dtype=complex)

    def work(worker: int) -> None:
        # three arrays 64-byte apart, so that SIMD loops see them equally aligned
        ws = np.empty((3, -(-max(h * n.size for n, h, _ in slices) // 8) * 8))
        blocks = [ws[:, : h * n.size].reshape(3, h, n.size) for n, h, _ in slices]
        # per cavity and band row, with swap the transfer probability and
        # w = delta*s/l: sum(P*swap) over ground and excited sectors, then
        # sum(P*c*c), sum(P*w*w), sum(P*c*w), sum(P*w*c) over sectors n, n + 1,
        # when detuned without their factors 4*g'^2/l1^2, (delta/l1)^2 or
        # delta/l1 until the band's slices are summed
        sums, part = np.zeros((2, len(probs), 6, tall))
        for k in range(worker, bands, workers):
            first, last = k * t.size // bands, (k + 1) * t.size // bands
            g_eff = coupling(first, last)
            g4, quarter_t = 4.0 * g_eff * g_eff, 0.25 * t[first:last]
            for (n, h, cavities), block in zip(slices, blocks):
                acc = part if n[0] else sums
                # per cavity: P_n and the weights of the two transfer sums,
                # P_n*n and P_n*(n + 1) when detuned and P_n otherwise, formed
                # per slice so that no buffer grows with the cutoff.  Detuned,
                # the ground sum leaves out sector 0: its weight is 0, but its
                # v = l1*t/2 near 0 can square to infinity
                skip = int(detuned and n[0] == 0.0)
                weights = [(i, pk, pk[skip:] * n[skip:-1], pk * n[1:]) if detuned
                           else (i, pk, pk, pk) for i, pk in cavities]
                for r0 in range(0, last - first, h):
                    rows = slice(r0, min(r0 + h, last - first))
                    _, v, c = view = block[:, : rows.stop - r0]
                    _factors(view, g4[rows], quarter_t[rows], n, delta)
                    v0, v1, c0, c1 = v[:, :-1], v[:, 1:], c[:, :-1], c[:, 1:]
                    vg = v[:, skip:-1]
                    for i, pk, ground, excited in weights:
                        terms = (((vg, vg, ground), (v1, v1, excited), (c0, c1, pk),
                                  (v0, v1, pk), (c0, v1, pk), (v0, c1, pk))
                                 if detuned else ((v0, ground), (v1, excited), (c0, c1, pk)))
                        for total, operands in zip(acc[i, :, rows], terms):
                            np.einsum(_SUMS[len(operands)], *operands, out=total)
                if n[0]:
                    for i, _ in cavities:
                        sums[i, :, : last - first] += part[i, :, : last - first]
            band = sums[:, :, : last - first]
            if detuned:
                l1 = np.sqrt(g4 + delta * delta)
                band[:, :2] *= g4 / (l1 * l1)
                band[:, 3:] *= delta / l1
                band[:, 3] *= delta / l1  # twice: (delta/l1)^2 alone can underflow
            sides = [
                (total - sg, sg, total - se, se, cc - ww, cw + wc)
                for total, (sg, se, cc, ww, cw, wc) in zip(totals, band)
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

    _spread(work, workers, cpus)
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
