"""Closed-form reduced dynamics: motion-averaged coupling, dressed sector
factors, and factorized Fock sums for the two-atom X state.

Each cavity acts on its atom as a channel, one thermal sum per element, and
the reduced state is assembled from the two channels, so the cost per time
point is linear in the Fock cutoff instead of quadratic.  A whole time grid is
evaluated at once, as (times x sectors) blocks spread over a few CPU threads.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Callable, Sequence

import numpy as np

from .core import Config, SystemParams, ThermalDistribution, XStates, check_times, check_x_states

# Entries of one (times x sectors) factor block.  It bounds the working memory
# for any grid length and cutoff.  A numpy call runs its loop without the
# interpreter lock but is set up under it, so fewer, longer calls let a second
# worker earn more; on 2 vCPUs with 2 MB of L2 cache per core, 2^16 beat
# both 2^15 (15-20 % slower) and 2^17.
_BLOCK_ELEMENTS = 1 << 16
# Whole factor blocks of the grid per worker thread.  A worker beyond the
# caller costs a thread start, a fresh malloc arena and a 1 MiB workspace,
# which a grid of a few blocks does not earn back: on 2 vCPUs, in a fresh
# process's first call, a second worker lost time at 2 to 5 blocks, tied at 6
# and won from 9, and on the figure pipeline's 4.7-block grids (2001 times x
# 153 sectors) it added about 1.9 MB to the pass's peak RSS (with a 2 MiB
# workspace).
_BLOCKS_PER_WORKER = 3
# Most worker threads, whatever the CPU count, so that the workspaces stay
# bounded on any machine.  The numpy loops, einsum's too, run without the
# interpreter lock: two threads pinned to their own CPUs ran a hot_bath
# block's six einsum sums 1.85 times as fast as one (1.0 unpinned on 2 vCPUs).
_MAX_WORKERS = 4
# Widest slice of photon numbers in one block.  A cavity's slices depend on its
# cutoff alone, so a time's sums accumulate in the same order in any grid.
_SECTOR_BLOCK = 1 << 12
# Rows in one band, a thread's unit of work, unless one full-width block holds
# more.  A band's channels fill one buffer per worker and become x1..x6 at once.
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
    the workspace ``ws`` = (v, c), each of shape (rows, n.size).

    With l = sqrt(delta^2 + 4*g'^2*n) and s, c = sin, cos(l*t/2), a sector
    transfers with probability 4*g'^2*n*(s/l)^2 and its other branch has
    amplitude c + i*delta*s/l, exp(i*delta*t/2) at n = 0.  With u = tan(l*t/4),
    one SIMD loop where sin and cos are scalar, and d = 2/(1 + u^2): s = u*d,
    relatively exact near 0, and c = d - 1.  When delta^2 is not 0,
    v = ((l1/l)*u)*d = l1*(s/l), with l1 = sqrt(delta^2 + 4*g'^2) the l of
    sector 1 (sector 0, whose l1/l can overflow, takes ((u*d)/l)*l1), and the
    factors 4*g'^2/l1^2 and delta/l1 are left to :func:`_channel`.  v holds no
    subtraction, l1/l <= 1 from sector 1 on, and v^2 stays normal wherever the
    transfer probability does, at any g; s/l alone is about t/2, whose square
    underflows below t = 1e-154.  Otherwise v is the transfer probability s^2.
    """
    v, c = ws
    detuned = delta * delta > 0.0
    sector0 = detuned and n[0] == 0.0
    lam, u = (v, c) if detuned else (c, v)  # l, then the angle and its tangent
    # einsum forms the row-times-column products in about half the time of
    # a broadcasting ufunc, and without its 64 KiB iterator buffer per operand
    np.einsum("i,j->ij", g4, n, out=lam)
    if detuned:
        np.add(lam, delta * delta, out=lam)
    np.sqrt(lam, out=lam)
    if sector0:
        # sector 0's l is |delta|, which sqrt(delta^2) misses where delta^2
        # is subnormal (by 5.6e-6 relative at delta = 1e-160)
        lam[:, 0] = abs(delta)
    np.einsum("ij,i->ij", lam, quarter_t, out=u)
    np.tan(u, out=u)
    if detuned:
        l1 = np.sqrt(g4 + delta * delta)
        if sector0:  # sector 0's u, and a finite l1/l until its own v is formed
            u0, v[:, 0] = c[:, 0].copy(), l1
        np.divide(l1[:, None], v, out=v)
        np.multiply(v, c, out=v)
    np.multiply(u, u, out=c)
    np.add(c, 1.0, out=c)
    np.divide(2.0, c, out=c)
    np.multiply(v, c, out=v)
    if sector0:
        v[:, 0] = u0 * c[:, 0] / abs(delta) * l1
    np.subtract(c, 1.0, out=c)
    if not detuned:
        np.multiply(v, v, out=v)


def _cavity(probs: np.ndarray) -> tuple[float, list[tuple[np.ndarray, np.ndarray]]]:
    """sum(P) of one cavity's weights P, and its photon numbers in slices [lo,
    hi), cut at every ``_SECTOR_BLOCK`` and at its own cutoff: per slice, its
    sectors n = lo..hi and its P_n."""
    ends = [*range(0, probs.size, _SECTOR_BLOCK), probs.size]
    return float(np.sum(probs)), [(np.arange(lo, hi + 1.0), probs[lo:hi])
                                  for lo, hi in zip(ends, ends[1:])]


def _channel(out: np.ndarray, ws: np.ndarray, g4: np.ndarray, quarter_t: np.ndarray,
             delta: float, mass: float, slices: list) -> None:
    """One cavity's channel at each row's 4*g'^2 and t/4, written into ``out``
    = (d, f, a, b, r, i), each of shape (rows,): the transfer matrix D, rows
    (d, f) and (b, a) from g and e, columns to g and e, and the coherence
    factor m = r + i*i; the oracle's M[a, a, l, l] and conj(M[e, g, e, g]).
    ``mass`` and ``slices`` are what :func:`_cavity` gives, each slice summed
    in blocks of at most ``_BLOCK_ELEMENTS`` factors in the workspace ``ws``.
    With swap the transfer probability and w = delta*s/l: f, b = sum(P*swap)
    over ground and excited sectors, d, a = sum(P) less them, and r, i =
    sum(P*(c*c - w*w)), sum(P*(c*w + w*c)) over sectors n, n + 1."""
    detuned = delta * delta > 0.0
    out[::2] = 0.0  # the w-sums, which resonance leaves at 0: r = sum(P*c*c), i = 0
    for n, pk in slices:
        acc = np.zeros_like(out) if n[0] else out  # a later slice adds its own sums
        h = max(1, min(g4.size, _BLOCK_ELEMENTS // n.size))
        block = ws[:, : h * n.size].reshape(2, h, n.size)
        # the transfer sums' weights, P_n*n and P_n*(n + 1) when detuned and
        # P_n otherwise, formed per slice so that no buffer grows with the
        # cutoff.  Detuned, the ground sum leaves out sector 0: its weight is
        # 0, but its v = l1*t/2 near 0 can square to infinity
        skip = int(detuned and n[0] == 0.0)
        ground, excited = (pk[skip:] * n[skip:-1], pk * n[1:]) if detuned else (pk, pk)
        for r0 in range(0, g4.size, h):
            rows = slice(r0, r0 + h)
            v, c = view = block[:, : g4[rows].size]
            _factors(view, g4[rows], quarter_t[rows], n, delta)
            v0, v1, c0, c1, vg = v[:, :-1], v[:, 1:], c[:, :-1], c[:, 1:], v[:, skip:-1]
            # (c*w, swap, w*c, swap, w*w, c*c), made (d, f, a, b, r, i) in place
            terms = ({0: (c0, v1, pk), 1: (vg, vg, ground), 2: (v0, c1, pk),
                      3: (v1, v1, excited), 4: (v0, v1, pk), 5: (c0, c1, pk)} if detuned
                     else {1: (v0, ground), 3: (v1, excited), 5: (c0, c1, pk)})
            for k, operands in terms.items():
                np.einsum(_SUMS[len(operands)], *operands, out=acc[k, rows])
        if n[0]:
            out += acc
    if detuned:
        l1 = np.sqrt(g4 + delta * delta)
        out[1:4:2] *= g4 / (l1 * l1)
        out[::2] *= delta / l1
        out[4] *= delta / l1  # twice: (delta/l1)^2 alone can underflow
    np.subtract(out[5], out[4], out=out[4])
    np.add(out[0], out[2], out=out[5])
    np.subtract(mass, out[1:4:2], out=out[:3:2])


def _assemble(state: XStates, rows: slice, a: np.ndarray, b: np.ndarray) -> None:
    """The ``rows`` of ``state`` from the channels a, b of cavities A, B (:func:`_channel`)."""
    (ad, af, aa, ab, ar, ai), (bd, bf, ba, bb, br, bi) = a, b
    state.x1[rows] = 0.5 * (ab * bd + ad * bb)
    state.x2[rows] = 0.5 * (ab * bf + ad * ba)
    # x3 = m_a * conj(m_b) / 2 in real arithmetic, so that it is exactly real
    # for equal cavities and exactly conjugated when the cavities swap
    state.x3.real[rows] = 0.5 * (ar * br + ai * bi)
    state.x3.imag[rows] = 0.5 * (ai * br - ar * bi)
    state.x5[rows] = 0.5 * (aa * bd + af * bb)
    state.x6[rows] = 0.5 * (aa * bf + af * ba)


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

    Each cavity acts on its atom as a channel (:func:`_channel`), formed once
    when the cavities are equal, and one assembly forms the X state from the
    two (:func:`_assemble`).  The grid goes in bands of ``_BAND_ROWS`` rows,
    or one full-width block, to one worker per ``_BLOCKS_PER_WORKER`` whole
    blocks of ``_BLOCK_ELEMENTS`` factors, at most ``_MAX_WORKERS`` and the
    CPUs of the affinity set (``taskset -c 0`` gives one; see :func:`_spread`).
    Band k goes to worker k mod W, which writes each channel over the band in
    one workspace and assembles the band at once.  The working memory beyond
    the outputs is bounded by a constant, and a time's elements are
    bit-identical in any grid, block, band or worker.

    Raises what :func:`~thermaljc.core.check_x_states` raises for a row that
    is not a valid X state: TruncationError for a trace off 1 (the Fock
    truncation is too coarse), ValueError otherwise.
    """
    return stacked_states([(params, dist_a, dist_b)], t)


def stacked_states(configs: Sequence[Config], t: np.ndarray) -> XStates:
    """:func:`states` of every configuration (params, dist_a, dist_b) of
    ``configs`` at every time of t, in one call: row j*t.size + i holds
    configuration j at time i, and its elements are bit-identical to that
    call of :func:`states`; they may differ in any parameter, delta too.  A
    band forms g'(t) over each configuration's rows in it.  The rows of one
    cavity pair and delta form a span, in the order its pair first appears,
    which writes the channel of each distinct cavity of the pair: an equal
    pair's one channel is A and B, copied to B's buffer where unequal pairs
    need one.  Each band is assembled once.  Raises ValueError for an empty
    ``configs`` and what :func:`states` raises for any row."""
    grid = np.asarray(t, dtype=float)
    if grid.ndim != 1:
        raise ValueError(f"times must be a one-dimensional array, got shape {grid.shape}")
    check_times(grid)
    if not configs:
        raise ValueError("stacked routes need at least one configuration")
    pairs: dict[tuple, list[int]] = {}
    for j, (params, dist_a, dist_b) in enumerate(configs):
        pairs.setdefault((dist_a, dist_b, params.delta), []).append(j)
    order = [j for members in pairs.values() for j in members]  # configurations by row
    params = [configs[j][0] for j in order]
    size = grid.size
    t = grid if len(params) == 1 else np.tile(grid, len(params))  # the rows

    def coupling(first: int, last: int) -> np.ndarray:
        """g'(t) of the rows [first, last), formed once per params and times."""
        parts, known = [], {}
        for j in range(first // size, -(-last // size)):
            key = (params[j], max(first - j * size, 0), min(last - j * size, size))
            if key not in known:
                known[key] = _coupling(params[j], grid[key[1] : key[2]])
            parts.append(known[key])
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    # sum(P) and the slices of each distinct cavity, formed once per distribution
    cavities = {d: _cavity(d.probabilities()) for d in {x for _, *pair in configs for x in pair}}
    count = max(dist.n_max for dist in cavities) + 2  # sectors 0..N + 1 of the widest
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = sorted(affinity(0)) if affinity else list(range(os.cpu_count() or 1))
    workers = max(1, min(len(cpus), _MAX_WORKERS, t.size,
                         t.size * count // (_BLOCKS_PER_WORKER * _BLOCK_ELEMENTS)))
    band_rows = max(_BAND_ROWS, _BLOCK_ELEMENTS // count)  # most rows in one band
    bands = min(t.size, workers * -(-t.size // (workers * band_rows)))
    tall = -(-t.size // max(bands, 1))
    # per pair and delta: its rows [first, last), delta and distinct cavities
    spans, last = [], 0
    for (a, b, delta), members in pairs.items():
        first, last = last, last + len(members) * size
        spans.append((first, last, delta, [cavities[dist] for dist in dict.fromkeys((a, b))]))
    # factors in the largest block of any channel's call
    width = max(n.size * max(1, min(tall, last - first, _BLOCK_ELEMENTS // n.size))
                for first, last, _, sides in spans for _, slices in sides for n, _ in slices)
    state = XStates(*(np.empty(t.size, complex if f == "x3" else float) for f in XStates._fields))

    def work(worker: int) -> None:
        # two arrays 64-byte apart, so that SIMD loops see them equally aligned
        ws = np.empty((2, -(-width // 8) * 8))
        # per band row, channel A, then B unless every pair is equal
        channels = np.empty((max(len(sides) for *_, sides in spans), 6, tall))
        for k in range(worker, bands, workers):
            first, last = k * t.size // bands, (k + 1) * t.size // bands
            g_eff = coupling(first, last)
            g4, quarter_t = 4.0 * g_eff * g_eff, 0.25 * t[first:last]
            for start, stop, delta, sides in spans:
                rows = slice(max(start, first) - first, min(stop, last) - first)
                if rows.start < rows.stop:
                    for out, cavity in zip(channels, sides):
                        _channel(out[:, rows], ws, g4[rows], quarter_t[rows], delta, *cavity)
                    if len(sides) < len(channels):  # an equal pair beside unequal ones
                        channels[1, :, rows] = channels[0, :, rows]
            n = last - first
            _assemble(state, slice(first, last), channels[0, :, :n], channels[-1, :, :n])

    _spread(work, workers, cpus)
    if order != sorted(order):  # back to the order of configs
        back = np.argsort(order)
        for x in state:
            x[:] = x.reshape(len(order), size)[back].ravel()
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
