"""Stable sorts of event times and element ids, on unique int64 keys.

The replay paths are bit-identical to the per-event reference loop
only because every reordering they make keeps ties in input order.
Both sorts here get that order from one fact: a sort of *unique* keys
has exactly one answer.  Each value is packed above its own position,
``(key << shift) | position``, into an int64, and the keys are sorted
with ``ndarray.sort()``.  Whatever algorithm numpy dispatches to on
the host CPU, the result is the one stable permutation, read back
from the low bits.

:func:`stable_element_sort` groups a replay slab (and a batch of
syncs) by element; :func:`stable_time_sort` orders the raw update
block of the tape merge (:mod:`repro.sim.events`), the request picks
(:mod:`repro.sim.generators`) and every sync-schedule window
(:mod:`repro.core.scheduler`), so the schedule need not import the
simulator to sort its windows.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["stable_element_sort", "stable_time_sort"]


def _position_bits(n: int) -> int:
    """Bits that hold every position ``0 … n-1`` (at least one)."""
    return max((n - 1).bit_length(), 1)


def _sorted_keys(high: np.ndarray, shift: int) -> np.ndarray:
    """Sorted int64 keys ``(high << shift) | position``; ``high`` is
    cast to int64, truncating toward zero."""
    keys = high.astype(np.int64)
    keys <<= shift
    keys |= np.arange(keys.shape[0], dtype=np.int64)
    keys.sort()
    return keys


def stable_element_sort(elements: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Stable grouping of element ids in ``[0, 2³¹)``.

    Positions fit below 2³¹ (the slab limit) and so do the ids, so
    ``(id << shift) | position`` fits in 62 bits, and its sort is
    ``np.argsort(elements, kind="stable")`` on every CPU.

    Returns:
        ``(order, elements_sorted)`` — the stable permutation and the
        permuted ids in the input's dtype, both read off the sorted
        keys.
    """
    shift = _position_bits(elements.shape[0])
    keys = _sorted_keys(elements, shift)
    order = keys & ((1 << shift) - 1)
    keys >>= shift
    return order, keys.astype(elements.dtype, copy=False)


def stable_time_sort(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort of event times.

    Bit-identical to ``np.argsort(times, kind="stable")`` for any
    input.  The key is ``(floor((t − t_min)·scale) << shift) |
    position``, below 2⁶²: monotone in ``t``, so only distinct times
    that share a key bucket can come out of order.  An adjacent-pair
    check finds them, and only the buckets holding an inversion are
    re-sorted, by (time, position), with a stable ``np.lexsort``.
    Non-finite input, and a span too narrow to scale, take the direct
    stable argsort.

    Returns:
        ``(order, times_sorted)`` — the stable permutation and
        ``times[order]``.
    """
    n = times.shape[0]
    shift = _position_bits(n)
    t_min = float(times.min()) if n else 0.0
    span = float(times.max()) - t_min if n else 0.0
    scale = (math.ldexp(1.0, 61 - shift) / span
             if 0.0 < span < math.inf else math.inf)
    if not math.isfinite(scale):
        order = np.argsort(times, kind="stable")
        return order, times[order]
    # t − t_min ≤ span, so the scaled bucket stays below 2^(62−shift).
    buckets = times - t_min
    buckets *= scale
    keys = _sorted_keys(buckets, shift)
    del buckets
    mask = (1 << shift) - 1
    order = keys & mask
    times_sorted = times[order]
    inverted = np.flatnonzero(times_sorted[1:] < times_sorted[:-1])
    if inverted.size:
        # Each inverted pair shares a bucket; re-sort those buckets.
        bad = np.unique(keys[inverted] >> shift)
        lo = np.searchsorted(keys, bad << shift)
        hi = np.searchsorted(keys, (bad + 1) << shift)
        spans = hi - lo
        slots = (np.arange(int(spans.sum()))
                 + np.repeat(lo - (np.cumsum(spans) - spans), spans))
        local = np.lexsort((times_sorted[slots], keys[slots] >> shift))
        order[slots] = order[slots[local]]
        times_sorted[slots] = times_sorted[slots[local]]
    return order, times_sorted
