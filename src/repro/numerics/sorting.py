"""Stable sorts of event times and element ids, on unique int64 keys.

The replay paths are bit-identical to the per-event reference loop
only because every reordering they make keeps ties in input order.
Every sort here gets that order from one fact: a sort of *unique*
keys has exactly one answer.  Each value is packed above its own
position, ``(key << shift) | position``, into an int64, and the keys
are sorted with ``ndarray.sort()``.  Whatever algorithm numpy
dispatches to on the host CPU, the result is the one stable
permutation, read back from the low bits.

:func:`stable_element_sort` groups a batch of syncs by element;
:func:`stable_grouped_time_sort` groups a replay slab by element and
orders each group by time, dropping the failed syncs on the way;
:func:`stable_time_sort`, its one-group case, orders the raw update
block of the tape merge (:mod:`repro.sim.events`), the request picks
(:mod:`repro.sim.generators`) and every sync-schedule window
(:mod:`repro.core.scheduler`), so the schedule need not import the
simulator to sort its windows.
"""

from __future__ import annotations

import math

import numpy as np

from repro.numerics.blocks import block_ranges

__all__ = ["stable_element_sort", "stable_grouped_time_sort",
           "stable_time_sort"]


def _position_bits(n: int) -> int:
    """Bits that hold every position ``0 … n-1`` (at least one)."""
    return max((n - 1).bit_length(), 1)


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
    keys = elements.astype(np.int64)
    keys <<= shift
    # The positions go in one block at a time, so the sort holds no
    # index as long as the keys.
    for lo, hi in block_ranges(keys.shape[0]):
        keys[lo:hi] |= np.arange(lo, hi, dtype=np.int64)
    keys.sort()
    order = keys & ((1 << shift) - 1)
    keys >>= shift
    return order, keys.astype(elements.dtype, copy=False)


def stable_grouped_time_sort(groups: np.ndarray, times: np.ndarray, *,
                             n_groups: int,
                             drop: np.ndarray | None = None,
                             ) -> tuple[np.ndarray, np.ndarray,
                                        np.ndarray]:
    """Stable sort by (group, time), without the ``drop`` positions.

    Bit-identical to ``np.lexsort((times, groups))`` with the dropped
    positions removed, for any input.  The key is
    ``((group << time_bits | bucket) << shift) | position`` with
    ``bucket = floor((t − t_min) · 2^(time_bits−1) / span)`` and
    ``time_bits = 62 − shift − group_bits``: monotone in (group, t),
    so only distinct times of one group that share a bucket can come
    out of order.  An adjacent-pair check finds them, and only the
    (group, bucket) runs holding an inversion are re-sorted, by
    (time, position), with a stable ``np.lexsort``.  A dropped
    position takes group ``n_groups``, sorts to the tail and is cut
    off, so dropping costs no gather.  ``time_bits`` is 0 only when
    ``n_groups`` and the positions both near 2³¹; then every group
    holding an inversion is re-sorted whole: slow, but exact.
    Non-finite times, and a span too narrow to scale, take a stable
    ``np.lexsort`` by (group, time) instead.

    Args:
        groups: Group id per position, integers in ``[0, n_groups)``.
        times: Time per position.
        n_groups: Number of groups, at most ``2³¹ − 1``.
        drop: Distinct positions to leave out, or None.

    Returns:
        ``(order, groups_sorted, times_sorted)`` — the kept positions
        in (group, time, position) order, and ``groups[order]`` (in
        ``groups``' dtype) and ``times[order]``.
    """
    return _grouped_time_sort(groups, times, n_groups, drop)


def stable_time_sort(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable sort of event times.

    Bit-identical to ``np.argsort(times, kind="stable")`` for any
    input: the one-group case of :func:`stable_grouped_time_sort`,
    with ``62 − shift`` bits of time bucket.

    Returns:
        ``(order, times_sorted)`` — the stable permutation and
        ``times[order]``.
    """
    order, _, times_sorted = _grouped_time_sort(None, times, 1, None)
    return order, times_sorted


def _grouped_time_sort(groups: np.ndarray | None, times: np.ndarray,
                       n_groups: int, drop: np.ndarray | None
                       ) -> tuple[np.ndarray, np.ndarray | None,
                                  np.ndarray]:
    """:func:`stable_grouped_time_sort`; ``groups=None`` is one group
    (and then ``drop`` is None)."""
    n = times.shape[0]
    n_kept = n - (0 if drop is None else drop.shape[0])
    shift = _position_bits(n)
    # The largest group field: the dropped positions' n_groups, if any.
    group_bits = (n_groups if n_kept < n else n_groups - 1).bit_length()
    time_bits = 62 - shift - group_bits
    if time_bits < 0:
        raise ValueError(f"n_groups={n_groups} leaves no key bits")
    t_min = float(times.min()) if n else 0.0
    span = float(times.max()) - t_min if n else 0.0
    scale = (math.ldexp(1.0, time_bits - 1) / span if span > 0.0
             else 0.0)
    if not (math.isfinite(span) and math.isfinite(scale)):
        return _lexsort_fallback(groups, times, n_groups, drop, n_kept)
    if groups is None:
        keys = np.empty(n, dtype=np.int64)
    else:
        keys = groups.astype(np.int64)
        if drop is not None:
            keys[drop] = n_groups
    # The keys are built in the one buffer, a block at a time, so the
    # sort holds no bucket or position array as long as the keys.
    # t − t_min ≤ span, so the scaled bucket, truncated toward zero,
    # stays below 2^time_bits.
    for lo, hi in block_ranges(n):
        block = keys[lo:hi]
        buckets = times[lo:hi] - t_min
        buckets *= scale
        if groups is None:
            block[...] = buckets.astype(np.int64)
        else:
            block <<= time_bits
            block |= buckets.astype(np.int64)
        block <<= shift
        block |= np.arange(lo, hi, dtype=np.int64)
    keys.sort()
    keys = keys[:n_kept]
    mask = (1 << shift) - 1
    order = keys & mask
    times_sorted = times[order]
    # A time that falls between neighbours either opens a new group
    # (fine) or shares their (group, bucket) run: an inversion.
    falls = np.flatnonzero(times_sorted[1:] < times_sorted[:-1])
    inverted = falls[(keys[falls] >> shift) == (keys[falls + 1] >> shift)]
    if inverted.size:
        # The keys are sorted, so the groups come sorted: keep each
        # run's first.  (np.unique would sort again and, on its first
        # call, import numpy.ma mid-replay, whose objects then pin the
        # heap top.)
        bad = keys[inverted] >> shift
        bad = bad[np.append(True, bad[1:] != bad[:-1])]
        lo = np.searchsorted(keys, bad << shift)
        hi = np.searchsorted(keys, (bad + 1) << shift)
        spans = hi - lo
        slots = (np.arange(int(spans.sum()))
                 + np.repeat(lo - (np.cumsum(spans) - spans), spans))
        local = np.lexsort((times_sorted[slots], keys[slots] >> shift))
        order[slots] = order[slots[local]]
        times_sorted[slots] = times_sorted[slots[local]]
    if groups is None:
        return order, None, times_sorted
    keys >>= shift + time_bits
    return order, keys.astype(groups.dtype, copy=False), times_sorted


def _lexsort_fallback(groups: np.ndarray | None, times: np.ndarray,
                      n_groups: int, drop: np.ndarray | None,
                      n_kept: int
                      ) -> tuple[np.ndarray, np.ndarray | None,
                                 np.ndarray]:
    """The direct stable sort by (group, time), the dropped positions
    sorted last and cut off."""
    if groups is None:
        order = np.lexsort((times,))
        return order, None, times[order]
    high = groups.astype(np.int64)
    if drop is not None:
        high[drop] = n_groups
    order = np.lexsort((times, high))[:n_kept]
    return order, groups[order], times[order]
