"""Event representation for the freshening simulator.

The simulator is event-driven: three kinds of events touch an element
— a source-side *update*, a mirror-side *sync*, and a user *access*.
Streams of homogeneous events are generated in bulk (vectorized) and
then merged into one time-ordered tape which the simulation replays.

Tie-breaking at identical timestamps is by event kind: updates apply
before syncs (a sync at the same instant picks up the new version),
and accesses observe last (they see the post-sync state).  This makes
simultaneous-event semantics deterministic.

Memory discipline: a tape is three parallel arrays (structure of
arrays) — float64 times, int32 element ids, int8 kinds — 13 bytes
per event instead of 24, which is what keeps 10⁶-element replay
windows resident.  The merges validate that element ids fit int32
(2³¹ elements is far past the catalog sizes the solvers handle).
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

from repro.errors import ValidationError
from repro.numerics.sorting import stable_time_sort

__all__ = ["EventKind", "merge_kind_blocks", "merge_sorted_blocks"]


class EventKind(IntEnum):
    """Event kinds, ordered by same-instant application priority."""

    UPDATE = 0
    SYNC = 1
    ACCESS = 2


def _kind_ordered(update_times: np.ndarray,
                  update_elements: np.ndarray,
                  sync_times: np.ndarray,
                  sync_elements: np.ndarray,
                  access_times: np.ndarray,
                  access_elements: np.ndarray,
                  n_elements: int,
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The SoA concatenation [updates, syncs, accesses] both merges
    stably time-sort: the block layout is the same-instant priority."""
    if n_elements >= np.iinfo(np.int32).max:
        raise ValidationError(
            "element ids must fit int32 (SoA tape layout)")
    counts = (update_times.shape[0], sync_times.shape[0],
              access_times.shape[0])
    times = np.concatenate((update_times, sync_times, access_times),
                           dtype=np.float64, casting="unsafe")
    elements = np.concatenate(
        (update_elements, sync_elements, access_elements),
        dtype=np.int32, casting="unsafe")
    kinds = np.repeat(np.array([EventKind.UPDATE, EventKind.SYNC,
                                EventKind.ACCESS], dtype=np.int8), counts)
    return times, elements, kinds


def _merge_runs(times: np.ndarray, elements: np.ndarray,
                kinds: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stably time-sort a kind-ordered tape of three sorted runs.

    numpy's stable sort of float64 keys is a timsort, which finds the
    runs and merges them in O(n); ties keep the block order, which is
    the update < sync < access priority.
    """
    order = np.argsort(times, kind="stable")
    return times[order], elements[order], kinds[order]


def merge_sorted_blocks(update_times: np.ndarray,
                        update_elements: np.ndarray,
                        sync_times: np.ndarray,
                        sync_elements: np.ndarray,
                        access_times: np.ndarray,
                        access_elements: np.ndarray, *,
                        n_elements: int,
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge three already-sorted streams into one SoA tape, O(n).

    The streaming slab pipeline draws each stream pre-sorted (see
    ``draw_window_sorted``), so the kind-ordered concatenation
    [updates, syncs, accesses] is three sorted runs.  numpy's stable
    sort of float64 keys is a timsort, which finds those runs and
    merges them in O(n) — the run merge :func:`merge_kind_blocks`
    ends with, with the same update < sync < access tie order from
    the block layout, but without its sort of the raw update block.

    Args:
        update_times: Sorted update instants.
        update_elements: Update element ids, parallel to the times.
        sync_times: Sorted sync instants.
        sync_elements: Sync element ids.
        access_times: Sorted access instants.
        access_elements: Access element ids.
        n_elements: Catalog size, for the int32 id-width check.

    Returns:
        ``(times, elements, kinds)`` — float64 / int32 / int8 arrays
        sorted by time with kind priority breaking ties.
    """
    return _merge_runs(*_kind_ordered(
        update_times, update_elements, sync_times, sync_elements,
        access_times, access_elements, n_elements))


def merge_kind_blocks(update_times: np.ndarray,
                      update_elements: np.ndarray,
                      sync_times: np.ndarray,
                      sync_elements: np.ndarray,
                      access_times: np.ndarray,
                      access_elements: np.ndarray, *,
                      n_elements: int,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fuse raw per-kind draws into one time-ordered SoA tape.

    Stable-sorts the raw update block alone with
    :func:`~repro.numerics.sorting.stable_time_sort` (one SIMD sort of
    unique (bucket, position) keys, repaired locally where distinct
    times share a bucket), then merges the three sorted runs
    [updates, syncs, accesses] like :func:`merge_sorted_blocks`.  A stable sort of a concatenation
    equals a stable merge of its stably sorted blocks, so the output
    equals one stable argsort over the kind-ordered concatenation:
    within a kind generation order survives, and at cross-kind time
    ties the block layout supplies the update < sync < access
    priority.  Sync and access inputs are already time-sorted.

    Args:
        update_times: Raw (unsorted) update instants.
        update_elements: Update element ids, parallel to the times.
        sync_times: Sorted sync instants.
        sync_elements: Sync element ids.
        access_times: Sorted access instants.
        access_elements: Access element ids.
        n_elements: Catalog size, for the int32 id-width check.

    Returns:
        ``(times, elements, kinds)`` — float64 / int32 / int8 arrays
        sorted by time with kind priority breaking ties.
    """
    update_order, update_times = stable_time_sort(update_times)
    return _merge_runs(*_kind_ordered(
        update_times, update_elements[update_order],
        sync_times, sync_elements, access_times, access_elements,
        n_elements))
