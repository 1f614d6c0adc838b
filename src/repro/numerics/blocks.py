"""The one block size of the replay's element-range and event passes.

A pass over n elements or events that works one block at a time holds
block-sized temporaries instead of n-long ones.  Every such pass is
elementwise (or, in the replay kernel, per element with each
element's events in one block), so its result is the same bits for
any block size: the sort keys' positions
(:mod:`repro.numerics.sorting`), the sync-schedule window
(:meth:`repro.core.scheduler.SyncSchedule.events_between`), the
replay kernel's folds (:mod:`repro.sim.fastpath`) and the run
epilogue (:func:`repro.sim.evaluator.flush_to_horizon`) all read
:data:`BLOCK` when they run.
"""

from __future__ import annotations

from typing import Iterator

__all__ = ["BLOCK", "block_ranges"]

#: Most elements or events one block holds: 2¹⁸, so a block's float64
#: temporary is 2 MiB.
BLOCK = 1 << 18


def block_ranges(n: int) -> Iterator[tuple[int, int]]:
    """``[lo, hi)`` ranges of at most :data:`BLOCK` covering ``[0, n)``."""
    step = BLOCK
    for lo in range(0, n, step):
        yield lo, min(lo + step, n)
