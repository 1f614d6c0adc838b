"""Stable argsorts of event times, radix-accelerated at scale.

The replay paths are bit-identical to the per-event reference loop
only because every reordering they make keeps ties in input order.
This module holds the time sort that both the sync schedule
(:mod:`repro.core.scheduler`) and the event-tape merge
(:mod:`repro.sim.events`) use, so the schedule need not import the
simulator to sort its windows.
"""

from __future__ import annotations

import numpy as np

#: Below this many events the two-pass bucket sort's extra gathers
#: cost more than the timsort they shave off; fall back to a direct
#: stable argsort.
_BUCKET_SORT_MIN = 1 << 17


def _stable_time_argsort(times: np.ndarray) -> np.ndarray:
    """Stable argsort of event times, radix-accelerated at scale.

    Bit-identical to ``np.argsort(times, kind="stable")`` for any
    finite input: pass one stable-sorts coarse uint16 bucket keys (a
    monotone nondecreasing map of time, so numpy's integer radix sort
    applies), pass two stable-sorts the bucketed times (timsort on
    nearly-sorted data is cheap), and composing two stable sorts
    keyed (bucket, time) equals one stable sort keyed by time.  At
    replay scale this runs ~2-3x faster than a direct stable argsort
    of random float64 times.
    """
    n = times.shape[0]
    if n < _BUCKET_SORT_MIN:
        return np.argsort(times, kind="stable")
    t_min = times.min()
    t_max = times.max()
    if (not np.isfinite(t_min) or not np.isfinite(t_max)
            or not t_max > t_min):
        return np.argsort(times, kind="stable")
    keys = (times - t_min) * (65536.0 / (t_max - t_min))
    np.minimum(keys, 65535.0, out=keys)
    coarse = np.argsort(keys.astype(np.uint16), kind="stable")
    refine = np.argsort(times[coarse], kind="stable")
    return coarse[refine]
