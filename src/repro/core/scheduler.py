"""Concrete synchronization schedules (the Fixed-Order policy in time).

The solvers produce per-element sync *frequencies*; a mirror needs
actual poll instants.  Under the Fixed-Order policy every element is
synchronized at evenly spaced instants — element i with frequency fᵢ
(per period of length T) is polled every T/fᵢ time units.  Phases are
staggered deterministically so the poll load is spread across the
period instead of bursting at t = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.errors import ScheduleError
from repro.numerics.blocks import block_ranges
from repro.numerics.sorting import stable_time_sort

__all__ = ["PhasePolicy", "SyncSchedule", "period_index"]


class PhasePolicy(str, Enum):
    """How the first sync of each element is offset within its interval."""

    #: All elements fire their first sync at t = 0 (bursty; useful in
    #: tests for predictability).
    ZERO = "zero"
    #: Element i starts at a deterministic fraction of its interval,
    #: spreading load evenly (golden-ratio low-discrepancy offsets).
    STAGGERED = "staggered"
    #: Phases are drawn uniformly at random in [0, interval).
    RANDOM = "random"


_GOLDEN = 0.6180339887498949


def period_index(times: np.ndarray | float, period_length: float
                 ) -> np.ndarray | np.int64:
    """The period each event time falls in, as the windows cut it.

    Period ``p`` is the window ``[p·L, (p+1)·L)`` with both bounds
    computed in float, the comparison
    :meth:`SyncSchedule.events_between` and the streamed slabs cut
    their windows with.  It is the one period rule: both engines'
    period series and every per-period budget ledger take their
    period from it.  ``⌊t/L⌋`` (the truncated quotient, as ``t ≥
    0``) can round across a bound either way (``3 · 0.7`` divides by
    ``0.7`` to ``2.999…``), so it is corrected by one where ``p·L ≤
    t < (p+1)·L`` fails.  With ``L = 1`` the correction never fires.

    Args:
        times: One time or an array of times, ≥ 0.
        period_length: Clock length of one period, > 0.

    Returns:
        The int64 period index, a scalar for a scalar time.
    """
    periods = np.divide(times, period_length).astype(np.int64)
    periods -= periods * period_length > times
    periods += (periods + 1) * period_length <= times
    return periods


def _first_index_at(bound: float, phase: np.ndarray, interval: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Least k >= 0 with ``phase + interval * k >= bound``, per element.

    ``ceil((bound - phase) / interval)`` rounds twice, so it can land
    an index off either way; comparing the sync-time expression itself
    at k and k - 1 fixes that, and because the expression is monotone
    in k the fixed index is exact.  Indices are whole floats (exact
    below 2⁵³), so ``interval * k`` rounds as it does for int64 k.

    Returns:
        ``(k, time)`` — the index and its sync time per element.

    Raises:
        ScheduleError: When the index overflows (an interval too
            small for the bound).
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        k = np.ceil((bound - phase) / interval)
    np.maximum(k, 0.0, out=k)
    if not np.isfinite(k).all():
        raise ScheduleError("sync count overflows the window")
    time = interval * k
    time += phase
    early = np.flatnonzero(time < bound)
    while early.size:
        k[early] += 1.0
        time[early] = phase[early] + interval[early] * k[early]
        early = early[time[early] < bound]
    previous = interval * (k - 1.0)
    previous += phase
    late = np.flatnonzero((previous >= bound) & (k > 0.0))
    while late.size:
        k[late] -= 1.0
        time[late] = previous[late]
        previous[late] = phase[late] + interval[late] * (k[late] - 1.0)
        late = late[(previous[late] >= bound) & (k[late] > 0.0)]
    return k, time


@dataclass(frozen=True)
class SyncSchedule:
    """A Fixed-Order synchronization schedule.

    Attributes:
        frequencies: Syncs per period for each element, ``f ≥ 0``.
        period_length: Length T of one sync period in clock time.
        phases: First-sync offset of each element, in clock time,
            within ``[0, interval)``; meaningless (0) for f = 0.
    """

    frequencies: np.ndarray
    period_length: float
    phases: np.ndarray

    def __post_init__(self) -> None:
        frequencies = np.asarray(self.frequencies, dtype=float)
        phases = np.asarray(self.phases, dtype=float)
        if frequencies.ndim != 1:
            raise ScheduleError("frequencies must be 1-D")
        if (frequencies < 0.0).any():
            raise ScheduleError("frequencies must be nonnegative")
        if self.period_length <= 0.0:
            raise ScheduleError(
                f"period_length must be > 0, got {self.period_length}")
        if phases.shape != frequencies.shape:
            raise ScheduleError("phases must match frequencies in shape")
        if (phases < 0.0).any():
            raise ScheduleError("phases must be nonnegative")
        frequencies = frequencies.copy()
        phases = phases.copy()
        frequencies.flags.writeable = False
        phases.flags.writeable = False
        object.__setattr__(self, "frequencies", frequencies)
        object.__setattr__(self, "phases", phases)

    @classmethod
    def from_frequencies(cls, frequencies: np.ndarray, *,
                         period_length: float = 1.0,
                         phase_policy: PhasePolicy | str =
                         PhasePolicy.STAGGERED,
                         rng: np.random.Generator | None = None,
                         ) -> "SyncSchedule":
        """Build a schedule from per-period frequencies.

        Args:
            frequencies: Syncs per period per element.
            period_length: Clock length of a period.
            phase_policy: How first-sync offsets are chosen.
            rng: Required for :attr:`PhasePolicy.RANDOM`.

        Returns:
            The schedule.

        Raises:
            ScheduleError: For invalid inputs or a missing ``rng``.
        """
        frequencies = np.asarray(frequencies, dtype=float)
        policy = (phase_policy if isinstance(phase_policy, PhasePolicy)
                  else PhasePolicy(str(phase_policy).lower()))
        with np.errstate(divide="ignore"):
            intervals = np.where(frequencies > 0.0,
                                 period_length / np.maximum(frequencies,
                                                            1e-300), 0.0)
        if policy is PhasePolicy.ZERO:
            phases = np.zeros_like(frequencies)
        elif policy is PhasePolicy.STAGGERED:
            n = frequencies.shape[0]
            # x - floor(x) is exact for x >= 0 (Sterbenz), so this is
            # bit-identical to (x % 1.0) and several times faster.
            fractions = np.arange(n) * _GOLDEN
            fractions -= np.floor(fractions)
            phases = fractions * intervals
        else:
            if rng is None:
                raise ScheduleError("random phases require an rng")
            phases = rng.uniform(0.0, 1.0, size=frequencies.shape) * intervals
        return cls(frequencies=frequencies, period_length=period_length,
                   phases=phases)

    @property
    def n_elements(self) -> int:
        """Number of elements covered by the schedule."""
        return int(self.frequencies.shape[0])

    def intervals(self) -> np.ndarray:
        """Clock time between syncs per element (inf for f = 0)."""
        with np.errstate(divide="ignore"):
            return np.where(self.frequencies > 0.0,
                            self.period_length / np.maximum(
                                self.frequencies, 1e-300), np.inf)

    def sync_times(self, element: int, horizon: float) -> np.ndarray:
        """All sync instants of one element in ``[0, horizon)``.

        Args:
            element: Element index.
            horizon: End of the window, > 0.

        Returns:
            Sorted sync times (possibly empty).
        """
        if horizon <= 0.0:
            raise ScheduleError(f"horizon must be > 0, got {horizon}")
        f = float(self.frequencies[element])
        if f <= 0.0:
            return np.empty(0)
        interval = self.period_length / f
        if not np.isfinite(interval):
            return np.empty(0)
        start = float(self.phases[element])
        count, _ = _first_index_at(horizon, np.array([start]),
                                   np.array([interval]))
        return start + interval * np.arange(int(count[0]))

    def events_until(self, horizon: float) -> tuple[np.ndarray, np.ndarray]:
        """All sync events in ``[0, horizon)``, time-ordered.

        The window ``events_between(0, horizon)``; bit-identical to
        concatenating :meth:`sync_times` per element and stable-sorting
        by time (ties keep element order).

        Args:
            horizon: End of the window, > 0.

        Returns:
            ``(times, elements)`` — parallel arrays sorted by time.
        """
        if horizon <= 0.0:
            raise ScheduleError(f"horizon must be > 0, got {horizon}")
        return self.events_between(0.0, horizon)

    def events_between(self, start: float, end: float
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Sync events in ``[start, end)`` — a streaming window.

        Lets an executor pull the schedule one slab at a time instead
        of materializing an unbounded horizon.  Element i's k-th sync
        is at ``phaseᵢ + intervalᵢ * k`` (k ≥ 0), the same float
        operations in every window and in :meth:`sync_times`.  That
        expression is monotone in k (a rounded product and a rounded
        sum of monotone terms), so the window holds exactly the
        indices ``[k_lo, k_hi)``, where ``k_lo`` is the least k whose
        time reaches ``start`` and ``k_hi`` the least whose time
        reaches ``end``.  Each bound comes from one ceil-division,
        corrected index by index by comparing that same expression
        against the bound, so it is exact and no event outside the
        window is generated.  Only elements with ``k_hi > k_lo`` are
        expanded, so cost is O(active elements + events in window),
        and adjacent windows partition the stream exactly: each event
        falls in the one window whose ``start <= t < end`` holds for
        its shared time value.  Ties sort in element order.  The
        active set, the bounds and the expansion run one element
        range of :data:`~repro.numerics.blocks.BLOCK` at a time, and
        the ranges' events are laid end to end in element order
        before the one time sort, so the window holds no n-long
        temporary, and is the same for any block size.

        Args:
            start: Window start, >= 0.
            end: Window end, > ``start``.

        Returns:
            ``(times, elements)`` sorted by time within the window.
        """
        if start < 0.0:
            raise ScheduleError(f"start must be >= 0, got {start}")
        if end <= start:
            raise ScheduleError(
                f"end must exceed start, got [{start}, {end})")
        times: list[np.ndarray] = []
        elements: list[np.ndarray] = []
        for lo, hi in block_ranges(self.n_elements):
            window = self._range_window(lo, hi, start, end)
            if window is not None:
                times.append(window[0])
                elements.append(window[1])
        if not times:
            return np.empty(0), np.empty(0, dtype=np.int64)
        order, sorted_times = stable_time_sort(
            times[0] if len(times) == 1 else np.concatenate(times))
        del times
        return sorted_times, (elements[0] if len(elements) == 1
                              else np.concatenate(elements))[order]

    def _range_window(self, lo: int, hi: int, start: float, end: float
                      ) -> tuple[np.ndarray, np.ndarray] | None:
        """The syncs of elements ``[lo, hi)`` in ``[start, end)``, in
        element order, or None when none fires.

        An element is schedulable when ``T / f`` is finite: a
        subnormal ``f`` overflows the interval to inf and never fires.
        """
        frequencies = self.frequencies[lo:hi]
        active = np.flatnonzero(frequencies > 0.0)
        with np.errstate(over="ignore"):
            interval = self.period_length / frequencies[active]
        finite = np.isfinite(interval)
        if not finite.all():
            active = active[finite]
            interval = interval[finite]
        phase = self.phases[lo:hi][active]
        active += lo
        if start > 0.0:
            first, first_time = _first_index_at(start, phase, interval)
        else:  # every sync time phase + interval * k is >= 0
            first, first_time = np.zeros(active.shape[0]), phase
        firing = np.flatnonzero(first_time < end)
        if firing.size == 0:
            return None
        phase = phase[firing]
        interval = interval[firing]
        first = first[firing]
        stop, _ = _first_index_at(end, phase, interval)
        counts = (stop - first).astype(np.int64)
        total = int(counts.sum())
        block_start = np.cumsum(counts) - counts
        k = np.arange(total, dtype=float)
        k += np.repeat(first - block_start, counts)
        times = np.repeat(interval, counts) * k
        times += np.repeat(phase, counts)
        elements = np.repeat(active[firing], counts).astype(np.int64,
                                                             copy=False)
        return times, elements

    def syncs_per_period(self) -> float:
        """Total sync operations per period, ``Σ fᵢ``."""
        return float(self.frequencies.sum())

    def bandwidth_per_period(self, sizes: np.ndarray) -> float:
        """Total bandwidth per period, ``Σ sᵢ·fᵢ``."""
        sizes = np.asarray(sizes, dtype=float)
        if sizes.shape != self.frequencies.shape:
            raise ScheduleError("sizes must match frequencies in shape")
        return float(sizes @ self.frequencies)
