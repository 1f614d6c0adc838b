"""Bursty (Markov-modulated Poisson) update processes.

Every closed form in :mod:`repro.core` assumes Poisson updates.  Real
sources burst: a page is edited many times in a session, then sits
quiet.  The standard minimal model is the two-state Markov-modulated
Poisson process (MMPP): each element alternates between an OFF state
(no updates) and an ON state (Poisson at an elevated rate), with
exponential sojourn times.  Choosing the ON rate as
``λ·(on + off)/on`` preserves the element's *long-run* rate λ, so a
schedule planned for the Poisson model faces the same total update
volume — only its temporal clustering changes.

The ``burstiness`` knob interpolates from Poisson (0) to extreme
clustering (→ 1): the ON fraction is ``1 − burstiness`` and state
flips happen on the timescale of ``cycle_length``.

Used by the model-misspecification experiment: how much perceived
freshness does the Fixed-Order schedule actually lose when the world
bursts but the planner assumed Poisson?

The generator offers ``draw_window`` (the one-shot tape route) but no
``draw_window_sorted``, so bursty worlds cannot run with
``chunk_periods``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.workloads.catalog import Catalog

__all__ = ["BurstyUpdateGenerator"]


class BurstyUpdateGenerator:
    """Two-state MMPP update processes, rate-matched to the catalog.

    Args:
        catalog: Supplies the long-run change rates (per period).
        burstiness: 0 gives (approximately) Poisson behaviour; values
            toward 1 concentrate all updates into ever-shorter ON
            windows.  Must lie in ``[0, 1)``.
        cycle_length: Mean ON+OFF cycle duration in periods, > 0.
        period_length: Clock length of one period.
        rng: Seeded generator.
    """

    def __init__(self, catalog: Catalog, *, burstiness: float,
                 cycle_length: float = 1.0, period_length: float = 1.0,
                 rng: np.random.Generator) -> None:
        if not 0.0 <= burstiness < 1.0:
            raise ValidationError(
                f"burstiness must be in [0, 1), got {burstiness}")
        if cycle_length <= 0.0:
            raise ValidationError(
                f"cycle_length must be > 0, got {cycle_length}")
        if period_length <= 0.0:
            raise ValidationError(
                f"period_length must be > 0, got {period_length}")
        self._rates = catalog.change_rates / period_length
        self._on_fraction = 1.0 - burstiness
        self._mean_on = cycle_length * period_length * self._on_fraction
        self._mean_off = (cycle_length * period_length
                          * (1.0 - self._on_fraction))
        self._rng = rng

    def draw_window(self, start: float, end: float
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Raw update draws for ``[start, end)``, element-major.

        Each element's chain starts at ``start`` in a stationary
        state.  Its times come back sorted, but elements are
        concatenated, not merged: the caller stably time-sorts.

        Args:
            start: Window start in clock time.
            end: Window end, > ``start``.

        Returns:
            ``(times, elements)`` — float64 times and int64 element
            ids, unsorted across elements.
        """
        if end <= start:
            raise ValidationError(
                f"window end must exceed start, got [{start}, {end})")
        n = self._rates.shape[0]
        if self._mean_off <= 0.0:
            # Degenerate: always ON at the base rate — plain Poisson.
            counts = self._rng.poisson(self._rates * (end - start))
            times = self._rng.uniform(start, end, size=int(counts.sum()))
            return times, np.repeat(np.arange(n, dtype=np.int64), counts)

        all_times: list[np.ndarray] = []
        all_elements: list[np.ndarray] = []
        on_rates = self._rates / self._on_fraction
        for element in range(n):
            if self._rates[element] <= 0.0:
                continue
            times = self._element_times(float(on_rates[element]),
                                        start, end)
            if times.size:
                all_times.append(times)
                all_elements.append(np.full(times.shape, element,
                                            dtype=np.int64))
        if not all_times:
            return np.empty(0), np.empty(0, dtype=np.int64)
        return np.concatenate(all_times), np.concatenate(all_elements)

    def _element_times(self, on_rate: float, start: float,
                       end: float) -> np.ndarray:
        """Sample one element's MMPP event times over the window."""
        rng = self._rng
        times: list[np.ndarray] = []
        clock = start
        # Start in a state drawn from the stationary distribution.
        in_on = bool(rng.uniform() < self._on_fraction)
        while clock < end:
            if in_on:
                duration = rng.exponential(self._mean_on)
                window_end = min(clock + duration, end)
                span = window_end - clock
                count = int(rng.poisson(on_rate * span))
                if count:
                    times.append(rng.uniform(clock, window_end,
                                             size=count))
            else:
                duration = rng.exponential(self._mean_off)
            clock += duration
            in_on = not in_on
        if not times:
            return np.empty(0)
        return np.sort(np.concatenate(times))
