"""Workload generators feeding the simulator (Figure 4's two inputs).

* :class:`UpdateGenerator` drives the source: each element is updated
  by an independent Poisson process at its catalog change rate
  (rates are per *period*; the generator converts to clock time).
* :class:`RequestGenerator` drives the mirror: a Poisson stream of
  user accesses whose element choice follows the master profile.

Both expose the primitives of
:class:`~repro.sim.simulation.Simulation`'s two tape routes, as plain
``(times, elements)`` arrays — far faster than step-by-step
generation, and reproducible from a seed.
``draw_window(start, end)`` (one-shot; every update generator,
:class:`~repro.sim.bursty.BurstyUpdateGenerator` included, has it)
draws a window in the canonical order (Poisson counts, then uniform
instants, then — for requests — one uniform per element pick) and
leaves update times unsorted: the replay kernel sorts each element's
events itself, and for the reference loop
:func:`~repro.sim.events.merge_kind_blocks` fuses the cross-kind
merge into a stable sort of the update block and one run merge.
Element picks use CDF ``searchsorted`` sampling, which consumes the
identical ``rng.random`` variates ``rng.choice(p=...)`` would and
returns the identical indices (tested bit for bit).  The picks are
looked up in sorted order and scattered back, so the search walks the
CDF forward instead of probing it at random; each pick maps to the
same index either way.

Neither generator keeps a per-element array of its own for the run:
each call derives what it needs (the window's Poisson means, the CDF
or the normalized profile) from the catalog in O(n), which is the
same work a one-shot run did at construction and one pass per period
on a streamed run.

``draw_window_sorted(start, end, rng=)`` is the streaming route
(``chunk_periods``), called once per period with that period's own
spawn child, so a streamed tape never depends on the slab size.  It
produces each window already time-ordered in O(n) — exponential
spacings give the Poisson arrival instants as ready-made order
statistics, and a shuffled multiset of per-element counts replaces
both ``np.repeat``-then-sort and per-event CDF lookups.  The result
is *statistically* identical to ``draw_window`` plus a stable sort
(exactly, not approximately — superposition and order-statistics
identities, no discretization), but consumes a different rng stream,
so streamed and one-shot horizons agree in distribution rather than
bit for bit.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import ValidationError
from repro.numerics.sorting import stable_time_sort
from repro.workloads.catalog import Catalog

__all__ = ["UpdateGenerator", "RequestGenerator"]


def _repeat_arange_into(counts: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with ``np.repeat(np.arange(len(counts)), counts)``.

    Writes, at the block start of each element with a nonzero count,
    the step from the previous such element's id, then integrates in
    place, so a reused arena buffer absorbs the whole expansion.  The
    block starts of nonzero counts are strictly increasing, so a
    plain scatter writes them (no ``np.add.at``).
    """
    if out.shape[0]:
        # A bool mask takes numpy's fast nonzero path.
        nonzero = np.flatnonzero(counts > 0)
        block = counts[nonzero]
        starts = np.cumsum(block)
        starts -= block
        out[:] = 0
        out[starts] = np.diff(nonzero, prepend=0)
        np.cumsum(out, out=out)
    return out


class UpdateGenerator:
    """Poisson update processes for every element of a catalog.

    Args:
        catalog: Supplies per-element change rates (per period).
        period_length: Clock length of one period.
        rng: Seeded generator.
    """

    def __init__(self, catalog: Catalog, *, period_length: float = 1.0,
                 rng: np.random.Generator) -> None:
        if period_length <= 0.0:
            raise ValidationError(
                f"period_length must be > 0, got {period_length}")
        self._change_rates = catalog.change_rates  # per period
        self._period_length = period_length
        self._rng = rng

    def _means(self, start: float, end: float) -> np.ndarray:
        """Expected update counts per element over ``[start, end)``.

        The rate per clock unit, then times the window length: two
        roundings in this order, which every seeded draw depends on.
        """
        means = self._change_rates / self._period_length
        means *= end - start
        return means

    def draw_window(self, start: float, end: float
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Raw update draws for ``[start, end)`` — unsorted.

        A Poisson process with rate r over a window of length H has
        Poisson(r·H) events at i.i.d. uniform instants; sampling that
        way is exact and vectorizes across elements.  Draw order is
        the canonical one: per-element Poisson counts, then one
        uniform instant per event, element-major.

        Args:
            start: Window start in clock time.
            end: Window end, > ``start``.

        Returns:
            ``(times, elements)`` — unsorted float64/int64 arrays.
        """
        if end <= start:
            raise ValidationError(
                f"window end must exceed start, got [{start}, {end})")
        counts = self._rng.poisson(self._means(start, end))
        elements = np.repeat(np.arange(counts.shape[0], dtype=np.int64),
                             counts)
        times = self._rng.uniform(start, end, size=int(counts.sum()))
        return times, elements

    def draw_window_sorted(self, start: float, end: float, *,
                           rng: np.random.Generator | None = None,
                           arena: Any = None,
                           ) -> tuple[np.ndarray, np.ndarray]:
        """Update draws for ``[start, end)`` with *sorted* times, O(n).

        Statistically identical to :meth:`draw_window` followed by a
        stable time sort, but never sorts: the superposed process's
        arrival instants are uniform order statistics, which
        normalized exponential spacings produce already ordered, and
        conditioned on the per-element counts the element labels in
        time order are a uniformly shuffled multiset.  Draw order is
        the canonical *streaming* one: per-element Poisson counts,
        one multiset shuffle, then N+1 exponential spacings — a
        different stream from :meth:`draw_window`, so the two windows
        agree in distribution, not bit for bit.

        Args:
            start: Window start in clock time.
            end: Window end, > ``start``.
            rng: Generator to draw from (defaults to the constructor
                rng; streaming runs pass each period's spawn child).
            arena: Optional :class:`~repro.sim.fastpath.ReplayArena`;
                when given, the element-id expansion reuses its
                scratch buffer instead of allocating.

        Returns:
            ``(times, elements)`` — sorted float64 times and int64
            element ids.
        """
        if end <= start:
            raise ValidationError(
                f"window end must exceed start, got [{start}, {end})")
        rng = self._rng if rng is None else rng
        counts = rng.poisson(self._means(start, end))
        total = int(counts.sum())
        if arena is None:
            elements = np.repeat(np.arange(counts.shape[0],
                                           dtype=np.int64), counts)
        else:
            elements = _repeat_arange_into(
                counts, arena.take("gen_update_elements", total, np.int64))
        rng.shuffle(elements)
        spans = np.cumsum(rng.standard_exponential(total + 1))
        times = spans[:total]
        times *= (end - start) / spans[total]
        times += start
        return times, elements

class RequestGenerator:
    """Poisson user-request stream following the master profile.

    Args:
        catalog: Supplies the master profile.
        rate: Total accesses per clock unit, > 0.
        rng: Seeded generator.
    """

    def __init__(self, catalog: Catalog, *, rate: float,
                 rng: np.random.Generator) -> None:
        if rate <= 0.0:
            raise ValidationError(f"rate must be > 0, got {rate}")
        self._probabilities = catalog.access_probabilities
        self._rate = rate
        self._rng = rng

    def draw_window(self, start: float, end: float
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Raw access draws for ``[start, end)`` — times sorted.

        Draw order is canonical: one Poisson count, the uniform
        instants, then one uniform per element pick (consumed by a
        ``searchsorted`` over the profile's CDF, built in this call,
        matching ``rng.choice``; the picks are searched in sorted
        order and scattered back).

        Args:
            start: Window start in clock time.
            end: Window end, > ``start``.

        Returns:
            ``(times, elements)`` — float64 sorted times and the
            int64 elements accessed at them.
        """
        if end <= start:
            raise ValidationError(
                f"window end must exceed start, got [{start}, {end})")
        rng = self._rng
        count = int(rng.poisson(self._rate * (end - start)))
        times = np.sort(rng.uniform(start, end, size=count))
        picks = rng.random(count)
        # Look the picks up in sorted order: each maps to the same
        # index, and a sorted needle walks the CDF forward instead of
        # probing it at random.
        order, picks = stable_time_sort(picks)
        # searchsorted over this CDF with uniform variates reproduces
        # rng.choice(p=...) draw-for-draw (numpy builds the identical
        # normalized cumsum per call).
        cdf = np.cumsum(self._probabilities)
        cdf /= cdf[-1]
        elements = np.empty(count, dtype=np.int64)
        elements[order] = cdf.searchsorted(picks, side="right")
        return times, elements

    def draw_window_sorted(self, start: float, end: float, *,
                           rng: np.random.Generator | None = None,
                           arena: Any = None,
                           ) -> tuple[np.ndarray, np.ndarray]:
        """Access draws for ``[start, end)`` with *sorted* times, O(n).

        Statistically identical to :meth:`draw_window` (whose uniform
        instants are sorted anyway), but replaces the per-event CDF
        binary search — random access into an O(catalog) array, the
        hot spot at 10⁶ elements — with one multinomial split of the
        Poisson count across the profile plus a multiset shuffle,
        and draws the instants pre-ordered via exponential spacings.
        Draw order is the canonical streaming one: one Poisson count,
        the multinomial split, one shuffle, then the spacings — a
        different stream from :meth:`draw_window`, so the two windows
        agree in distribution, not bit for bit.

        Args:
            start: Window start in clock time.
            end: Window end, > ``start``.
            rng: Generator to draw from (defaults to the constructor
                rng; streaming runs pass each period's spawn child).
            arena: Optional :class:`~repro.sim.fastpath.ReplayArena`;
                when given, the element-id expansion reuses its
                scratch buffer instead of allocating.

        Returns:
            ``(times, elements)`` — sorted float64 times and int64
            element ids.
        """
        if end <= start:
            raise ValidationError(
                f"window end must exceed start, got [{start}, {end})")
        rng = self._rng if rng is None else rng
        count = int(rng.poisson(self._rate * (end - start)))
        counts = rng.multinomial(
            count, self._probabilities / self._probabilities.sum())
        if arena is None:
            elements = np.repeat(np.arange(counts.shape[0],
                                           dtype=np.int64), counts)
        else:
            elements = _repeat_arange_into(
                counts, arena.take("gen_access_elements", count,
                                   np.int64))
        rng.shuffle(elements)
        spans = np.cumsum(rng.standard_exponential(count + 1))
        times = spans[:count]
        times *= (end - start) / spans[count]
        times += start
        return times, elements
