"""The Freshness Evaluator (Figure 4) and simulation results.

The paper's evaluator "operates in two modes": it can *analytically
calculate* freshness metrics from the workload parameters, or *track
system activity* by monitoring updates and user requests.  Here:

* the **monitored** mode is :class:`FreshnessMonitor`, an online
  accumulator the simulation feeds — it scores each access
  (Definition 3) and time-integrates each copy's fresh/stale state
  (Definitions 2 and 4);
* the **analytic** mode is :meth:`SimulationResult.analytic`, the
  closed forms from :mod:`repro.core.metrics` for the same schedule.

The paper verifies its results with both modes; the integration tests
do the same by asserting the two agree within sampling error.

Both simulation engines — the per-event reference loop in
:meth:`repro.sim.simulation.Simulation.run` and the vectorized
:class:`repro.sim.fastpath.StreamingReplay` — step events their own
way but package a finished run here: :func:`flush_to_horizon` closes
the open intervals, :class:`SimulationResult` derives the run's
totals from its per-element counts and the four monitored metrics
from the raw totals, :func:`close_run` emits the
``monitor.*``/``sim.*`` telemetry and checks the run contracts, and
:func:`emit_period` writes each ``sim.period`` event; both engines
count an event in the period
:func:`~repro.core.scheduler.period_index` gives it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.contracts import (
    check_attempt_accounting,
    check_attempt_budget,
    check_sync_conservation,
    contracts_enabled,
)
from repro.core.freshness import FreshnessModel
from repro.core.metrics import general_freshness, perceived_freshness
from repro.errors import SimulationError
from repro.numerics.blocks import block_ranges
from repro.obs import registry as obs
from repro.workloads.catalog import Catalog

__all__ = ["FreshnessMonitor", "SimulationResult", "close_run",
           "emit_period", "flush_to_horizon"]


def flush_to_horizon(fresh_time: np.ndarray, age_integral: np.ndarray,
                     fresh: np.ndarray, stale_since: np.ndarray,
                     last_time: np.ndarray, horizon: float) -> None:
    """Fold every element's open interval out to the horizon, in place.

    From each element's ``last_time`` to ``horizon``, a fresh copy
    adds fresh time and a stale one adds its age trapezoid (from its
    ``stale_since``).  The squares are array ``** 2`` on purpose: both
    engines flush through this one function, which keeps the
    vectorized replay bit-identical to the reference loop.  The flush
    runs one element range of :data:`~repro.numerics.blocks.BLOCK` at
    a time, elementwise, so it holds no n-long temporary and gives the
    same bits for any block size.

    Raises:
        SimulationError: When an event lies beyond the horizon (before
            any element is flushed).
    """
    ranges = list(block_ranges(fresh.shape[0]))
    for lo, hi in ranges:
        if (horizon - last_time[lo:hi] < -1e-9).any():
            raise SimulationError(
                "events were recorded beyond the horizon")
    for lo, hi in ranges:
        remaining = horizon - last_time[lo:hi]
        fresh_time[lo:hi] += np.maximum(remaining, 0.0) * fresh[lo:hi]
        # The trapezoid over every element, added where the copy is
        # stale: the same elementwise bits as a masked gather, without
        # it.
        stale = ~fresh[lo:hi] & (remaining > 0.0)
        since = stale_since[lo:hi]
        increment = (horizon - since) ** 2
        increment -= (last_time[lo:hi] - since) ** 2
        increment *= 0.5
        np.add(age_integral[lo:hi], increment, out=age_integral[lo:hi],
               where=stale)


class FreshnessMonitor:
    """Online accumulator of observed freshness.

    Args:
        n_elements: Number of mirrored elements.
        horizon: Total simulated clock time, > 0.
    """

    def __init__(self, n_elements: int, horizon: float) -> None:
        if n_elements < 1:
            raise SimulationError(
                f"n_elements must be >= 1, got {n_elements}")
        if horizon <= 0.0:
            raise SimulationError(f"horizon must be > 0, got {horizon}")
        self._horizon = horizon
        self._fresh = np.ones(n_elements, dtype=bool)
        self._last_time = np.zeros(n_elements)
        self._fresh_time = np.zeros(n_elements)
        # Age accounting: while stale, age(t) = t − stale_since grows
        # linearly, so its integral over [a, b] is the trapezoid
        # ((b−s)² − (a−s)²)/2.
        self._stale_since = np.zeros(n_elements)
        self._age_integral = np.zeros(n_elements)
        self._fresh_accesses = np.zeros(n_elements, dtype=np.int64)
        self._total_accesses = np.zeros(n_elements, dtype=np.int64)
        self._closed = False

    def _advance(self, element: int, time: float) -> None:
        elapsed = time - self._last_time[element]
        if elapsed < 0.0:
            raise SimulationError(
                f"time went backwards for element {element}: "
                f"{self._last_time[element]} -> {time}")
        if self._fresh[element]:
            self._fresh_time[element] += elapsed
        else:
            since = self._stale_since[element]
            age_now = time - since
            age_before = self._last_time[element] - since
            self._age_integral[element] += 0.5 * (
                age_now * age_now - age_before * age_before)
        self._last_time[element] = time

    def note_update(self, element: int, time: float) -> None:
        """The source updated an element: its copy is now stale."""
        self._advance(element, time)
        if self._fresh[element]:
            # The *first* unseen update starts the age clock; later
            # updates extend staleness without resetting it.
            self._stale_since[element] = time
        self._fresh[element] = False

    def note_sync(self, element: int, time: float) -> None:
        """The mirror synced an element: its copy is now fresh."""
        self._advance(element, time)
        self._fresh[element] = True

    def note_access(self, element: int, time: float, fresh: bool) -> None:
        """A user accessed an element and saw a fresh or stale copy."""
        self._advance(element, time)
        self._total_accesses[element] += 1
        if fresh:
            self._fresh_accesses[element] += 1

    def close(self) -> None:
        """Flush the open intervals out to the horizon."""
        if self._closed:
            return
        flush_to_horizon(self._fresh_time, self._age_integral,
                         self._fresh, self._stale_since, self._last_time,
                         self._horizon)
        self._closed = True

    def element_time_freshness(self) -> np.ndarray:
        """Observed time-averaged freshness per element."""
        self.close()
        return self._fresh_time / self._horizon

    def element_time_age(self) -> np.ndarray:
        """Observed time-averaged age per element (Ā, empirically)."""
        self.close()
        return self._age_integral / self._horizon

    def access_counts(self) -> np.ndarray:
        """Total accesses observed per element."""
        return self._total_accesses.copy()

    def fresh_access_counts(self) -> np.ndarray:
        """Accesses that saw fresh data, per element."""
        return self._fresh_accesses.copy()


@dataclass(frozen=True)
class SimulationResult:
    """Everything a simulation run measured.

    Attributes:
        catalog: The simulated workload.
        frequencies: The schedule's per-element sync frequencies
            (per period).
        horizon: Simulated clock time.
        period_length: Clock length of one period.
        n_updates: Update events applied.
        n_syncs: Sync operations performed, ``Σ poll_counts``
            (derived from the per-element counts, like the totals
            below written as sums).
        n_accesses: User accesses served, ``Σ access_counts``.
        fresh_accesses: Accesses that saw fresh data.
        useful_syncs: Syncs that actually found a changed object,
            ``Σ changed_poll_counts``.
        bandwidth_used: Total sync bandwidth spent.
        monitored_perceived_freshness: Fraction of accesses that saw
            fresh data (Definition 3/4, the user-visible score), or
            ``monitored_time_perceived`` when nothing was accessed.
            Derived from the other fields, like the three below.
        monitored_time_perceived: Profile-weighted time-averaged
            freshness observed (Σ pᵢ·observed F̄ᵢ).
        monitored_general_freshness: Unweighted mean of observed
            per-element time-averaged freshness.
        element_time_freshness: Observed F̄ᵢ per element.
        element_time_age: Observed time-averaged age Āᵢ per element.
        monitored_perceived_age: Profile-weighted observed age,
            ``Σ pᵢ·Āᵢ`` — the empirical counterpart of
            :func:`repro.core.age.perceived_age`.
        access_counts: Accesses served per element — the raw material
            for profile learning.
        poll_counts: Sync polls performed per element.
        changed_poll_counts: Polls that found a new version per
            element — together with ``poll_counts``, the censored
            observations change-rate estimators consume.
        attempted_polls: Poll attempts made on the wire, including
            retries, ``Σ attempted_poll_counts`` (``n_syncs`` on a
            fault-free run).
        failed_polls: Attempts that failed (timeout, error, or
            unreachable), ``Σ failed_poll_counts`` (0 fault-free).
        unreachable_polls: Failed attempts that never reached the
            wire (``unreachable`` fast-fails, free of bandwidth) —
            exclude them from transfer-loss estimates;
            ``Σ unreachable_poll_counts`` (0 fault-free).
        retries: Attempts beyond each scheduled sync's first; 0
            without a retry policy.
        breaker_skips: Scheduled syncs fast-failed by an open
            circuit breaker without touching the wire.
        denied_polls: Scheduled syncs denied outright because the
            period's bandwidth budget was already spent.
        hop_denied: Attempts denied by a saturated per-hop ledger on
            the element's relay path; 0 without a topology.
        suppressed_retries: Retries refused by the shared herding
            admission gate; 0 without a gated retry policy.
        attempted_bandwidth: Bandwidth burned across every attempt,
            in size units (derived on a fault-free run: then it is
            ``bandwidth_used``; failed transfers burn budget without
            refreshing).
        attempted_poll_counts: Attempts per element, or None on a
            fault-free run.
        failed_poll_counts: Failed attempts per element, or None on
            a fault-free run.
        unreachable_poll_counts: Unreachable fast-fails per element,
            or None on a fault-free run.  ``failed − unreachable``
            per element is the wire-level loss that actually burned
            bandwidth.
        unreachable_elements: Boolean mask of elements whose breaker
            shard ended the run OPEN, or None without a breaker.
        fault_trace: Per-attempt ``(time, element, outcome)`` tape
            when the run was asked to record one, else None — the
            byte-comparable artifact determinism tests diff.
    """

    catalog: Catalog
    frequencies: np.ndarray
    horizon: float
    period_length: float
    n_updates: int
    n_syncs: int = field(init=False)
    n_accesses: int = field(init=False)
    fresh_accesses: int
    useful_syncs: int = field(init=False)
    bandwidth_used: float
    monitored_perceived_freshness: float = field(init=False)
    monitored_time_perceived: float = field(init=False)
    monitored_general_freshness: float = field(init=False)
    element_time_freshness: np.ndarray
    element_time_age: np.ndarray
    monitored_perceived_age: float = field(init=False)
    access_counts: np.ndarray
    poll_counts: np.ndarray
    changed_poll_counts: np.ndarray
    attempted_polls: int = field(init=False)
    failed_polls: int = field(init=False)
    unreachable_polls: int = field(init=False)
    retries: int = 0
    breaker_skips: int = 0
    denied_polls: int = 0
    hop_denied: int = 0
    suppressed_retries: int = 0
    attempted_bandwidth: float = 0.0
    attempted_poll_counts: np.ndarray | None = None
    failed_poll_counts: np.ndarray | None = None
    unreachable_poll_counts: np.ndarray | None = None
    unreachable_elements: np.ndarray | None = None
    fault_trace: tuple[tuple[float, int, str], ...] | None = None

    def __post_init__(self) -> None:
        n_syncs = int(self.poll_counts.sum())
        n_accesses = int(self.access_counts.sum())
        p = self.catalog.access_probabilities
        time_perceived = float(p @ self.element_time_freshness)
        derived = {
            "n_syncs": n_syncs,
            "n_accesses": n_accesses,
            "useful_syncs": int(self.changed_poll_counts.sum()),
            "monitored_perceived_freshness": (
                self.fresh_accesses / n_accesses
                if n_accesses else time_perceived),
            "monitored_time_perceived": time_perceived,
            "monitored_general_freshness": float(
                self.element_time_freshness.mean()),
            "monitored_perceived_age": float(p @ self.element_time_age),
        }
        if self.attempted_poll_counts is None:
            # Fault-free: every sync is one successful attempt.
            derived.update(attempted_polls=n_syncs, failed_polls=0,
                           unreachable_polls=0,
                           attempted_bandwidth=self.bandwidth_used)
        else:
            assert (self.failed_poll_counts is not None
                    and self.unreachable_poll_counts is not None)
            derived.update(
                attempted_polls=int(self.attempted_poll_counts.sum()),
                failed_polls=int(self.failed_poll_counts.sum()),
                unreachable_polls=int(
                    self.unreachable_poll_counts.sum()))
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def analytic(self, *, model: FreshnessModel | None = None
                 ) -> tuple[float, float]:
        """The evaluator's analytic mode for the same schedule.

        Args:
            model: Freshness model (Fixed-Order by default).

        Returns:
            ``(perceived, general)`` closed-form freshness.
        """
        return (perceived_freshness(self.catalog, self.frequencies,
                                    model=model),
                general_freshness(self.catalog, self.frequencies,
                                  model=model))

    @property
    def wasted_sync_fraction(self) -> float:
        """Fraction of syncs that found nothing new (wasted polls)."""
        if self.n_syncs == 0:
            return 0.0
        return 1.0 - self.useful_syncs / self.n_syncs

    @property
    def poll_failure_fraction(self) -> float:
        """Fraction of wire attempts that failed (0 when fault-free)."""
        if self.attempted_polls == 0:
            return 0.0
        return self.failed_polls / self.attempted_polls


def close_run(result: SimulationResult, *, engine: str,
              n_periods: float,
              attempt_budget: float | None) -> SimulationResult:
    """The run epilogue both engines share; returns ``result``.

    With telemetry on, emits the ``monitor.*`` close-time gauges and
    event, then the ``sim.*`` run summary, counting the run under
    ``sim.engine.<engine>``.  With contracts on, checks the sync
    conservation law, a faulted run's per-element attempt accounting
    (attempts = polls + failures) and, given a faulted run's
    ``attempt_budget`` (size units per period; None without a fault
    channel or budget), the attempt budget; a violation names the
    engine.
    """
    # A faulted run always carries per-element attempt counts.
    faulted = result.attempted_poll_counts is not None
    if obs.telemetry_enabled():
        obs.gauge_set("monitor.mean_time_freshness",
                      float(result.element_time_freshness.mean()))
        obs.gauge_set("monitor.mean_time_age",
                      float(result.element_time_age.mean()))
        obs.event("monitor.close", horizon=result.horizon,
                  accesses=result.n_accesses,
                  fresh_accesses=result.fresh_accesses,
                  fresh_fraction=(result.fresh_accesses / result.n_accesses
                                  if result.n_accesses else 1.0))
        obs.counter_add("sim.runs")
        obs.counter_add(f"sim.engine.{engine}")
        obs.counter_add("sim.syncs", result.n_syncs)
        obs.counter_add("sim.useful_syncs", result.useful_syncs)
        obs.counter_add("sim.updates", result.n_updates)
        obs.counter_add("sim.accesses", result.n_accesses)
        obs.gauge_set("sim.bandwidth_used", result.bandwidth_used)
        obs.gauge_set("sim.monitored_perceived_freshness",
                      result.monitored_perceived_freshness)
        obs.gauge_set("sim.monitored_general_freshness",
                      result.monitored_general_freshness)
        if faulted:
            obs.gauge_set("sim.attempted_bandwidth",
                          result.attempted_bandwidth)
            obs.gauge_set("sim.poll_failure_fraction",
                          result.poll_failure_fraction)
    if contracts_enabled():
        # Conservation law (ROADMAP): the schedule may not spend more
        # sync bandwidth than planned, up to Fixed-Order granularity
        # (at most one extra sync per scheduled element over the
        # horizon).  Every attempt, initial or retry, is gated by the
        # channel's period ledger, so attempted bandwidth can never
        # exceed B per period either (the slack only covers ceil
        # effects at a partial last period).
        sizes = result.catalog.sizes
        granularity = float(sizes[result.frequencies > 0.0].sum())
        where = f"sim.engine.{engine}"
        check_sync_conservation(
            result.bandwidth_used, float(sizes @ result.frequencies),
            n_periods, granularity, where=where)
        if result.attempted_poll_counts is not None:
            assert result.failed_poll_counts is not None
            check_attempt_accounting(
                result.attempted_poll_counts, result.poll_counts,
                result.failed_poll_counts, where=where)
        if attempt_budget is not None:
            check_attempt_budget(
                result.attempted_bandwidth, attempt_budget,
                float(np.ceil(n_periods)), granularity, where=where)
    return result


def emit_period(period: int, *, syncs: int, bandwidth: float,
                planned: float, updates: int, accesses: int,
                fresh_accesses: int, mean_freshness: float,
                failed_polls: int, retries: int) -> None:
    """Emit one ``"sim.period"`` event and its period metrics.

    The one schema of the per-period series the paper's figures are
    built from.  Every argument but ``planned`` (the schedule's
    planned spend per period, which ``budget_utilization`` divides
    by) is the period's own total, in the event's units;
    ``mean_freshness`` is the mirror's instantaneous mean freshness
    at the period's end.
    """
    utilization = bandwidth / planned if planned else 0.0
    obs.event(
        "sim.period",
        period=obs.element_label(period),
        syncs=syncs,
        bandwidth=bandwidth,
        budget_utilization=utilization,
        updates=updates,
        accesses=accesses,
        fresh_fraction=(fresh_accesses / accesses if accesses else 1.0),
        mean_freshness=mean_freshness,
        failed_polls=failed_polls,
        retries=retries,
    )
    obs.counter_add("sim.periods")
    obs.gauge_set("sim.budget_utilization", utilization)
