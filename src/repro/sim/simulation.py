"""The simulation orchestrator: wire up Figure 4 and replay events.

A :class:`Simulation` connects the update generator to the
:class:`~repro.sim.source.Source`, the synchronization schedule and
request generator to the :class:`~repro.sim.mirror.Mirror`, and the
:class:`~repro.sim.evaluator.FreshnessMonitor` to everything, then
replays the merged event tape in time order.

Typical use::

    plan = PerceivedFreshener().plan(catalog, bandwidth=250.0)
    sim = Simulation(catalog, plan.frequencies, request_rate=1000.0,
                     rng=np.random.default_rng(0))
    result = sim.run(n_periods=20)
    result.monitored_perceived_freshness   # what users actually saw
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.scheduler import PhasePolicy, SyncSchedule
from repro.errors import ValidationError
from repro.faults.breaker import CircuitBreaker
from repro.faults.channel import SyncChannel
from repro.faults.model import (
    FaultPlan,
    GilbertElliottFaultModel,
    IIDFaultModel,
    PollOutcome,
)
from repro.faults.retry import RetryPolicy
from repro.faults.topology import Topology
from repro.obs import registry as obs
from repro.parallel import spawn_rngs
from repro.sim.events import (
    EventKind,
    merge_kind_blocks,
    merge_sorted_blocks,
)
from repro.sim.evaluator import (
    FreshnessMonitor,
    SimulationResult,
    close_run,
    emit_period,
)
from repro.sim.fastpath import ReplayArena, StreamingReplay
from repro.sim.generators import RequestGenerator, UpdateGenerator
from repro.sim.mirror import Mirror
from repro.sim.source import Source
from repro.workloads.catalog import Catalog

__all__ = ["Simulation", "kernel_fault_model"]


def kernel_fault_model(fault_plan: FaultPlan | None,
                       retry_policy: RetryPolicy | None,
                       breaker: CircuitBreaker | None,
                       topology: Topology | None
                       ) -> IIDFaultModel | GilbertElliottFaultModel | None:
    """The fault model the vectorized kernel resolves, if any.

    The one kernel-eligibility decision: :meth:`Simulation.run`'s
    engine dispatch and the adaptive manager's window batching both
    read it.  A plan qualifies when it is exactly one
    :class:`~repro.faults.model.IIDFaultModel` or one
    :class:`~repro.faults.model.GilbertElliottFaultModel` (the exact
    type, not a subclass) with a retryable failure outcome and no
    outage windows, and the channel has no breaker, no relay
    topology and no retry admission gate.  Those models draw a fixed
    number of uniforms per attempt, which is what lets
    :mod:`repro.sim.fastpath` pre-draw the fault stream.  Everything
    else stays on the reference loop: latency draws and multi-model
    plans draw a variable count, outages, breakers and hop ledgers
    are stateful per attempt, an ``UNREACHABLE`` outcome fast-fails
    without burning bandwidth, and the gate's token bucket is shared
    across runs in wall order.

    Args:
        fault_plan: The channel's fault plan, or None.
        retry_policy: The channel's retry policy, or None.
        breaker: The channel's circuit breaker, or None.
        topology: The channel's relay topology, or None.

    Returns:
        The plan's single kernel-resolvable model, else None (also
        for a quiet or absent plan).
    """
    if (fault_plan is None or fault_plan.outages
            or len(fault_plan.models) != 1
            or breaker is not None or topology is not None
            or (retry_policy is not None
                and retry_policy.admission_gate is not None)):
        return None
    model = fault_plan.models[0]
    if type(model) is not IIDFaultModel \
            and type(model) is not GilbertElliottFaultModel:
        return None
    if not model.failure_outcome.is_retryable:
        return None
    return model


class _PeriodTracker:
    """Per-period telemetry accumulator for :meth:`Simulation.run`.

    Only instantiated when telemetry is enabled, so the event loop
    pays a single ``is not None`` test per event otherwise.  Counts
    each period's events one at a time and hands the totals, with the
    mirror's instantaneous mean freshness at the period boundary, to
    :func:`~repro.sim.evaluator.emit_period`.
    """

    __slots__ = ("_sizes", "_period_length", "_mirror", "_planned",
                 "_period", "syncs", "bandwidth", "updates",
                 "accesses", "fresh_accesses", "failed_polls",
                 "retries")

    def __init__(self, catalog: Catalog, planned_per_period: float,
                 period_length: float, mirror: Mirror) -> None:
        self._sizes = catalog.sizes
        self._period_length = period_length
        self._mirror = mirror
        self._planned = planned_per_period
        self._period = 0
        self.syncs = 0
        self.bandwidth = 0.0
        self.updates = 0
        self.accesses = 0
        self.fresh_accesses = 0
        self.failed_polls = 0
        self.retries = 0

    def advance_to(self, time: float) -> None:
        """Flush any periods fully elapsed before ``time``."""
        period = int(time / self._period_length)
        while self._period < period:
            self._flush()
            self._period += 1

    def note_sync(self, element: int) -> None:
        """Record one sync of ``element`` in the current period."""
        self.syncs += 1
        self.bandwidth += float(self._sizes[element])

    def note_access(self, fresh: bool) -> None:
        """Record one served access and whether it saw fresh data."""
        self.accesses += 1
        if fresh:
            self.fresh_accesses += 1

    def finish(self, n_periods: float) -> None:
        """Flush through the final (possibly partial) period."""
        last = max(int(np.ceil(n_periods)) - 1, 0)
        while self._period < last:
            self._flush()
            self._period += 1
        self._flush()

    def _flush(self) -> None:
        emit_period(
            self._period, syncs=self.syncs, bandwidth=self.bandwidth,
            planned=self._planned, updates=self.updates,
            accesses=self.accesses, fresh_accesses=self.fresh_accesses,
            mean_freshness=float(self._mirror.freshness_vector().mean()),
            failed_polls=self.failed_polls, retries=self.retries)
        self.syncs = 0
        self.bandwidth = 0.0
        self.updates = 0
        self.accesses = 0
        self.fresh_accesses = 0
        self.failed_polls = 0
        self.retries = 0


class Simulation:
    """A configured mirror-freshening simulation.

    Args:
        catalog: Workload description (profile, change rates, sizes).
        frequencies: Sync frequency per element, per period.
        request_rate: User accesses per period (the paper assumes
            "many users frequently access the mirror").
        rng: Seeded generator driving updates, requests and phases.
        period_length: Clock length of one sync period.
        phase_policy: How sync phases are staggered.
        update_generator: Optional replacement source-update process:
            anything with a raw ``draw_window(start, end) -> (times,
            elements)`` primitive over UPDATE events, drawing from
            the generator it was built with — e.g.
            :class:`~repro.sim.bursty.BurstyUpdateGenerator` for
            model-misspecification studies.  ``chunk_periods`` also
            needs ``draw_window_sorted``.  Defaults to the catalog's
            Poisson processes.
        fault_plan: Optional fault plan for the sync path.  None (or
            a quiet plan) keeps the classic fault-free path and is a
            true no-op: no extra random draws, bit-identical results.
        retry_policy: Backoff policy for retryable poll failures
            (only meaningful with a fault plan).
        breaker: Optional per-shard circuit breaker (only meaningful
            with a fault plan).
        shard_of: Element → breaker-shard map, shape
            ``(n_elements,)``; identity by default (the topology's
            subtree shard map when a topology is given).
        topology: Optional source→relay→edge tree the sync path polls
            through (only meaningful with a fault plan).  Attempts
            must fit every hop ledger on their root-to-edge path and
            completions lag by path latency; topology plans are
            stateful, so they replay on the reference loop.
        bandwidth_budget: Per-period attempt budget B for the
            channel's retry ledger, in size units per period.
            Defaults to the schedule's planned spend
            ``Σ sizeᵢ·fᵢ`` — a schedule planned below the real
            budget therefore has retry headroom, a tight one does
            not.
        fault_rng: Optional dedicated generator for the fault layer
            (fault draws, retry jitter).  When given, the workload
            stream (updates, accesses, phases) drawn from ``rng`` is
            identical whatever the faults do — the common-random-
            numbers setup paired fault/no-fault comparisons need.
            Defaults to sharing ``rng``.
        record_fault_trace: When True (and a fault plan is active),
            the result carries the per-attempt ``fault_trace`` tape
            for determinism audits.
        fault_time_offset: Added to event times before they reach
            the fault layer (plan, breaker, retry ledger), in clock
            units.  Lets a caller that runs one period at a time —
            the adaptive manager — keep outage windows and breaker
            cooldowns on one global clock while each run's local
            clock restarts at zero.  Must be a whole number of
            periods so the channel's budget ledger stays aligned.
    """

    def __init__(self, catalog: Catalog, frequencies: np.ndarray, *,
                 request_rate: float, rng: np.random.Generator,
                 period_length: float = 1.0,
                 phase_policy: PhasePolicy | str =
                 PhasePolicy.STAGGERED,
                 update_generator: UpdateGenerator | None = None,
                 fault_plan: FaultPlan | None = None,
                 retry_policy: RetryPolicy | None = None,
                 breaker: CircuitBreaker | None = None,
                 shard_of: np.ndarray | None = None,
                 topology: Topology | None = None,
                 bandwidth_budget: float | None = None,
                 fault_rng: np.random.Generator | None = None,
                 record_fault_trace: bool = False,
                 fault_time_offset: float = 0.0
                 ) -> None:
        frequencies = np.asarray(frequencies, dtype=float)
        if frequencies.shape != (catalog.n_elements,):
            raise ValidationError(
                f"frequencies shape {frequencies.shape} does not match "
                f"catalog size {catalog.n_elements}")
        if request_rate <= 0.0:
            raise ValidationError(
                f"request_rate must be > 0, got {request_rate}")
        if topology is not None and \
                topology.n_elements != catalog.n_elements:
            raise ValidationError(
                f"topology hosts {topology.n_elements} elements, "
                f"catalog has {catalog.n_elements}")
        if bandwidth_budget is not None and bandwidth_budget <= 0.0:
            raise ValidationError(
                f"bandwidth_budget must be > 0, got {bandwidth_budget}")
        if update_generator is not None and not callable(
                getattr(update_generator, "draw_window", None)):
            raise ValidationError(
                "update_generator must offer a draw_window(start, end) "
                f"method, got {type(update_generator).__name__}")
        remainder = fault_time_offset % period_length
        if fault_time_offset < 0.0 or min(
                remainder, period_length - remainder) > 1e-9:
            raise ValidationError(
                "fault_time_offset must be a non-negative whole "
                f"number of periods, got {fault_time_offset}")
        self._catalog = catalog
        self._frequencies = frequencies
        self._period_length = period_length
        self._rng = rng
        self._fault_plan = fault_plan
        self._retry_policy = retry_policy
        self._breaker = breaker
        self._shard_of = shard_of
        self._topology = topology
        self._fault_rng = fault_rng
        self._record_fault_trace = record_fault_trace
        self._fault_time_offset = fault_time_offset
        # Planned bandwidth spend per period, Σ sizeᵢ·fᵢ — computed
        # once here instead of per run (it used to be duplicated in
        # run() and the period tracker).
        self._planned_per_period = float(catalog.sizes @ frequencies)
        # The channel's per-period attempt budget B: as given, else
        # the planned spend (None — no ledger — for an empty plan).
        self._budget = (bandwidth_budget if bandwidth_budget is not None
                        else (self._planned_per_period
                              if self._planned_per_period > 0.0
                              else None))
        self._schedule = SyncSchedule.from_frequencies(
            frequencies, period_length=period_length,
            phase_policy=phase_policy, rng=rng)
        self._updates = (update_generator if update_generator is not None
                         else UpdateGenerator(catalog,
                                              period_length=period_length,
                                              rng=rng))
        self._requests = RequestGenerator(
            catalog, rate=request_rate / period_length, rng=rng)

    @property
    def schedule(self) -> SyncSchedule:
        """The timed Fixed-Order schedule the mirror executes."""
        return self._schedule

    def build_tape(self, n_periods: float
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Draw and merge the run's full event tape (one-shot route).

        Raw ``draw_window`` pulls from the update and request
        generators plus the schedule's syncs, fused by one stable
        argsort in :func:`~repro.sim.events.merge_kind_blocks`.
        Consumes exactly the random draws :meth:`run` would before
        its replay starts (update stream first, then request stream),
        which is what lets the window-batched adaptive manager build
        several periods' tapes back to back and keep the workload
        stream bit-identical to per-period runs.

        Args:
            n_periods: Number of periods the tape covers, > 0.

        Returns:
            ``(times, elements, kinds)`` merged in time order.
        """
        horizon = n_periods * self._period_length
        update_times, update_elements = \
            self._updates.draw_window(0.0, horizon)
        sync_times, sync_elements = self._schedule.events_until(horizon)
        access_times, access_elements = \
            self._requests.draw_window(0.0, horizon)
        return merge_kind_blocks(
            update_times, update_elements,
            sync_times, sync_elements,
            access_times, access_elements,
            n_elements=self._catalog.n_elements)

    def fault_kernel_args(self) -> dict | None:
        """The kernel's fault-plan arguments, if the plan is eligible.

        Returns None when :func:`kernel_fault_model` finds no model
        the kernel can resolve; otherwise the ``fault_args`` the
        vectorized routes in :mod:`repro.sim.fastpath` take
        (:class:`~repro.sim.fastpath.StreamingReplay`,
        :func:`~repro.sim.fastpath.replay_window_tapes`,
        :func:`~repro.sim.fastpath.resolve_tape_faults`): the
        ``"model"`` (whose type picks the resolver, and which
        carries the failure probabilities and outcome), the shared
        ``"retry_policy"``, the ``"bandwidth_budget"`` and the fault
        ``"rng"``.  This is their only producer.
        """
        model = kernel_fault_model(self._fault_plan, self._retry_policy,
                                   self._breaker, self._topology)
        if model is None:
            return None
        return {"model": model,
                "retry_policy": self._retry_policy,
                "bandwidth_budget": self._budget,
                "rng": (self._fault_rng if self._fault_rng is not None
                        else self._rng)}

    def run(self, n_periods: float, *,
            engine: str = "auto",
            chunk_periods: int | None = None) -> SimulationResult:
        """Simulate ``n_periods`` sync periods.

        Args:
            n_periods: Number of periods to simulate, > 0 (several
                periods are needed for the monitored metrics to settle
                near the analytic values).
            engine: ``"auto"`` (default) replays fault-free tapes,
                stateless i.i.d.-loss plans and single retryable
                Gilbert–Elliott plans with the vectorized kernel
                (:mod:`repro.sim.fastpath`), and falls back to the
                per-event reference loop for everything else
                (latency, multi-model, outages, breakers,
                topologies, gated retries); ``"fastpath"`` insists
                on the kernel (an error for reference-only plans);
                ``"reference"`` forces the loop.  The engines are
                bit-identical, so this knob exists for equivalence
                tests and debugging, not for correctness.
            chunk_periods: When given, generate and replay the
                horizon in slabs of this many periods, keeping peak
                memory O(slab) instead of O(horizon).  Generation is
                then keyed per period (one spawn child each), so
                every ``chunk_periods`` yields the bit-identical
                result: the knob only trades memory.  Without it the
                whole tape is one slab drawn by :meth:`build_tape`,
                whose one-shot draw order makes results statistically
                equivalent but not draw-identical to the streamed
                tape (see docs/PERFORMANCE.md).  Requires a
                kernel-eligible plan and an update generator with
                ``draw_window_sorted`` (so not
                :class:`~repro.sim.bursty.BurstyUpdateGenerator`).

        Returns:
            The measured :class:`SimulationResult`.

        Raises:
            ValidationError: On an invalid argument or a plan the
                requested engine cannot replay.
            SimulationError: When one slab holds too many events for
                the kernel's int32 positions; the message names the
                largest ``chunk_periods`` that fits.
        """
        if engine not in ("auto", "fastpath", "reference"):
            raise ValidationError(
                f"engine must be 'auto', 'fastpath' or 'reference', "
                f"got {engine!r}")
        if n_periods <= 0.0:
            raise ValidationError(f"n_periods must be > 0, got {n_periods}")
        # A quiet (or absent) fault plan bypasses the channel
        # entirely and consumes no extra random draws.  A plan
        # kernel_fault_model accepts resolves its faults in the
        # kernel; everything else stays on the loop.
        fault_free = self._fault_plan is None or self._fault_plan.is_quiet
        kernel_faults = self.fault_kernel_args()
        kernel_plan = fault_free or kernel_faults is not None
        unsupported = ("(latency draws, multiple models, outage "
                       "windows, a breaker, a relay topology, a gated "
                       "retry policy or a non-retryable failure "
                       "outcome)")
        if chunk_periods is not None:
            if int(chunk_periods) != chunk_periods or chunk_periods < 1:
                raise ValidationError(
                    f"chunk_periods must be a positive integer, got "
                    f"{chunk_periods}")
            if engine == "reference":
                raise ValidationError(
                    "chunk_periods streams through the fastpath "
                    "kernel; use engine='auto' or 'fastpath'")
            if not kernel_plan:
                raise ValidationError(
                    f"chunk_periods cannot replay this fault plan "
                    f"{unsupported}")
            if not hasattr(self._updates, "draw_window_sorted"):
                raise ValidationError(
                    "chunk_periods requires an update generator with "
                    "a draw_window_sorted(start, end, rng=, arena=) "
                    "primitive")
        if engine == "fastpath" and not kernel_plan:
            raise ValidationError(
                f"engine='fastpath' cannot replay this fault plan "
                f"{unsupported}; use 'auto' or 'reference'")

        if kernel_plan and engine != "reference":
            streaming = StreamingReplay(
                self._catalog, self._frequencies,
                period_length=self._period_length, n_periods=n_periods,
                fault_args=kernel_faults,
                fault_time_offset=self._fault_time_offset,
                record_fault_trace=self._record_fault_trace)
            for tape, slab_periods, last in self._tape_slabs(
                    n_periods, chunk_periods):
                with obs.span("sim.run"):
                    streaming.feed(*tape, n_periods=slab_periods)
                    if last:
                        result = streaming.finish()
            return result

        horizon = n_periods * self._period_length
        with obs.span("sim.generate"):
            times, elements, kinds = self.build_tape(n_periods)
        source = Source(self._catalog.n_elements)
        mirror = Mirror(source, sizes=self._catalog.sizes)
        monitor = FreshnessMonitor(self._catalog.n_elements, horizon)

        channel: SyncChannel | None = None
        if self._fault_plan is not None and not self._fault_plan.is_quiet:
            channel = SyncChannel(
                mirror, plan=self._fault_plan,
                rng=(self._fault_rng if self._fault_rng is not None
                     else self._rng),
                retry_policy=self._retry_policy,
                breaker=self._breaker, shard_of=self._shard_of,
                topology=self._topology,
                bandwidth_budget=self._budget,
                period_length=self._period_length,
                record_trace=self._record_fault_trace)

        useful_syncs = 0
        n_updates = 0
        n_accesses = 0
        fresh_accesses = 0
        polls = np.zeros(self._catalog.n_elements, dtype=np.int64)
        changed_polls = np.zeros(self._catalog.n_elements, dtype=np.int64)
        update_kind = int(EventKind.UPDATE)
        sync_kind = int(EventKind.SYNC)
        # Per-period series tracker: hoisted to a local so the event
        # loop pays one bool test per event when telemetry is off.
        tracker = (_PeriodTracker(self._catalog, self._planned_per_period,
                                  self._period_length, mirror)
                   if obs.telemetry_enabled() else None)
        sim_span = obs.span("sim.run")
        with sim_span:
            for time, element, kind in zip(times.tolist(),
                                           elements.tolist(),
                                           kinds.tolist()):
                if tracker is not None:
                    tracker.advance_to(time)
                if kind == update_kind:
                    # Ledger: an update that catches a fresh copy
                    # opens a stale run — check before the source
                    # version bump makes the copy stale.
                    if tracker is not None and mirror.is_fresh(element):
                        obs.ledger_stale(
                            element, time + self._fault_time_offset)
                    source.apply_update(element)
                    monitor.note_update(element, time)
                    n_updates += 1
                    if tracker is not None:
                        tracker.updates += 1
                elif kind == sync_kind:
                    if channel is None:
                        polls[element] += 1
                        if mirror.sync(element):
                            useful_syncs += 1
                            changed_polls[element] += 1
                        monitor.note_sync(element, time)
                        if tracker is not None:
                            obs.ledger_refresh(
                                element,
                                time + self._fault_time_offset)
                            tracker.note_sync(element)
                    else:
                        report = channel.sync(
                            element, time + self._fault_time_offset)
                        succeeded = report.outcome is PollOutcome.OK
                        if succeeded:
                            # Only successful polls count as censored
                            # change-rate observations — a failed
                            # attempt reveals nothing about whether
                            # the element changed.
                            polls[element] += 1
                            if report.changed:
                                useful_syncs += 1
                                changed_polls[element] += 1
                            monitor.note_sync(element, time)
                            if tracker is not None:
                                obs.ledger_refresh(
                                    element,
                                    time + self._fault_time_offset)
                                tracker.note_sync(element)
                        if tracker is not None:
                            tracker.retries += report.retries
                            tracker.failed_polls += (
                                report.attempts - 1 if succeeded
                                else report.attempts)
                else:
                    fresh = mirror.serve_access(element)
                    monitor.note_access(element, time, fresh)
                    n_accesses += 1
                    if fresh:
                        fresh_accesses += 1
                    if tracker is not None:
                        tracker.note_access(fresh)
            if tracker is not None:
                tracker.finish(n_periods)
        monitor.close()

        fields: dict = {"attempted_polls": mirror.total_syncs,
                        "attempted_bandwidth": mirror.bandwidth_used}
        if channel is not None:
            fields.update(
                attempted_polls=channel.attempted_polls,
                failed_polls=channel.failed_polls,
                unreachable_polls=channel.unreachable_polls,
                retries=channel.retries,
                breaker_skips=channel.breaker_skips,
                denied_polls=channel.denied_polls,
                hop_denied=channel.hop_denied,
                suppressed_retries=channel.suppressed_retries,
                attempted_bandwidth=channel.attempted_bandwidth,
                attempted_poll_counts=channel.attempted_poll_counts(),
                failed_poll_counts=channel.failed_poll_counts(),
                unreachable_poll_counts=channel.unreachable_poll_counts(),
                unreachable_elements=(channel.unreachable_mask()
                                      if self._breaker is not None
                                      else None),
                fault_trace=(tuple(channel.trace())
                             if self._record_fault_trace else None))
        result = close_run(
            SimulationResult(
                catalog=self._catalog,
                frequencies=self._frequencies,
                horizon=horizon,
                period_length=self._period_length,
                n_updates=n_updates,
                n_syncs=mirror.total_syncs,
                n_accesses=n_accesses,
                fresh_accesses=fresh_accesses,
                useful_syncs=useful_syncs,
                bandwidth_used=mirror.bandwidth_used,
                element_time_freshness=monitor.element_time_freshness(),
                element_time_age=monitor.element_time_age(),
                access_counts=monitor.access_counts(),
                poll_counts=polls,
                changed_poll_counts=changed_polls,
                **fields),
            engine="reference", n_periods=n_periods,
            attempt_budget=self._budget if channel is not None else None)
        if (tracker is not None and channel is not None
                and self._topology is not None):
            ages = channel.hop_ages(horizon + self._fault_time_offset)
            obs.gauge_set("faults.topology.max_hop_age", float(ages.max()))
        return result

    def _tape_slabs(self, n_periods: float, chunk_periods: int | None
                    ) -> Iterator[tuple[tuple[np.ndarray, np.ndarray,
                                              np.ndarray], float, bool]]:
        """Generate the kernel's tape, one slab at a time.

        Yields ``(tape, slab_periods, last)`` per slab.  Without
        ``chunk_periods`` the whole horizon is one slab, drawn by
        :meth:`build_tape`.  With it, generation is keyed per period:
        period ``p`` draws from the ``p``-th spawn child of the run's
        rng (canonical streaming order: sync schedule window, then
        sorted update and request windows from that one child) and
        merges the three pre-sorted streams with one run-merging
        stable sort (:func:`~repro.sim.events.merge_sorted_blocks`).  A slab
        concatenates its periods' tapes rather than re-merging them
        (a re-merge could reorder a cross-kind tie at a period
        boundary), so the tape depends on the seed and horizon only
        and peak memory is the replay carry plus one slab.
        :meth:`run` has already checked that the update generator
        offers ``draw_window_sorted``.
        """
        if chunk_periods is None:
            with obs.span("sim.generate"):
                tape = self.build_tape(n_periods)
            yield tape, n_periods, True
            return
        chunk = int(chunk_periods)
        n_whole = int(np.ceil(n_periods))
        children = spawn_rngs(self._rng, n_whole)
        arena = ReplayArena()
        for first in range(0, n_whole, chunk):
            stop = min(first + chunk, n_whole)
            with obs.span("sim.generate"):
                tapes = []
                for period in range(first, stop):
                    start = period * self._period_length
                    end = min(period + 1, n_periods) * self._period_length
                    sync_times, sync_elements = \
                        self._schedule.events_between(start, end)
                    update_times, update_elements = \
                        self._updates.draw_window_sorted(
                            start, end, rng=children[period], arena=arena)
                    access_times, access_elements = \
                        self._requests.draw_window_sorted(
                            start, end, rng=children[period], arena=arena)
                    tapes.append(merge_sorted_blocks(
                        update_times, update_elements,
                        sync_times, sync_elements,
                        access_times, access_elements,
                        n_elements=self._catalog.n_elements))
                if len(tapes) == 1:
                    tape = tapes[0]
                else:
                    times, elements, kinds = zip(*tapes)
                    tape = (np.concatenate(times),
                            np.concatenate(elements),
                            np.concatenate(kinds))
            yield tape, min(stop, n_periods) - first, stop == n_whole
