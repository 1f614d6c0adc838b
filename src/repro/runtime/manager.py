"""The adaptive mirror manager: observe → estimate → replan → run.

The paper (§3) motivates its heuristics with exactly this loop: "for
large real-world problems for which the contents of the mirror or the
user interests might change, we would need to periodically solve the
Core Problem".  :class:`AdaptiveMirrorManager` runs that loop against
the discrete-event simulator:

1. plan a schedule from the current :class:`~repro.runtime.beliefs.
   BeliefState` (profile learned from the request log, rates
   estimated from poll outcomes);
2. execute one period in the simulator against the *true* (hidden)
   workload;
3. fold the period's observations back into the beliefs;
4. replan when the believed profile has drifted past a threshold (or
   on a fixed cadence), using either the exact solver or the scalable
   partitioned pipeline.

Nothing in the manager ever reads the true catalog's profile or
rates — only sizes (known to any mirror) and the observable event
outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.freshener import Freshener, PerceivedFreshener
from repro.core.metrics import perceived_freshness
from repro.errors import ValidationError
from repro.faults.breaker import CircuitBreaker
from repro.faults.model import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.faults.topology import Topology
from repro.obs import registry as obs
from repro.parallel import spawn_rngs
from repro.runtime.beliefs import BeliefState
from repro.sim.evaluator import SimulationResult
from repro.sim.fastpath import replay_window_tapes
from repro.sim.simulation import Simulation, kernel_fault_model
from repro.workloads.catalog import Catalog

__all__ = ["PeriodReport", "AdaptiveMirrorManager"]


@dataclass(frozen=True)
class PeriodReport:
    """What happened in one period of the adaptive loop.

    Attributes:
        period: 1-based period index.
        replanned: Whether a new schedule was computed this period.
        believed_pf: PF the manager *expected* (scored on its
            beliefs).
        achieved_pf: PF actually delivered (analytic, on the true
            workload).
        monitored_pf: Fraction of simulated accesses that saw fresh
            data.
        profile_divergence: TV distance between beliefs and the
            profile the active schedule was planned on, measured
            before the replan decision.
        n_accesses: Accesses served this period.
        wasted_polls: Fraction of polls that found no change.
        failed_polls: Wire attempts that failed this period (0 on a
            fault-free run).
        retries: Retry attempts made this period.
        suppressed_retries: Retries refused by the shared herding
            admission gate this period (0 without a gated policy).
    """

    period: int
    replanned: bool
    believed_pf: float
    achieved_pf: float
    monitored_pf: float
    profile_divergence: float
    n_accesses: int
    wasted_polls: float
    failed_polls: int = 0
    retries: int = 0
    suppressed_retries: int = 0


class AdaptiveMirrorManager:
    """Runs the observe/estimate/replan loop against a hidden workload.

    Args:
        true_catalog: The real workload (hidden: the manager only uses
            its sizes and the simulated event outcomes).
        bandwidth: Sync bandwidth budget per period.
        request_rate: User accesses per period.
        rng: Drives the simulator.
        freshener: Planner used at each replan (exact
            :class:`PerceivedFreshener` by default; pass a
            :class:`~repro.core.freshener.PartitionedFreshener` for
            catalog-scale runs).
        beliefs: Initial belief state; a fresh uniform-profile,
            prior-rate state by default.
        replan_divergence: Replan when the believed profile drifts
            this far (TV distance) from the planned-on profile.
        replan_every: Also replan unconditionally every this many
            periods (0 disables the cadence).
        fault_plan: Optional fault plan injected into every period's
            simulation (None, or a quiet plan, keeps the classic
            fault-free loop bit-identical).
        retry_policy: Backoff policy the sync channel retries under.
        breaker: Optional per-shard circuit breaker; held by the
            manager so its state persists across periods on one
            global fault clock.
        shard_of: Element → breaker-shard map (identity by default;
            the topology's subtree shard map when a topology is
            given).
        topology: Optional source→relay→edge tree the sync path runs
            over.  A fault-aware manager uses its structure twice:
            confirmed outages covering most of a relay's subtree are
            *collapsed* to the whole subtree (one correlated belief
            instead of N independent ones — the still-up-looking
            members share the doomed uplink), and replans derate to
            the bandwidth actually deliverable through reachable
            subtrees rather than the nominal B.
        subtree_outage_fraction: Fraction of a top-level subtree's
            elements that must be in confirmed outage before the
            whole subtree is collapsed, in ``(0, 1]``
            (dimensionless).
        fault_aware: When True (default), the manager *plans around*
            the faults it observes: it derates bandwidth to
            ``B·(1−loss)`` using the believed loss rate (leaving
            headroom the channel's ledger grants to retries), and on
            a detected shard outage zeroes the unreachable elements'
            frequencies and re-solves the Core Problem over the
            reachable set.  False gives the fault-*blind* baseline:
            same faulty channel, planning as if the wire were
            perfect.
        replan_loss_drift: Replan when the believed loss rate moves
            this far from the rate the active schedule was derated
            for.
        max_loss_compensation: Cap on the derate factor, so a dead
            channel still leaves ``B·(1−cap)`` of schedule (the
            polls themselves are how the manager discovers
            recovery).
        probe_frequency: Heartbeat frequency kept on elements a
            degraded plan marks unreachable (per period).  Nearly
            free while the shard is down — open-breaker polls are
            skipped without touching the wire — but without it the
            breaker would never see the half-open probe that
            detects recovery, and a dead shard would stay dead
            forever.  The rate also bounds the recovery lag: after
            the source comes back, probes are the only syncs the
            group gets until the next replan restores its full
            allocation, so one period of roughly ``probe_frequency``
            coverage is the price of the failover.
        outage_confirmation: Consecutive end-of-period observations
            an element must stay unreachable before degraded
            planning drops it (>= 1).  The debounce that keeps a
            *flapping* shard from being zeroed during its up-windows:
            dropping a shard that recovers a moment later costs real
            polls, while blindly polling a down shard costs nothing
            (unreachable fast-fails are free), so the replanner
            should only give up on outages that persist.
    """

    def __init__(self, true_catalog: Catalog, bandwidth: float, *,
                 request_rate: float, rng: np.random.Generator,
                 freshener: Freshener | None = None,
                 beliefs: BeliefState | None = None,
                 replan_divergence: float = 0.05,
                 replan_every: int = 0,
                 fault_plan: FaultPlan | None = None,
                 retry_policy: RetryPolicy | None = None,
                 breaker: CircuitBreaker | None = None,
                 shard_of: np.ndarray | None = None,
                 topology: Topology | None = None,
                 subtree_outage_fraction: float = 0.5,
                 fault_aware: bool = True,
                 replan_loss_drift: float = 0.05,
                 max_loss_compensation: float = 0.95,
                 probe_frequency: float = 2.0,
                 outage_confirmation: int = 2) -> None:
        if bandwidth <= 0.0:
            raise ValidationError(
                f"bandwidth must be > 0, got {bandwidth}")
        if not 0.0 <= replan_divergence <= 1.0:
            raise ValidationError(
                "replan_divergence must be in [0, 1], got "
                f"{replan_divergence}")
        if replan_every < 0:
            raise ValidationError(
                f"replan_every must be >= 0, got {replan_every}")
        if not 0.0 <= replan_loss_drift <= 1.0:
            raise ValidationError(
                "replan_loss_drift must be in [0, 1], got "
                f"{replan_loss_drift}")
        if not 0.0 <= max_loss_compensation < 1.0:
            raise ValidationError(
                "max_loss_compensation must be in [0, 1), got "
                f"{max_loss_compensation}")
        if probe_frequency < 0.0:
            raise ValidationError(
                f"probe_frequency must be >= 0, got {probe_frequency}")
        if outage_confirmation < 1:
            raise ValidationError(
                "outage_confirmation must be >= 1, got "
                f"{outage_confirmation}")
        if not 0.0 < subtree_outage_fraction <= 1.0:
            raise ValidationError(
                "subtree_outage_fraction must be in (0, 1], got "
                f"{subtree_outage_fraction}")
        if topology is not None and \
                topology.n_elements != true_catalog.n_elements:
            raise ValidationError(
                f"topology hosts {topology.n_elements} elements, "
                f"catalog has {true_catalog.n_elements}")
        self._true_catalog = true_catalog
        self._bandwidth = bandwidth
        self._request_rate = request_rate
        self._rng = rng
        self._freshener = (freshener if freshener is not None
                           else PerceivedFreshener())
        mean_rate = float(true_catalog.change_rates.mean())
        self._beliefs = beliefs if beliefs is not None else BeliefState(
            true_catalog.n_elements, sizes=true_catalog.sizes,
            prior_rate=max(mean_rate, 1e-6))
        self._replan_divergence = replan_divergence
        self._replan_every = replan_every
        self._fault_plan = fault_plan
        self._retry_policy = retry_policy
        self._breaker = breaker
        self._topology = topology
        self._subtree_fraction = subtree_outage_fraction
        if shard_of is None and topology is not None:
            shard_of = topology.shard_of
        self._shard_of = shard_of
        self._fault_aware = fault_aware
        self._replan_loss_drift = replan_loss_drift
        self._max_loss = max_loss_compensation
        self._probe_frequency = probe_frequency
        self._outage_confirmation = outage_confirmation
        self._faulty = (fault_plan is not None
                        and not fault_plan.is_quiet)
        # Fault draws live on their own spawned generator so the
        # workload stream (updates, accesses, phases) drawn from the
        # main rng is identical across fault-free / blind / aware
        # runs of the same seed — common random numbers, without
        # which a chaos comparison mostly measures update-draw luck
        # on the elements nobody can reach.  spawn() derives the
        # child from the seed sequence without advancing the parent's
        # draw stream, so fault-free runs stay bit-identical.
        self._fault_rng: np.random.Generator | None = None
        if self._faulty:
            self._fault_rng = spawn_rngs(rng, 1)[0]
        self._planned_profile: np.ndarray | None = None
        self._frequencies: np.ndarray | None = None
        self._periods_since_replan = 0
        self._planned_loss = 0.0
        self._planned_unreachable: np.ndarray | None = None
        self._last_unreachable: np.ndarray | None = None
        self._outage_streak: np.ndarray | None = None

    @property
    def beliefs(self) -> BeliefState:
        """The manager's current belief state."""
        return self._beliefs

    @property
    def current_frequencies(self) -> np.ndarray | None:
        """The active schedule (None before the first period)."""
        return self._frequencies

    def replace_world(self, true_catalog: Catalog) -> None:
        """Swap the hidden true workload (for drift experiments).

        The manager's beliefs and active schedule are deliberately
        left untouched — discovering the change from observations is
        the point.

        Args:
            true_catalog: The new hidden workload; must have the same
                number of elements.
        """
        if true_catalog.n_elements != self._true_catalog.n_elements:
            raise ValidationError(
                f"new world has {true_catalog.n_elements} elements, "
                f"expected {self._true_catalog.n_elements}")
        self._true_catalog = true_catalog

    def _believed_loss(self) -> float:
        if not self._fault_aware:
            return 0.0
        return min(self._beliefs.believed_loss_rate(), self._max_loss)

    def _observe_loss(self, result: SimulationResult) -> None:
        """Feed this period's wire loss into the belief state.

        Only transfer-level failures count — they burn bandwidth, so
        derating B compensates for them.  Unreachable fast-fails are
        free (the outage mask, not the derate, is their remedy), and
        elements in a *confirmed* outage are excluded entirely:
        their losses are already answered by zeroing them out of the
        plan, and double-counting them in the derate would starve
        the healthy elements too (bursty workloads made this
        visible — the loss belief soaked up the bad sojourns the
        breaker had already masked).
        """
        attempted = result.attempted_poll_counts
        failed = result.failed_poll_counts
        unreachable = result.unreachable_poll_counts
        # Both engines report per-element counts on every faulted run,
        # and this runs only for a non-quiet plan.
        assert (attempted is not None and failed is not None
                and unreachable is not None)
        wire_attempts = attempted - unreachable
        wire_failures = failed - unreachable
        outage = self._current_outage()
        if outage is not None:
            wire_attempts = wire_attempts[~outage]
            wire_failures = wire_failures[~outage]
        self._beliefs.observe_faults(int(wire_attempts.sum()),
                                     int(wire_failures.sum()))

    def _current_outage(self) -> np.ndarray | None:
        """The unreachable mask degraded planning should honor.

        Only elements unreachable for ``outage_confirmation``
        consecutive period ends count — a flap shorter than the
        confirmation window never makes it into a plan.

        With a topology, confirmed outages covering at least
        ``subtree_outage_fraction`` of a top-level subtree are
        collapsed to the whole subtree: the remaining members share
        the same doomed uplink, so learning their losses one breaker
        shard at a time just delays the inevitable.
        """
        if not self._fault_aware or self._outage_streak is None:
            return None
        confirmed = self._outage_streak >= self._outage_confirmation
        if not confirmed.any():
            return None
        if self._topology is not None:
            subtree = self._topology.subtree_of
            for index in range(self._topology.n_subtrees):
                members = subtree == index
                total = int(members.sum())
                if total == 0 or confirmed[members].all():
                    continue
                down = int(confirmed[members].sum())
                if down / total >= self._subtree_fraction:
                    confirmed = confirmed | members
                    if obs.telemetry_enabled():
                        obs.counter_add("manager.subtree_collapses")
        return confirmed

    def _outage_changed(self) -> bool:
        now = self._current_outage()
        planned = self._planned_unreachable
        if now is None and planned is None:
            return False
        if now is None or planned is None:
            return True
        return bool((now != planned).any())

    def _replan(self) -> float:
        with obs.span("manager.plan"):
            believed = self._beliefs.believed_catalog()
            loss = self._believed_loss()
            # Degraded-mode bandwidth: with loss rate ℓ, only
            # (1−ℓ) of attempts refresh anything, and the failed
            # ones still burn budget — plan the schedule against the
            # effective B·(1−ℓ) so the channel's ledger has the
            # headroom to grant retries.
            effective = self._bandwidth * (1.0 - loss)
            unreachable = self._current_outage()
            if self._topology is not None and self._fault_aware:
                # Bandwidth behind a dead relay is not transferable
                # to the survivors: derate to what the reachable
                # subtrees' source uplinks can actually deliver.
                mask = (unreachable if unreachable is not None
                        else np.zeros(self._true_catalog.n_elements,
                                      dtype=bool))
                deliverable = self._topology.reachable_bandwidth(mask)
                if deliverable < self._bandwidth:
                    effective = deliverable * (1.0 - loss)
                if obs.telemetry_enabled():
                    obs.gauge_set("manager.reachable_bandwidth",
                                  min(deliverable, self._bandwidth))
            if unreachable is None:
                plan = self._freshener.plan(believed, effective)
                frequencies = plan.frequencies
                believed_pf = plan.perceived_freshness
            elif unreachable.all():
                # Nothing reachable: schedule heartbeats only, so
                # recovery is noticed the moment the source returns.
                frequencies = np.full(believed.n_elements,
                                      self._probe_frequency)
                believed_pf = perceived_freshness(believed,
                                                  np.zeros_like(
                                                      frequencies))
            else:
                # Outage mode: zero the dead elements and re-solve
                # the Core Problem over the reachable set, with the
                # believed profile renormalized onto it.
                reachable = ~unreachable
                mass = float(
                    believed.access_probabilities[reachable].sum())
                if mass > 0.0:
                    profile = (believed.access_probabilities[reachable]
                               / mass)
                else:
                    n_up = int(reachable.sum())
                    profile = np.full(n_up, 1.0 / n_up)
                sub = Catalog(
                    access_probabilities=profile,
                    change_rates=believed.change_rates[reachable],
                    sizes=believed.sizes[reachable])
                plan = self._freshener.plan(sub, effective)
                frequencies = np.zeros(believed.n_elements)
                frequencies[reachable] = plan.frequencies
                # Expected PF counts only the reachable syncs; the
                # probe heartbeat below is for recovery detection,
                # not freshness.
                believed_pf = perceived_freshness(believed,
                                                  frequencies)
                frequencies[unreachable] = self._probe_frequency
        self._frequencies = frequencies
        self._planned_profile = believed.access_probabilities.copy()
        self._planned_loss = loss
        self._planned_unreachable = (unreachable.copy()
                                     if unreachable is not None
                                     else None)
        self._periods_since_replan = 0
        if obs.telemetry_enabled():
            obs.gauge_set("manager.believed_loss", loss)
            obs.gauge_set("manager.effective_bandwidth", effective)
            if unreachable is not None:
                obs.event("manager.degraded_plan",
                          unreachable=int(unreachable.sum()),
                          believed_loss=loss,
                          effective_bandwidth=effective)
        return float(believed_pf)

    def _decide_replan(self) -> tuple[bool, float, float]:
        """Run one period's replan decision (and the replan itself).

        Returns:
            ``(replanned, believed_pf, divergence)``.
        """
        if self._planned_profile is None:
            divergence = 1.0
        else:
            divergence = self._beliefs.profile_divergence_from(
                self._planned_profile)
        cadence_due = (self._replan_every > 0 and
                       self._periods_since_replan >= self._replan_every)
        drift_due = (self._frequencies is not None
                     and divergence > self._replan_divergence)
        loss_due = (self._frequencies is not None
                    and abs(self._believed_loss() - self._planned_loss)
                    > self._replan_loss_drift)
        outage_due = (self._frequencies is not None
                      and self._outage_changed())
        replanned = (self._frequencies is None or drift_due
                     or cadence_due or loss_due or outage_due)
        if replanned:
            if obs.telemetry_enabled():
                obs.counter_add("manager.replans")
                if drift_due:
                    obs.counter_add("manager.drift_replans")
                elif outage_due:
                    obs.counter_add("manager.outage_replans")
                elif loss_due:
                    obs.counter_add("manager.loss_replans")
                elif cadence_due:
                    obs.counter_add("manager.cadence_replans")
            believed_pf = self._replan()
        else:
            believed_pf = perceived_freshness(
                self._beliefs.believed_catalog(), self._frequencies)
        assert self._frequencies is not None
        return replanned, believed_pf, divergence

    def _build_simulation(self, period: int) -> Simulation:
        """The simulator for one period, on the global fault clock."""
        assert self._frequencies is not None
        return Simulation(self._true_catalog, self._frequencies,
                          request_rate=self._request_rate,
                          rng=self._rng,
                          fault_plan=self._fault_plan,
                          retry_policy=self._retry_policy,
                          breaker=self._breaker,
                          shard_of=self._shard_of,
                          topology=self._topology,
                          bandwidth_budget=(self._bandwidth
                                            if self._faulty
                                            else None),
                          fault_rng=self._fault_rng,
                          fault_time_offset=float(period - 1))

    def _fold_observations(self, result: SimulationResult) -> None:
        """Fold one period's observations into the belief state."""
        with obs.span("manager.estimate"):
            self._beliefs.observe_period(result.access_counts,
                                         result.poll_counts,
                                         result.changed_poll_counts,
                                         self._frequencies)
            if self._faulty:
                self._last_unreachable = result.unreachable_elements
                if self._last_unreachable is not None:
                    if self._outage_streak is None:
                        self._outage_streak = np.zeros(
                            self._last_unreachable.shape[0],
                            dtype=np.int64)
                    self._outage_streak = np.where(
                        self._last_unreachable,
                        self._outage_streak + 1, 0)
                self._observe_loss(result)
        self._periods_since_replan += 1

    def _make_report(self, period: int, replanned: bool,
                     believed_pf: float, divergence: float,
                     result: SimulationResult) -> PeriodReport:
        """Assemble (and emit telemetry for) one period's report."""
        achieved = perceived_freshness(self._true_catalog,
                                       self._frequencies)
        if obs.telemetry_enabled():
            obs.counter_add("manager.periods")
            obs.gauge_set("manager.profile_divergence", divergence)
            obs.gauge_set("manager.achieved_pf", achieved)
            obs.event("manager.period",
                      period=obs.element_label(period),
                      replanned=replanned, believed_pf=believed_pf,
                      achieved_pf=achieved,
                      monitored_pf=result.monitored_perceived_freshness,
                      profile_divergence=divergence,
                      wasted_polls=result.wasted_sync_fraction,
                      failed_polls=result.failed_polls,
                      retries=result.retries,
                      suppressed_retries=result.suppressed_retries)
        return PeriodReport(
            period=period,
            replanned=replanned,
            believed_pf=believed_pf,
            achieved_pf=achieved,
            monitored_pf=result.monitored_perceived_freshness,
            profile_divergence=divergence,
            n_accesses=result.n_accesses,
            wasted_polls=result.wasted_sync_fraction,
            failed_polls=result.failed_polls,
            retries=result.retries,
            suppressed_retries=result.suppressed_retries,
        )

    def run_period(self, period: int) -> PeriodReport:
        """Execute one period of the adaptive loop.

        Args:
            period: 1-based index, for the report.

        Returns:
            The :class:`PeriodReport`.
        """
        return self._step(period, kernel=False)

    def _step(self, period: int, *, kernel: bool) -> PeriodReport:
        """Decide, simulate, fold and report one period.

        ``kernel`` picks the replay route: the period's
        ``Simulation.build_tape(1)`` replayed by
        :func:`~repro.sim.fastpath.replay_window_tapes`, or
        ``Simulation.run(1)``.  Both draw the same tape and fault
        stream and commit the Gilbert–Elliott chain back to the plan,
        so the report and telemetry are the same either way.
        """
        replanned, believed_pf, divergence = self._decide_replan()
        simulation = self._build_simulation(period)
        with obs.span("manager.simulate"):
            if kernel:
                (result,), _consumed = replay_window_tapes(
                    self._true_catalog, self._frequencies,
                    [simulation.build_tape(1)], period_length=1.0,
                    first_global_period=period,
                    fault_args=simulation.fault_kernel_args())
            else:
                result = simulation.run(n_periods=1)
        self._fold_observations(result)
        return self._make_report(period, replanned, believed_pf,
                                 divergence, result)

    def _batchable(self) -> bool:
        """Whether periods may replay through the kernel route.

        Fault-free loops always qualify; faulty loops qualify when
        :func:`~repro.sim.simulation.kernel_fault_model` accepts the
        fault setup.
        """
        return not self._faulty or kernel_fault_model(
            self._fault_plan, self._retry_policy, self._breaker,
            self._topology) is not None

    def run(self, n_periods: int, *,
            batch: int | None = None) -> list[PeriodReport]:
        """Run the loop for ``n_periods`` periods, one at a time.

        Args:
            n_periods: Number of periods, >= 1.
            batch: Replay route.  ``1`` runs every period through
                ``Simulation.run``; any other value (and ``None``, the
                default) replays kernel-eligible periods (see
                :meth:`_batchable`) through
                :func:`~repro.sim.fastpath.replay_window_tapes`.
                Reports and telemetry are the same either way.

        Returns:
            One :class:`PeriodReport` per period.
        """
        if n_periods < 1:
            raise ValidationError(
                f"n_periods must be >= 1, got {n_periods}")
        if batch is not None and batch < 1:
            raise ValidationError(
                f"batch must be >= 1, got {batch}")
        kernel = batch != 1 and self._batchable()
        return [self._step(period, kernel=kernel)
                for period in range(1, n_periods + 1)]
