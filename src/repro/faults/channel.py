"""The retrying sync channel between a mirror and its source.

:class:`SyncChannel` replaces the simulator's "every poll succeeds"
assumption with the full production story: each scheduled sync
becomes one or more *attempts* whose outcomes are drawn from a
:class:`~repro.faults.model.FaultPlan`; failed retryable attempts are
retried under a :class:`~repro.faults.retry.RetryPolicy` (backoff
delays advance the attempt's simulated timestamp, so an outage can
outlast a retry burst); a per-shard
:class:`~repro.faults.breaker.CircuitBreaker` fast-fails polls of
shards that look dead.

Bandwidth accounting follows the paper's Core Problem constraint:
a failed transfer (``timeout``/``error``) still burns the element's
size from the period budget B — only ``unreachable`` fast-fails are
free.  The channel keeps a per-period ledger and *every* attempt,
initial or retry, must fit in it: once a period's budget is spent
the pipe is saturated and further polls are denied outright.  That
hard cap is what makes degraded-mode planning matter: a schedule
planned against the full B saturates the ledger with first attempts
and loses its late-period polls, one planned against ``B·(1−loss)``
leaves the headroom its retries are granted from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.scheduler import period_index
from repro.errors import SimulationError, ValidationError
from repro.faults.breaker import CircuitBreaker
from repro.faults.model import FaultPlan, PollOutcome
from repro.faults.retry import RetryPolicy
from repro.faults.topology import HopLedger, Topology
from repro.obs import registry as obs

if TYPE_CHECKING:  # keeps faults below sim in the layering
    from repro.sim.mirror import Mirror

__all__ = ["PollReport", "SyncChannel"]


@dataclass(frozen=True)
class PollReport:
    """What one scheduled sync actually did on the wire.

    Attributes:
        outcome: The final attempt's :class:`PollOutcome` (``ok``
            when any attempt succeeded).
        attempts: Attempts made, including the first (0 when the
            breaker fast-failed the poll).
        retries: Attempts beyond the first.
        changed: Whether the successful sync found a new version
            (meaningful only when ``outcome`` is ``ok``).
        bandwidth: Bandwidth burned across all attempts, in size
            units.
    """

    outcome: PollOutcome
    attempts: int
    retries: int
    changed: bool
    bandwidth: float


class SyncChannel:
    """A faulty, retrying link executing scheduled syncs.

    Args:
        mirror: The mirror whose copies are refreshed on success.
        plan: Fault plan drawn per attempt.
        rng: Seeded generator driving fault draws and retry jitter.
        retry_policy: Backoff policy for retryable failures (None
            disables retries).
        breaker: Optional per-shard circuit breaker.
        shard_of: Maps each element to its breaker shard; identity
            (one shard per element) by default.  Required shape
            ``(n_elements,)`` when given.
        bandwidth_budget: Per-period attempt budget B, in size units
            per period; any attempt — initial or retry — that would
            overdraw it is denied (None disables the ledger —
            attempts are bounded only by the schedule and the retry
            policy).
        period_length: Clock length of one budget period, in the
            simulation's time units, > 0.
        topology: Optional relay tree between source and mirror.
            When given, every attempt must also fit the per-hop
            ledgers on the element's root-to-edge path (all-or-
            nothing), completions are delayed by the path's summed
            hop latency, and ``shard_of`` defaults to the topology's
            subtree-derived shard map.
        record_trace: When True, keep a per-attempt trace (time,
            element, outcome) for determinism audits.
        fault_time_offset: Added to :meth:`sync`'s run-clock times
            to give the fault clock, in clock units (a whole number
            of periods).  The plan, breaker, retry gate, hop transits
            and trace read the fault clock.  The budget ledgers take
            their periods from the run clock, whose windows ``p·L``
            the caller cuts its periods at: ``p·L + k·L`` can round
            below ``(p+k)·L``.
    """

    def __init__(self, mirror: Mirror, *, plan: FaultPlan,
                 rng: np.random.Generator,
                 retry_policy: RetryPolicy | None = None,
                 breaker: CircuitBreaker | None = None,
                 shard_of: np.ndarray | None = None,
                 bandwidth_budget: float | None = None,
                 period_length: float = 1.0,
                 topology: Topology | None = None,
                 record_trace: bool = False,
                 fault_time_offset: float = 0.0) -> None:
        n = mirror.n_elements
        if topology is not None and topology.n_elements != n:
            raise ValidationError(
                f"topology hosts {topology.n_elements} elements, "
                f"mirror has {n}")
        if shard_of is None and topology is not None:
            self._shard_of = topology.shard_of
        elif shard_of is None:
            self._shard_of = np.arange(n, dtype=np.int64)
        else:
            self._shard_of = np.asarray(shard_of, dtype=np.int64)
            if self._shard_of.shape != (n,):
                raise ValidationError(
                    f"shard_of shape {self._shard_of.shape} does not "
                    f"match {n} elements")
        if breaker is not None and self._shard_of.size:
            highest = int(self._shard_of.max())
            if highest >= breaker.n_shards or int(self._shard_of.min()) < 0:
                raise ValidationError(
                    f"shard_of maps into [{int(self._shard_of.min())}, "
                    f"{highest}], breaker has {breaker.n_shards} shards")
        if bandwidth_budget is not None and bandwidth_budget <= 0.0:
            raise ValidationError(
                f"bandwidth_budget must be > 0, got {bandwidth_budget}")
        if period_length <= 0.0:
            raise ValidationError(
                f"period_length must be > 0, got {period_length}")
        self._mirror = mirror
        self._sizes = mirror.sizes
        self._plan = plan
        self._rng = rng
        self._retry = retry_policy
        self._breaker = breaker
        self._budget = bandwidth_budget
        self._period_length = period_length
        self._fault_time_offset = fault_time_offset
        self._topology = topology
        self._hops = (HopLedger(topology, period_length)
                      if topology is not None else None)
        # Last time refreshed content crossed each hop, in the
        # simulation's time units; 0.0 = "fresh at the epoch", so hop
        # ages start at the clock and compose along paths.
        self._hop_last_transit = (np.zeros(topology.n_nodes)
                                  if topology is not None else None)
        self._period_end = period_length
        self._period_spent = 0.0
        self._attempted_polls = 0
        self._failed_polls = 0
        self._unreachable_polls = 0
        self._retries = 0
        self._breaker_skips = 0
        self._denied_polls = 0
        self._denied_retries = 0
        self._hop_denied = 0
        self._suppressed_retries = 0
        self._attempted_bandwidth = 0.0
        self._attempt_counts = np.zeros(n, dtype=np.int64)
        self._failed_counts = np.zeros(n, dtype=np.int64)
        self._unreachable_counts = np.zeros(n, dtype=np.int64)
        self._trace: list[tuple[float, int, str]] | None = (
            [] if record_trace else None)

    # -- accounting ------------------------------------------------

    @property
    def attempted_polls(self) -> int:
        """Total attempts made (initial polls + retries)."""
        return self._attempted_polls

    @property
    def failed_polls(self) -> int:
        """Attempts that failed (any non-``ok`` outcome)."""
        return self._failed_polls

    @property
    def unreachable_polls(self) -> int:
        """Failed attempts that never reached the wire
        (``unreachable`` fast-fails, which burn no bandwidth).
        Subtract from the totals to get *transfer-level* loss — the
        kind that wastes budget and warrants derated planning."""
        return self._unreachable_polls

    @property
    def retries(self) -> int:
        """Attempts beyond the first, across all scheduled syncs."""
        return self._retries

    @property
    def breaker_skips(self) -> int:
        """Scheduled syncs fast-failed by an open circuit."""
        return self._breaker_skips

    @property
    def denied_polls(self) -> int:
        """Scheduled syncs denied outright by a saturated period
        budget (the pipe was full before the first attempt)."""
        return self._denied_polls

    @property
    def denied_retries(self) -> int:
        """Retries refused because the period budget was exhausted."""
        return self._denied_retries

    @property
    def hop_denied(self) -> int:
        """Attempts denied by a saturated hop ledger on the
        element's path (a subset of ``denied_polls`` +
        ``denied_retries``; 0 without a topology)."""
        return self._hop_denied

    @property
    def suppressed_retries(self) -> int:
        """Retries refused by the shared herding admission gate
        (0 when the retry policy carries no gate)."""
        return self._suppressed_retries

    @property
    def attempted_bandwidth(self) -> float:
        """Bandwidth burned across every attempt, in size units."""
        return self._attempted_bandwidth

    @property
    def topology(self) -> Topology | None:
        """The relay tree this channel polls through, if any."""
        return self._topology

    def hop_spent(self) -> np.ndarray:
        """Bandwidth charged per hop in the current period, in size
        units (empty array without a topology)."""
        if self._hops is None:
            return np.zeros(0)
        return self._hops.hop_spent()

    def hop_ages(self, now: float) -> np.ndarray:
        """Per-hop content age at simulated ``now``, in the
        simulation's time units.

        A hop's age is the time since refreshed content last crossed
        its uplink; an edge's composed staleness bound is the max age
        along its root-to-edge path (see :meth:`composed_ages`).
        Empty array without a topology.
        """
        if self._hop_last_transit is None:
            return np.zeros(0)
        return np.maximum(now - self._hop_last_transit, 0.0)

    def composed_ages(self, now: float) -> np.ndarray:
        """Per-element composed age at simulated ``now``: the max hop
        age along each element's root-to-edge path, in the
        simulation's time units.

        This is the relay-tree freshness composition: an edge cannot
        be fresher than the stalest hop feeding it.  Empty array
        without a topology.
        """
        if self._topology is None or self._hop_last_transit is None:
            return np.zeros(0)
        ages = self.hop_ages(now)
        out = np.empty(self._topology.n_elements)
        for element in range(self._topology.n_elements):
            path = list(self._topology.path_of_element(element))
            out[element] = float(ages[path].max())
        return out

    def attempted_poll_counts(self) -> np.ndarray:
        """Attempts per element (dimensionless counts)."""
        return self._attempt_counts.copy()

    def failed_poll_counts(self) -> np.ndarray:
        """Failed attempts per element (dimensionless counts)."""
        return self._failed_counts.copy()

    def unreachable_poll_counts(self) -> np.ndarray:
        """Unreachable fast-fails per element (dimensionless counts)."""
        return self._unreachable_counts.copy()

    def unreachable_mask(self) -> np.ndarray:
        """Boolean mask of elements whose breaker shard is OPEN.

        All-False when the channel has no breaker.
        """
        if self._breaker is None:
            return np.zeros(self._shard_of.shape[0], dtype=bool)
        return self._breaker.open_mask()[self._shard_of]

    def trace(self) -> list[tuple[float, int, str]]:
        """The recorded per-attempt trace.

        Each entry is ``(attempt_time, element, outcome_value)``;
        raises unless the channel was built with ``record_trace``.
        """
        if self._trace is None:
            raise SimulationError(
                "channel was not built with record_trace=True")
        return list(self._trace)

    # -- the poll path ---------------------------------------------

    def sync(self, element: int, time: float) -> PollReport:
        """Execute one scheduled sync through the faulty link.

        Args:
            element: Element index to refresh.
            time: Run-clock time of the scheduled sync, in the
                simulation's time units.

        Returns:
            The :class:`PollReport` of what happened.
        """
        self._roll_period(time)
        # The hop ledgers roll on the run clock too, retries included.
        ledger_time = time
        time += self._fault_time_offset
        shard = int(self._shard_of[element])
        if self._breaker is not None and \
                not self._breaker.allow(shard, time):
            self._breaker_skips += 1
            obs.counter_add("faults.breaker_skips")
            return PollReport(outcome=PollOutcome.UNREACHABLE,
                              attempts=0, retries=0, changed=False,
                              bandwidth=0.0)
        size = float(self._sizes[element])
        if self._budget is not None and \
                self._period_spent + size > self._budget:
            # The pipe is saturated for this period: the scheduled
            # poll never makes it onto the wire.  Not a breaker
            # signal — the source did nothing wrong.
            self._denied_polls += 1
            obs.counter_add("faults.denied_polls")
            return PollReport(outcome=PollOutcome.UNREACHABLE,
                              attempts=0, retries=0, changed=False,
                              bandwidth=0.0)
        if self._hops is not None and \
                self._hops.admits(element, size,
                                  ledger_time) is not None:
            # Some hop on the root-to-edge path is saturated for this
            # period: the poll cannot transit, even if the source's
            # flat budget has headroom.
            self._denied_polls += 1
            self._hop_denied += 1
            obs.counter_add("faults.denied_polls")
            obs.counter_add("faults.topology.hop_denied")
            return PollReport(outcome=PollOutcome.UNREACHABLE,
                              attempts=0, retries=0, changed=False,
                              bandwidth=0.0)
        attempts = 0
        burned = 0.0
        delay = 0.0
        attempt_time = time
        outcome = PollOutcome.UNREACHABLE
        while True:
            attempts += 1
            self._attempted_polls += 1
            self._attempt_counts[element] += 1
            outcome = self._plan.outcome(element, attempt_time,
                                         self._rng)
            if self._trace is not None:
                self._trace.append((attempt_time, int(element),
                                    outcome.value))
            if outcome is not PollOutcome.UNREACHABLE:
                # The transfer ran (successfully or not): it burned
                # the element's size from the period budget — and
                # from every hop ledger on its path.
                burned += size
                self._period_spent += size
                self._attempted_bandwidth += size
                if self._hops is not None:
                    self._hops.charge(element, size)
            if outcome is PollOutcome.OK:
                break
            self._failed_polls += 1
            if outcome is PollOutcome.UNREACHABLE:
                self._unreachable_polls += 1
                self._unreachable_counts[element] += 1
            self._failed_counts[element] += 1
            obs.counter_add(f"faults.{outcome.value}")
            if not outcome.is_retryable or self._retry is None:
                break
            if attempts > self._retry.max_retries:
                break
            if self._budget is not None and \
                    self._period_spent + size > self._budget:
                self._denied_retries += 1
                obs.counter_add("faults.denied_retries")
                break
            if self._hops is not None and \
                    self._hops.admits(element, size,
                                      ledger_time) is not None:
                self._denied_retries += 1
                self._hop_denied += 1
                obs.counter_add("faults.denied_retries")
                obs.counter_add("faults.topology.hop_denied")
                break
            if self._retry.admission_gate is not None:
                if not self._retry.admission_gate.admit(attempt_time):
                    # The source's shared retry bucket is dry — this
                    # channel's retry would have joined a herd.
                    self._suppressed_retries += 1
                    obs.counter_add("faults.herding.suppressed")
                    break
                obs.counter_add("faults.herding.admitted")
            delay = self._retry.next_delay(delay, self._rng)
            attempt_time += delay
            ledger_time += delay
            self._retries += 1
            obs.counter_add("faults.retries")

        completion = attempt_time
        if self._topology is not None:
            # The transfer is not done until it has transited every
            # hop: completions lag by the path's summed latency.
            completion += self._topology.path_latency(element)
        if outcome is PollOutcome.OK:
            if self._breaker is not None:
                self._breaker.record_success(shard, completion)
            if self._topology is not None and \
                    self._hop_last_transit is not None:
                arrival = attempt_time
                for node in self._topology.path_of_element(element):
                    arrival += float(self._topology.link_latency[node])
                    self._hop_last_transit[node] = max(
                        self._hop_last_transit[node], arrival)
            changed = self._mirror.sync(element)
            return PollReport(outcome=outcome, attempts=attempts,
                              retries=attempts - 1, changed=changed,
                              bandwidth=burned)
        if self._breaker is not None:
            self._breaker.record_failure(shard, completion)
        obs.counter_add("faults.failed_syncs")
        return PollReport(outcome=outcome, attempts=attempts,
                          retries=attempts - 1, changed=False,
                          bandwidth=burned)

    def _roll_period(self, time: float) -> None:
        # The ledger stands until a time reaches the next window's
        # start; the new period is the one whose window holds it.
        if time < self._period_end:
            return
        period = int(period_index(time, self._period_length))
        self._period_end = (period + 1) * self._period_length
        self._period_spent = 0.0
