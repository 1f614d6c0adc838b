"""Named chaos scenarios: reusable fault configurations.

Each scenario bundles a :class:`~repro.faults.model.FaultPlan`
builder (parameterized on catalog size and horizon so outage windows
can scale with the run) with the retry/breaker configuration the
scenario is meant to exercise.  The ``repro chaos`` harness
(:mod:`repro.analysis.chaos`) runs each scenario twice — against a
fault-blind manager and a degraded-mode manager — and reports the
perceived-freshness degradation and recovery series.

Scenarios only *describe* faults; they import nothing from the
simulator or runtime layers, so the fault vocabulary stays at the
bottom of the layering (``errors`` < ``obs`` < ``faults`` < ``sim``
< ``runtime``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

from repro.faults.breaker import CircuitBreaker
from repro.faults.correlated import CorrelatedFaultModel, NodeOutage
from repro.faults.model import (
    FaultPlan,
    GilbertElliottFaultModel,
    IIDFaultModel,
    LatencyFaultModel,
    OutageWindow,
    PollOutcome,
)
from repro.faults.retry import RetryAdmissionGate, RetryPolicy
from repro.faults.topology import Topology

__all__ = ["CHAOS_SCENARIOS", "ChaosScenario"]


@dataclass(frozen=True)
class ChaosScenario:
    """One named outage scenario.

    Attributes:
        name: CLI slug (``repro chaos --scenario NAME``).
        description: One-line human summary.
        build_plan: ``(n_elements, horizon) -> FaultPlan`` — horizon
            in period units; called once per run so stateful models
            (Gilbert–Elliott) start fresh.
        retry_policy: Backoff policy the resilient manager uses
            (None disables retries).
        breaker_threshold: Consecutive failures that open a circuit,
            or None for no breaker.
        breaker_cooldown: Open-circuit cooldown, in period units.
        grouped_fraction: When set, the first this-fraction of the
            catalog shares one breaker shard (matching the scenario's
            outage footprint) and the rest stay per-element.  Shard
            granularity matters: a shared breaker sees the whole
            group's poll stream, so it both opens fast and — via any
            member's half-open probe — closes fast, where a cold
            element's private breaker can stay open for periods
            simply because nothing polls it.
        build_topology: Optional ``(n_elements) -> Topology`` builder
            for relay-tree scenarios.  When present it supplies the
            breaker shard map (subtree membership beats any modulo or
            prefix grouping) and the chaos harness threads the tree
            through the sync path and manager.
        gate_capacity: When set, each run's retry policy carries a
            fresh shared :class:`~repro.faults.retry.
            RetryAdmissionGate` of this burst size (dimensionless
            token count; see :meth:`retry_policy_for_run`).
        gate_refill_rate: Gate refill rate, in tokens per period.
        selection_capacity_fraction: When set, chaos arms plan with
            the §7 space-constrained path
            (:class:`~repro.core.selection.SpaceConstrainedFreshener`)
            at this fraction of the catalog's total size
            (dimensionless, in ``(0, 1]``).  It applies to chaos
            arms only: :meth:`manager_kwargs` leaves the planner to
            the caller, and ``repro adapt`` keeps its default one.
    """

    name: str
    description: str
    build_plan: Callable[[int, float], FaultPlan]
    retry_policy: RetryPolicy | None = RetryPolicy()
    breaker_threshold: int | None = None
    breaker_cooldown: float = 1.0
    grouped_fraction: float | None = None
    build_topology: Callable[[int], Topology] | None = None
    gate_capacity: float | None = None
    gate_refill_rate: float = 1.0
    selection_capacity_fraction: float | None = None

    def manager_kwargs(self, n_elements: int, horizon: float) -> dict:
        """Fresh fault-channel keyword arguments for one manager run.

        ``fault_plan``, ``retry_policy``, ``topology``, ``breaker``
        and ``shard_of`` for
        :class:`~repro.runtime.manager.AdaptiveMirrorManager`, None
        where the scenario has no such part; ``horizon`` is in
        period units.
        """
        breaker = None
        shard_of = None
        if self.breaker_threshold is not None:
            breaker = CircuitBreaker(
                self.n_shards(n_elements),
                failure_threshold=self.breaker_threshold,
                cooldown=self.breaker_cooldown)
            shard_of = self.shard_of(n_elements)
        return {"fault_plan": self.plan(n_elements, horizon),
                "retry_policy": self.retry_policy_for_run(),
                "topology": self.topology(n_elements),
                "breaker": breaker,
                "shard_of": shard_of}

    def plan(self, n_elements: int, horizon: float) -> FaultPlan:
        """Build a fresh fault plan for one run.

        Args:
            n_elements: Catalog size.
            horizon: Total simulated time, in period units.

        Returns:
            A new :class:`FaultPlan` (fresh stochastic state).
        """
        return self.build_plan(n_elements, horizon)

    def topology(self, n_elements: int) -> Topology | None:
        """The scenario's relay tree for a catalog of this size.

        Returns:
            None for flat (direct source→mirror) scenarios.
        """
        if self.build_topology is None:
            return None
        return self.build_topology(n_elements)

    def shard_of(self, n_elements: int) -> np.ndarray | None:
        """Element → breaker-shard map for this scenario.

        A topology supplies its subtree-membership shard map (an
        edge's uplink fails as one unit, so its elements share one
        breaker).  Without one, the legacy grouped-prefix map
        applies.

        Returns:
            None for identity sharding (one breaker per element);
            otherwise shape ``(n_elements,)``.
        """
        topology = self.topology(n_elements)
        if topology is not None:
            return topology.shard_of
        if self.grouped_fraction is None:
            return None
        grouped = max(int(n_elements * self.grouped_fraction), 1)
        shards = np.zeros(n_elements, dtype=np.int64)
        shards[grouped:] = np.arange(1, n_elements - grouped + 1)
        return shards

    def n_shards(self, n_elements: int) -> int:
        """Breaker shard count implied by :meth:`shard_of`."""
        topology = self.topology(n_elements)
        if topology is not None:
            return topology.n_shards
        shards = self.shard_of(n_elements)
        if shards is None:
            return n_elements
        return int(shards.max()) + 1

    def retry_policy_for_run(self) -> RetryPolicy | None:
        """The retry policy one run should use, with a fresh gate.

        The admission gate is mutable shared state (one token bucket
        per source): reusing one instance across runs would leak
        token balances between arms — and break ``--jobs`` bit-
        identity, since worker processes get pickled copies while
        serial runs share the original.  Each run therefore gets its
        own gate, built here from the scenario's declarative
        ``gate_capacity``/``gate_refill_rate``.

        Returns:
            ``retry_policy`` as-is when no gate is configured, else a
            copy carrying a fresh :class:`RetryAdmissionGate`.
        """
        if self.retry_policy is None or self.gate_capacity is None:
            return self.retry_policy
        return replace(self.retry_policy,
                       admission_gate=RetryAdmissionGate(
                           self.gate_capacity, self.gate_refill_rate))


def _iid20_plan(n_elements: int, horizon: float) -> FaultPlan:
    return FaultPlan.iid(0.2)


def _burst_plan(n_elements: int, horizon: float) -> FaultPlan:
    return FaultPlan(models=(GilbertElliottFaultModel(
        0.05, 0.25, loss_good=0.02, loss_bad=0.95),))


def _outage_plan(n_elements: int, horizon: float) -> FaultPlan:
    shard = tuple(range(max(n_elements // 5, 1)))
    window = OutageWindow(start=horizon / 3.0,
                          end=2.0 * horizon / 3.0,
                          elements=shard)
    return FaultPlan(models=(IIDFaultModel(0.02),),
                     outages=(window,))


def _latency_plan(n_elements: int, horizon: float) -> FaultPlan:
    # exp(-timeout/mean) = exp(-1.9) ~ 15% of attempts blow the
    # deadline.
    return FaultPlan(models=(LatencyFaultModel(0.1, 0.19),))


def _flaky_shard_plan(n_elements: int, horizon: float) -> FaultPlan:
    shard = tuple(range(max(n_elements // 10, 1)))
    flapping = tuple(
        OutageWindow(start=start, end=start + 1.5, elements=shard)
        for start in _window_starts(horizon))
    return FaultPlan(models=(IIDFaultModel(
        0.05, failure=PollOutcome.TIMEOUT),), outages=flapping)


def _window_starts(horizon: float) -> list[float]:
    starts: list[float] = []
    start = horizon / 5.0
    while start + 1.5 < horizon:
        starts.append(start)
        start += 4.0
    return starts or [horizon / 5.0]


def _relay_tree(n_elements: int) -> Topology:
    # Four relays, two edge caches each.  The 25-per-uplink cap is
    # tuned to the chaos preset's B = 80: all four subtrees up give
    # 100 of deliverable capacity (non-binding), one relay down
    # leaves 75 — strictly less than B, so the aware manager's
    # reachable-bandwidth derate has something real to derate to,
    # while the three survivors still have the headroom to absorb
    # the dead subtree's reallocated share.
    return Topology.build(n_elements, n_relays=4, edges_per_relay=2,
                          seed=17, relay_bandwidth=25.0,
                          relay_latency=0.02, edge_latency=0.01)


def _herding_tree(n_elements: int) -> Topology:
    # Two relays, three edges each: one relay covers half the
    # catalog, so its recovery releases the biggest possible
    # synchronized retry herd.  Uncapped uplinks — herding is about
    # the retry storm, not hop budgets.
    return Topology.build(n_elements, n_relays=2, edges_per_relay=3,
                          seed=23, relay_latency=0.02,
                          edge_latency=0.01)


def _relay_cascade_plan(n_elements: int, horizon: float) -> FaultPlan:
    # A long outage (the middle half) plus heavy background loss:
    # the loss-derated replan keeps retry headroom everywhere, and
    # the outage replan reallocates the dead quarter's share across
    # the surviving relays — both levers the blind manager lacks.
    topology = _relay_tree(n_elements)
    outage = NodeOutage(node=topology.root_children[0],
                        start=horizon / 4.0, end=3.0 * horizon / 4.0)
    cascade = CorrelatedFaultModel(topology, scheduled=(outage,),
                                   recovery_debounce=0.25)
    return FaultPlan(models=(cascade, IIDFaultModel(0.2)))


def _herding_plan(n_elements: int, horizon: float) -> FaultPlan:
    topology = _herding_tree(n_elements)
    relay = topology.root_children[0]
    flaps = tuple(
        NodeOutage(node=relay, start=start, end=start + 1.0)
        for start in np.arange(horizon / 5.0, horizon - 1.0,
                               3.0).tolist())
    flapping = CorrelatedFaultModel(topology, scheduled=flaps,
                                    recovery_debounce=0.1)
    return FaultPlan(models=(flapping, IIDFaultModel(
        0.25, failure=PollOutcome.TIMEOUT)))


def _partition_plan(n_elements: int, horizon: float) -> FaultPlan:
    topology = _relay_tree(n_elements)
    outages = tuple(
        NodeOutage(node=relay, start=horizon / 3.0,
                   end=horizon / 2.0)
        for relay in topology.root_children)
    partition = CorrelatedFaultModel(topology, scheduled=outages,
                                     recovery_debounce=0.25)
    return FaultPlan(models=(partition, IIDFaultModel(0.15)))


CHAOS_SCENARIOS: Mapping[str, ChaosScenario] = {
    scenario.name: scenario
    for scenario in (
        ChaosScenario(
            name="iid20",
            description="20% i.i.d. poll failure for the whole run",
            build_plan=_iid20_plan,
            retry_policy=RetryPolicy(max_retries=3),
        ),
        ChaosScenario(
            name="burst",
            description="Gilbert-Elliott bursty loss (95% inside "
                        "bad sojourns)",
            build_plan=_burst_plan,
            retry_policy=RetryPolicy(max_retries=2),
            breaker_threshold=4,
            breaker_cooldown=2.0,
        ),
        ChaosScenario(
            name="outage",
            description="middle-third outage of the first fifth of "
                        "the catalog, plus 2% background loss",
            build_plan=_outage_plan,
            retry_policy=RetryPolicy(max_retries=2),
            breaker_threshold=3,
            breaker_cooldown=0.5,
            grouped_fraction=0.2,
        ),
        ChaosScenario(
            name="latency",
            description="exponential latency draws; ~15% of attempts "
                        "exceed the deadline",
            build_plan=_latency_plan,
            retry_policy=RetryPolicy(max_retries=3),
        ),
        ChaosScenario(
            name="flaky-shard",
            description="one shard flaps down for 1.5 periods every "
                        "4, plus 5% timeouts",
            build_plan=_flaky_shard_plan,
            retry_policy=RetryPolicy(max_retries=2),
            breaker_threshold=3,
            breaker_cooldown=0.5,
            grouped_fraction=0.1,
        ),
        ChaosScenario(
            name="relay-cascade",
            description="one relay dies for the middle half, "
                        "darkening its whole subtree, plus 20% "
                        "background loss; space-constrained planning",
            build_plan=_relay_cascade_plan,
            retry_policy=RetryPolicy(max_retries=3),
            breaker_threshold=3,
            breaker_cooldown=0.5,
            build_topology=_relay_tree,
            selection_capacity_fraction=0.6,
        ),
        ChaosScenario(
            name="herding",
            description="a relay covering half the catalog flaps 1 "
                        "period in every 3 under 25% timeouts; a "
                        "shared admission gate caps the retry herd",
            build_plan=_herding_plan,
            retry_policy=RetryPolicy(max_retries=3),
            breaker_threshold=4,
            breaker_cooldown=0.5,
            build_topology=_herding_tree,
            # Sized to clip recovery stampedes, not steady retries:
            # ~25% timeouts on ~80 polls/period is ~20 retries/period
            # of steady demand, which the refill rate covers, while
            # the post-flap herd arrives faster than 10 tokens deep.
            gate_capacity=10.0,
            gate_refill_rate=20.0,
            selection_capacity_fraction=0.6,
        ),
        ChaosScenario(
            name="partition",
            description="every relay uplink down together for a "
                        "sixth of the run — a full source partition "
                        "— plus 15% background loss",
            build_plan=_partition_plan,
            retry_policy=RetryPolicy(max_retries=2),
            breaker_threshold=2,
            breaker_cooldown=0.5,
            build_topology=_relay_tree,
            selection_capacity_fraction=0.6,
        ),
    )
}
