"""The benchmark's four workloads.

Each workload is a closed loop: one client in one process starts the
next run only when the previous one has returned.  Its inputs come
from the seed alone.  A run returns the digest of its result — the
uint64 view of the per-element time freshness that the paper's
access-weighted freshness is computed from, plus the poll, failure
and retry counts — and every repeat must reproduce it.

A workload comes in three sizes: ``full`` is the benchmark, ``smoke``
keeps the self-tests and the warm-up to seconds, and ``twin`` is the
reduced copy whose tape is replayed a second time by the reference
loop (or, for the adaptive loop, by the ``batch=1`` manager).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.freshener import PartitionedFreshener, PerceivedFreshener
from repro.faults.model import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.obs import registry as obs
from repro.runtime.manager import AdaptiveMirrorManager
from repro.sim import events, fastpath
from repro.sim.events import EventKind
from repro.sim.generators import RequestGenerator, UpdateGenerator
from repro.sim.simulation import Simulation
from repro.workloads import presets

# The traced runs call layer functions through their modules
# (``presets.build_catalog``, ``events.merge_kind_blocks``, ...) so the
# tracer's wrappers, installed on those modules, see the calls.


@dataclass(frozen=True)
class Size:
    """How much one run does."""

    n_elements: int
    periods: int


@dataclass
class Traced:
    """What a traced run hands back besides its spans."""

    digest: str
    #: The program's telemetry registry, when the run had it on.
    registry: Any = None
    #: Adaptive periods reported (accepted, not rolled back).
    accepted_periods: int = 0
    #: Streamed slabs, kept to time the same feeds with telemetry off.
    slabs: list | None = None


#: Feeds per telemetry setting when timing telemetry emission.
EMIT_REPEATS = 3


def _rng(seed: int, stream: int) -> np.random.Generator:
    """The generator of one input stream of a seeded workload."""
    return np.random.default_rng([seed, stream])


def _digest(values: np.ndarray, *counts: int) -> str:
    """Digest of float64 values, bit for bit, and integer counts."""
    digest = hashlib.sha256(np.ascontiguousarray(
        values, dtype=np.float64).view(np.uint64).tobytes())
    digest.update(repr(tuple(int(count) for count in counts)).encode())
    return digest.hexdigest()[:16]


def result_digest(result: Any) -> str:
    """Digest of one simulation result."""
    return _digest(result.element_time_freshness, result.attempted_polls,
                   result.failed_polls, result.retries)


def _reports_digest(reports: list) -> str:
    """Digest of an adaptive run's period reports."""
    floats = np.array([(r.believed_pf, r.achieved_pf, r.monitored_pf,
                        r.profile_divergence, r.wasted_polls)
                       for r in reports])
    counts = [value for r in reports
              for value in (r.replanned, r.n_accesses, r.failed_polls,
                            r.retries, r.suppressed_retries)]
    return _digest(floats.ravel(), *counts)


def _same_results(kernel: Any, reference: Any, inject: bool) -> bool:
    """Whether two engines' results on one tape agree bit for bit.

    ``inject`` flips the lowest bit of one freshness value first, so
    the self-tests can prove a mismatch is caught.
    """
    freshness = kernel.element_time_freshness.view(np.uint64).copy()
    if inject:
        freshness[0] ^= np.uint64(1)
    return (np.array_equal(
        freshness, reference.element_time_freshness.view(np.uint64))
        and (kernel.attempted_polls, kernel.failed_polls, kernel.retries)
        == (reference.attempted_polls, reference.failed_polls,
            reference.retries))


def _sizes(catalog: Any) -> np.ndarray:
    return np.asarray(catalog.sizes, dtype=float)


class Workload:
    """One workload at one size and seed."""

    name = ""
    full: Size
    smoke: Size
    twin: Size

    def __init__(self, size: Size, seed: int) -> None:
        self.size = size
        self.seed = seed

    @property
    def element_periods(self) -> int:
        """Catalog elements × simulated periods one run delivers."""
        return self.size.n_elements * self.size.periods

    def setup(self) -> None:
        """Build what every run shares (timed as set-up)."""

    def run_once(self) -> str:
        """One timed run; returns its result digest."""
        raise NotImplementedError

    def traced_run(self, tracer: Any) -> Traced:
        """The run again, through calls the tracer can see."""
        raise NotImplementedError

    def probe(self, tracer: Any) -> Traced | None:
        """Traced-only work for a layer no timed workload covers."""
        return None

    def twin_checks(self, inject: bool) -> list[tuple[str,
                                                      Callable[[], bool]]]:
        """Named checks that replay a twin tape through two engines."""
        raise NotImplementedError


class _Simulated(Workload):
    """A single ``Simulation`` over a generated catalog and a plan."""

    updates_factor = 1.0
    syncs_factor = 0.3
    requests_factor = 0.5

    def setup(self) -> None:
        n = self.size.n_elements
        spec = presets.ExperimentSetup(
            n_objects=n, updates_per_period=self.updates_factor * n,
            syncs_per_period=self.syncs_factor * n, theta=1.0,
            update_std_dev=2.0)
        self.catalog = presets.build_catalog(spec, seed=self.seed)
        self.frequencies = PartitionedFreshener(n_partitions=64).plan(
            self.catalog, spec.syncs_per_period).frequencies
        self.request_rate = self.requests_factor * n

    def fault_kwargs(self) -> dict:
        raise NotImplementedError

    def simulation(self) -> Simulation:
        """A fresh simulation: same seeds, same tape, fresh fault state."""
        return Simulation(self.catalog, self.frequencies,
                          request_rate=self.request_rate,
                          rng=_rng(self.seed, 1),
                          fault_rng=_rng(self.seed, 2),
                          **self.fault_kwargs())

    def generators(self) -> tuple[UpdateGenerator, RequestGenerator]:
        """Update and request generators on the simulation's stream."""
        rng = _rng(self.seed, 1)
        return (UpdateGenerator(self.catalog, rng=rng),
                RequestGenerator(self.catalog, rate=self.request_rate,
                                 rng=rng))


class OneshotIID(_Simulated):
    """One-shot run under 20% i.i.d. loss with bounded retries."""

    name = "oneshot-iid"
    full = Size(1_000_000, 1)
    smoke = Size(5_000, 2)
    twin = Size(5_000, 2)
    #: Horizon of the reference-loop probe (about 36 000 events at 10⁶).
    CHANNEL_PROBE_PERIODS = 0.02

    def fault_kwargs(self) -> dict:
        return {"fault_plan": FaultPlan.iid(0.2),
                "retry_policy": RetryPolicy(max_retries=3)}

    def run_once(self) -> str:
        return result_digest(
            self.simulation().run(self.size.periods, engine="auto"))

    def traced_run(self, tracer: Any) -> Traced:
        """``build_tape`` from its public parts, then resolve, replay."""
        sim = self.simulation()
        horizon = float(self.size.periods)
        updates, requests = self.generators()
        update_times, update_elements = updates.draw_window(0.0, horizon)
        sync_times, sync_elements = sim.schedule.events_until(horizon)
        access_times, access_elements = requests.draw_window(0.0,
                                                             horizon)
        times, elements, kinds = events.merge_kind_blocks(
            update_times, update_elements, sync_times, sync_elements,
            access_times, access_elements,
            n_elements=self.catalog.n_elements)
        resolution, _ = fastpath.resolve_tape_faults(
            (times, elements, kinds), _sizes(self.catalog),
            fault_args=sim.fault_kernel_args(), period_length=1.0,
            fault_clock_offset=0.0)
        syncs = np.flatnonzero(kinds == int(EventKind.SYNC))
        keep = np.ones(times.shape[0], dtype=bool)
        keep[syncs[~resolution.success]] = False
        result = fastpath.replay_fastpath(
            self.catalog, self.frequencies, times[keep], elements[keep],
            kinds[keep], horizon=horizon, period_length=1.0,
            n_periods=horizon)
        attempted = int(resolution.attempts.sum())
        return Traced(_digest(
            result.element_time_freshness, attempted,
            attempted - int(np.count_nonzero(resolution.success)),
            attempted - int(np.count_nonzero(resolution.attempts))))

    def probe(self, tracer: Any) -> Traced | None:
        """The same simulation on the reference loop, for a short horizon.

        The ``repro.faults`` channel only runs on the reference loop,
        which no timed workload uses; this measures its cost per event
        on this workload's catalog, plan and fault setup, with
        telemetry off.  A second run over the same horizon lets the
        program's ``engine="auto"`` dispatch choose, with telemetry
        on, so its ``sim.engine.*`` counters show which engine this
        configuration takes.
        """
        self.simulation().run(self.CHANNEL_PROBE_PERIODS,
                              engine="reference")
        with obs.telemetry() as registry:
            self.simulation().run(self.CHANNEL_PROBE_PERIODS,
                                  engine="auto")
        return Traced("", registry=registry)

    def twin_checks(self, inject: bool) -> list[tuple[str,
                                                      Callable[[], bool]]]:
        def engines_agree() -> bool:
            periods = self.size.periods
            return _same_results(
                self.simulation().run(periods, engine="auto"),
                self.simulation().run(periods, engine="reference"),
                inject)
        return [("auto engine vs reference loop", engines_agree)]


class StreamGE(_Simulated):
    """One-period slabs under one Gilbert–Elliott plan, telemetry on."""

    name = "stream-ge"
    full = Size(1_000_000, 2)
    smoke = Size(5_000, 3)
    twin = Size(5_000, 3)
    updates_factor = 0.5
    syncs_factor = 0.2
    requests_factor = 0.25

    def fault_kwargs(self) -> dict:
        # An ample budget and no retries take the segmented-scan path.
        return {"fault_plan": FaultPlan.bursty(0.05, 0.4),
                "bandwidth_budget": 1e9}

    def run_once(self) -> str:
        with obs.telemetry():
            result = self.simulation().run(self.size.periods,
                                           chunk_periods=1)
        return result_digest(result)

    def _streaming(self, sim: Simulation) -> fastpath.StreamingReplay:
        return fastpath.StreamingReplay(
            self.catalog, self.frequencies, period_length=1.0,
            n_periods=self.size.periods,
            fault_args=sim.fault_kernel_args())

    def traced_run(self, tracer: Any) -> Traced:
        """``Simulation.run(chunk_periods=1)`` from its public parts."""
        sim = self.simulation()
        updates, requests = self.generators()
        children = _rng(self.seed, 1).spawn(self.size.periods)
        arena = fastpath.ReplayArena()
        streaming = self._streaming(sim)
        slabs = []
        with obs.telemetry() as registry:
            for slab, child in enumerate(children):
                start, end = float(slab), float(slab + 1)
                sync_times, sync_elements = sim.schedule.events_between(
                    start, end)
                update_times, update_elements = \
                    updates.draw_window_sorted(start, end, rng=child,
                                               arena=arena)
                access_times, access_elements = \
                    requests.draw_window_sorted(start, end, rng=child,
                                                arena=arena)
                tape = events.merge_sorted_blocks(
                    update_times, update_elements, sync_times,
                    sync_elements, access_times, access_elements,
                    n_elements=self.catalog.n_elements)
                streaming.feed(*tape, n_periods=1)
                slabs.append(tape)
            result = streaming.finish()
        return Traced(result_digest(result), registry=registry,
                      slabs=slabs)

    def emit_seconds(self, slabs: list) -> float:
        """Seconds that telemetry adds to feeding the traced run's slabs.

        The slabs are fed again :data:`EMIT_REPEATS` times with
        telemetry on and as often with it off, alternately, each time
        into a fresh ``StreamingReplay``; the fastest feed of each kind
        is kept, so warm caches and host drift favour neither, and a
        difference below 0 (noise) reads 0.
        """
        fastest = {True: float("inf"), False: float("inf")}
        for _ in range(EMIT_REPEATS):
            for telemetry in (True, False):
                streaming = self._streaming(self.simulation())
                with obs.telemetry(enabled=telemetry):
                    start = time.perf_counter()
                    for tape in slabs:
                        streaming.feed(*tape, n_periods=1)
                    fastest[telemetry] = min(
                        fastest[telemetry], time.perf_counter() - start)
        return max(fastest[True] - fastest[False], 0.0)

    def twin_checks(self, inject: bool) -> list[tuple[str,
                                                      Callable[[], bool]]]:
        def slabs_match_reference() -> bool:
            periods = self.size.periods
            reference = self.simulation().run(periods,
                                              engine="reference")
            sim = self.simulation()
            times, elements, kinds = sim.build_tape(periods)
            streaming = self._streaming(sim)
            for period in range(periods):
                lo, hi = np.searchsorted(times, [period, period + 1])
                streaming.feed(times[lo:hi], elements[lo:hi],
                               kinds[lo:hi], n_periods=1)
            return _same_results(streaming.finish(), reference, inject)
        adaptive = AdaptExact(AdaptExact.twin, self.seed)
        adaptive.setup()
        return [("one-period slab replay vs reference loop",
                 slabs_match_reference)] + adaptive.twin_checks(inject)

    def probe(self, tracer: Any) -> Traced | None:
        """The adaptive loop, which no timed workload covers.

        It runs on a tenth of this workload's catalog: 10⁵ elements at
        full size, as the adaptive loop's design size.
        """
        adaptive = AdaptExact(Size(self.size.n_elements // 10,
                                   AdaptExact.full.periods), self.seed)
        adaptive.setup()
        return adaptive.traced_run(tracer)


class AdaptExact(Workload):
    """The adaptive manager with the exact planner, no faults.

    Not a timed workload (NOTES.md says why): ``stream-ge`` traces it as
    its probe and runs its twin check.
    """

    name = "adapt-exact"
    full = Size(100_000, 3)
    twin = Size(500, 6)

    def setup(self) -> None:
        n = self.size.n_elements
        self.spec = presets.ExperimentSetup(
            n_objects=n, updates_per_period=1.0 * n,
            syncs_per_period=0.3 * n, theta=1.0, update_std_dev=2.0)
        self.catalog = presets.build_catalog(self.spec, seed=self.seed)

    def _reports(self, batch: int | None = None) -> list:
        manager = AdaptiveMirrorManager(
            self.catalog, self.spec.syncs_per_period,
            request_rate=0.5 * self.size.n_elements,
            rng=_rng(self.seed, 1), freshener=PerceivedFreshener())
        return manager.run(self.size.periods, batch=batch)

    def traced_run(self, tracer: Any) -> Traced:
        with obs.telemetry() as registry, tracer.span("adapt.run"):
            reports = self._reports()
        return Traced(_reports_digest(reports), registry=registry,
                      accepted_periods=len(reports))

    def twin_checks(self, inject: bool) -> list[tuple[str,
                                                      Callable[[], bool]]]:
        def batched_matches_sequential() -> bool:
            batched = _reports_digest(self._reports())
            if inject:
                batched += "!"
            return batched == _reports_digest(self._reports(batch=1))
        return [("default batch vs batch=1 manager",
                 batched_matches_sequential)]


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload
    for workload in (OneshotIID, StreamGE)}
