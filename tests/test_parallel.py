"""The parallel experiment executor and its jobs-invariance contract.

``--jobs 1`` must be *bit-identical* to the pre-executor serial code,
and ``--jobs N`` must return the very same values in the very same
order — the workers only move where the arithmetic happens, never
what it computes (each task reseeds from its own ``SeedSequence``).
The multi-process tests here use tiny workloads: on a small box the
spawn cost dwarfs the work, which is fine — they check equality, not
speed.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.analysis.chaos import run_chaos
from repro.analysis.replication import simulated_pf_interval
from repro.analysis.sensitivity import burstiness_robustness
from repro.core.freshener import PerceivedFreshener
from repro.errors import ValidationError
from repro.obs import registry as obs
from repro.faults.model import FaultPlan
from repro.parallel import (
    parallel_map,
    resolve_jobs,
    seed_rng,
    spawn_rngs,
)
from repro.runtime.manager import AdaptiveMirrorManager
from repro.workloads.presets import ExperimentSetup, build_catalog

#: A deliberately tiny workload so spawn-based tests stay quick.
TINY = ExperimentSetup(n_objects=20, updates_per_period=40.0,
                       syncs_per_period=10.0, theta=1.0,
                       update_std_dev=1.0)


def _instrumented_square(x: int) -> int:
    """A worker task that records telemetry (module-level: picklable)."""
    obs.counter_add("test.work", 1.0)
    obs.counter_add("test.sum", float(x))
    obs.event("test.task", item=x)
    obs.gauge_set("test.last_item", float(x))
    return x * x


class TestExecutor:
    def test_serial_map_preserves_order_and_values(self):
        assert parallel_map(abs, [-3, 2, -1]) == [3, 2, 1]

    def test_process_map_matches_serial(self):
        items = list(range(8))
        assert parallel_map(str, items, jobs=2) == \
            parallel_map(str, items, jobs=1)

    def test_empty_input(self):
        assert parallel_map(abs, []) == []

    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1
        with pytest.raises(ValidationError):
            resolve_jobs(-1)

    def test_resolve_jobs_counts_the_affinity_mask(self, monkeypatch):
        """``0``/``None`` mean the CPUs this process may run on, not
        every CPU on the host."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert resolve_jobs(0) == 2
        assert resolve_jobs(None) == 2
        assert resolve_jobs(5) == 5

    def test_resolve_jobs_without_affinity_call(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert resolve_jobs(0) == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_jobs(None) == 1

    def test_seed_rng_matches_default_rng(self):
        """The CRN guarantee: SeedSequence(seed) draws the stream of
        default_rng(seed) bit for bit."""
        a = seed_rng(12345).random(64)
        b = np.random.default_rng(12345).random(64)
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_spawn_rngs_spawns_or_derives(self):
        """A seeded generator spawns without advancing its stream; a
        seedless one (a bit generator with no seed sequence) cannot
        spawn, so its children are derived by drawing, reproducibly.
        The adaptive manager's dedicated fault rng is the first
        child either way."""
        seeded = seed_rng(5)
        before = seeded.bit_generator.state
        children = spawn_rngs(seeded, 3)
        assert seeded.bit_generator.state == before
        for child, twin in zip(children, seed_rng(5).spawn(3)):
            assert np.array_equal(child.random(4), twin.random(4))

        def seedless():
            return np.random.Generator(
                np.random.RandomState(5)._bit_generator)

        with pytest.raises(TypeError):
            seedless().spawn(1)
        parent = seedless()
        children = spawn_rngs(parent, 3)
        drawn = seedless()
        for child in children:
            twin = np.random.default_rng(np.random.SeedSequence(
                int(drawn.integers(np.iinfo(np.int64).max))))
            assert np.array_equal(child.random(4), twin.random(4))
        assert parent.random() == drawn.random()

        catalog = build_catalog(TINY, seed=1)
        manager = AdaptiveMirrorManager(
            catalog, TINY.syncs_per_period, request_rate=50.0,
            rng=seedless(), fault_plan=FaultPlan.iid(0.2))
        assert np.array_equal(manager._fault_rng.random(4),
                              spawn_rngs(seedless(), 1)[0].random(4))

    def test_telemetry_counts_tasks_and_times_them(self):
        with obs.telemetry() as registry:
            parallel_map(abs, [-1, 2, -3], label="parallel.test")
        assert registry.counters["parallel.tasks"] == 3.0
        assert registry.gauges["parallel.jobs"] == 1.0
        histogram = registry.histograms["parallel.task_seconds"]
        assert histogram.count == 3
        assert any(record["path"] == "parallel.test"
                   for record in registry.span_records())


class TestWorkerTelemetryMerge:
    """Regression: telemetry recorded inside worker processes used to
    vanish (each worker counted into its own registry, which died with
    the process).  ``parallel_map`` now captures per-worker registries
    and folds them into the parent."""

    def test_worker_counters_are_not_lost(self):
        items = list(range(6))
        with obs.telemetry() as registry:
            result = parallel_map(_instrumented_square, items, jobs=2)
        assert result == [x * x for x in items]
        assert registry.counters["test.work"] == 6.0
        assert registry.counters["test.sum"] == float(sum(items))

    def test_worker_events_carry_worker_labels(self):
        with obs.telemetry() as registry:
            parallel_map(_instrumented_square, [1, 2, 3], jobs=2)
        task_events = registry.events_of_kind("test.task")
        assert sorted(record["item"] for record in task_events) == \
            [1, 2, 3]
        # Worker labels are the task indices, and seq stays monotone.
        assert {record["worker"] for record in task_events} == \
            {"0", "1", "2"}
        seqs = [record["seq"] for record in registry.events]
        assert seqs == sorted(seqs)

    def test_serial_and_parallel_counters_identical(self):
        items = list(range(5))
        with obs.telemetry() as serial:
            parallel_map(_instrumented_square, items, jobs=1)
        with obs.telemetry() as parallel:
            parallel_map(_instrumented_square, items, jobs=2)
        assert serial.counters == parallel.counters
        assert serial.gauges["test.last_item"] == \
            parallel.gauges["test.last_item"]

    def test_telemetry_off_captures_nothing(self):
        obs.disable_telemetry()
        registry = obs.reset_telemetry()
        parallel_map(_instrumented_square, [1, 2], jobs=2)
        assert not registry.counters
        assert not registry.events

    def test_analysis_sweep_counters_match_across_jobs(self):
        """The acceptance-criterion shape on a real fan-out path:
        a burstiness sweep reports the same merged simulation counters
        serial and parallel."""
        levels = np.array([0.0, 0.5])
        kwargs = dict(setup=TINY, burstiness_levels=levels,
                      n_periods=3, request_rate=40.0)
        with obs.telemetry() as serial:
            burstiness_robustness(jobs=1, **kwargs)
        with obs.telemetry() as parallel:
            burstiness_robustness(jobs=2, **kwargs)
        assert serial.counters == parallel.counters
        assert serial.ledger == parallel.ledger


class TestJobsInvariance:
    def test_replication_samples_identical(self):
        catalog = build_catalog(TINY, seed=1)
        plan = PerceivedFreshener().plan(catalog,
                                         TINY.syncs_per_period)
        serial = simulated_pf_interval(
            catalog, plan.frequencies, n_replications=3, n_periods=3,
            request_rate=30.0, jobs=1)
        parallel = simulated_pf_interval(
            catalog, plan.frequencies, n_replications=3, n_periods=3,
            request_rate=30.0, jobs=2)
        assert np.array_equal(serial.samples.view(np.uint64),
                              parallel.samples.view(np.uint64))
        assert serial.interval == parallel.interval

    def test_burstiness_sweep_identical(self):
        levels = np.array([0.0, 0.5])
        serial = burstiness_robustness(setup=TINY,
                                       burstiness_levels=levels,
                                       n_periods=4, request_rate=40.0,
                                       jobs=1)
        parallel = burstiness_robustness(setup=TINY,
                                         burstiness_levels=levels,
                                         n_periods=4,
                                         request_rate=40.0, jobs=2)
        assert np.array_equal(
            serial.series[0].y.view(np.uint64),
            parallel.series[0].y.view(np.uint64))

    def test_chaos_arms_identical(self):
        kwargs = dict(setup=TINY, n_periods=5, warmup=2, seed=0,
                      request_rate=60.0)
        serial = run_chaos("iid20", jobs=1, **kwargs)
        parallel = run_chaos("iid20", jobs=3, **kwargs)
        for field in ("baseline_pf", "blind_pf", "aware_pf",
                      "blind_failed", "aware_failed"):
            assert np.array_equal(getattr(serial, field),
                                  getattr(parallel, field)), field
