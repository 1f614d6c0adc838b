"""Tests for the retrying sync channel and fault determinism.

Covers the channel's ledger semantics directly, then the two
determinism guarantees the subsystem makes through the simulator:
same seed + same plan replays a byte-identical fault trace, and a
quiet plan is numerically indistinguishable from no plan at all.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.contracts import contracts
from repro.core.freshener import PerceivedFreshener
from repro.errors import SimulationError, ValidationError
from repro.faults.breaker import CircuitBreaker
from repro.faults.channel import SyncChannel
from repro.faults.model import (FaultPlan, IIDFaultModel, OutageWindow,
                                PollOutcome)
from repro.faults.retry import RetryPolicy
from repro.sim.mirror import Mirror
from repro.sim.simulation import Simulation
from repro.sim.source import Source
from repro.workloads.presets import ExperimentSetup, build_catalog


def make_mirror(n: int = 4, sizes: np.ndarray | None = None) -> Mirror:
    return Mirror(Source(n), sizes=sizes)


FAULTY_SETUP = ExperimentSetup(n_objects=30, updates_per_period=60.0,
                               syncs_per_period=15.0, theta=1.0,
                               update_std_dev=1.0)


def faulty_simulation(seed: int, plan: FaultPlan | None, *,
                      record_trace: bool = False,
                      retry_policy: RetryPolicy | None = None,
                      breaker: CircuitBreaker | None = None):
    catalog = build_catalog(FAULTY_SETUP, seed=7)
    frequencies = PerceivedFreshener().plan(catalog, 15.0).frequencies
    return Simulation(catalog, frequencies, request_rate=120.0,
                      rng=np.random.default_rng(seed),
                      fault_plan=plan, retry_policy=retry_policy,
                      breaker=breaker,
                      record_fault_trace=record_trace)


class TestChannelLedger:
    def test_validation(self):
        mirror = make_mirror(3)
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            SyncChannel(mirror, plan=FaultPlan.quiet(), rng=rng,
                        shard_of=np.zeros(2, dtype=np.int64))
        with pytest.raises(ValidationError):
            SyncChannel(mirror, plan=FaultPlan.quiet(), rng=rng,
                        breaker=CircuitBreaker(2),
                        shard_of=np.array([0, 1, 2]))
        with pytest.raises(ValidationError):
            SyncChannel(mirror, plan=FaultPlan.quiet(), rng=rng,
                        bandwidth_budget=0.0)

    def test_failed_transfers_burn_budget_but_unreachable_is_free(self):
        mirror = make_mirror(2)
        channel = SyncChannel(
            mirror, plan=FaultPlan(
                models=(IIDFaultModel(1.0),),
                outages=(OutageWindow(start=0.0, end=10.0,
                                      elements=(1,)),)),
            rng=np.random.default_rng(1))
        errored = channel.sync(0, 0.1)
        assert errored.outcome is PollOutcome.ERROR
        assert errored.bandwidth == 1.0
        dead = channel.sync(1, 0.2)
        assert dead.outcome is PollOutcome.UNREACHABLE
        assert dead.bandwidth == 0.0
        assert channel.attempted_bandwidth == 1.0
        assert channel.failed_polls == 2
        assert channel.unreachable_polls == 1
        assert list(channel.unreachable_poll_counts()) == [0, 1]

    def test_saturated_period_denies_polls_until_it_rolls(self):
        mirror = make_mirror(1)
        channel = SyncChannel(mirror, plan=FaultPlan.iid(0.0),
                              rng=np.random.default_rng(2),
                              bandwidth_budget=2.0, period_length=1.0)
        assert channel.sync(0, 0.1).outcome is PollOutcome.OK
        assert channel.sync(0, 0.4).outcome is PollOutcome.OK
        # Third poll overdraws the 2-unit period ledger: denied
        # without touching the wire.
        denied = channel.sync(0, 0.7)
        assert denied.outcome is PollOutcome.UNREACHABLE
        assert denied.attempts == 0
        assert channel.denied_polls == 1
        # The next period starts a fresh ledger.
        assert channel.sync(0, 1.1).outcome is PollOutcome.OK

    @pytest.mark.parametrize("offset", [0, 3, 7])
    def test_ledger_keeps_the_run_clock(self, offset):
        """A sync at ``p·0.7`` opens period ``p`` whatever whole-period
        fault offset the channel carries, while the trace reads the
        fault clock.  On the fault clock ``2·0.7 + k·0.7`` rounds below
        ``(2+k)·0.7`` at k = 3 and 7, so a ledger reading it would find
        period 2's sync still in period 1 and deny it."""
        channel = SyncChannel(make_mirror(1), plan=FaultPlan.iid(0.0),
                              rng=np.random.default_rng(2),
                              bandwidth_budget=1.0, period_length=0.7,
                              record_trace=True,
                              fault_time_offset=offset * 0.7)
        times = [p * 0.7 for p in range(6)]
        for time in times:
            assert channel.sync(0, time).outcome is PollOutcome.OK
        assert [entry[0] for entry in channel.trace()] == [
            time + offset * 0.7 for time in times]

    def test_retries_are_charged_and_capped_by_the_ledger(self):
        mirror = make_mirror(1)
        channel = SyncChannel(
            mirror, plan=FaultPlan.iid(1.0),
            rng=np.random.default_rng(3),
            retry_policy=RetryPolicy(max_retries=10),
            bandwidth_budget=3.0, period_length=1.0)
        report = channel.sync(0, 0.0)
        assert report.outcome is PollOutcome.ERROR
        # 3-unit ledger, 1-unit element: exactly three attempts fit.
        assert report.attempts == 3
        assert report.retries == 2
        assert channel.denied_retries == 1
        assert channel.attempted_bandwidth == 3.0

    def test_open_breaker_fast_fails_without_attempts(self):
        mirror = make_mirror(2)
        breaker = CircuitBreaker(2, failure_threshold=1, cooldown=5.0)
        channel = SyncChannel(mirror, plan=FaultPlan.iid(1.0),
                              rng=np.random.default_rng(4),
                              breaker=breaker)
        channel.sync(0, 0.1)              # fails, trips shard 0
        skipped = channel.sync(0, 0.2)
        assert skipped.attempts == 0
        assert channel.breaker_skips == 1
        assert list(channel.unreachable_mask()) == [True, False]
        # The sibling shard is unaffected.
        assert channel.sync(1, 0.3).attempts == 1

    def test_trace_requires_opt_in(self):
        channel = SyncChannel(make_mirror(1), plan=FaultPlan.iid(0.5),
                              rng=np.random.default_rng(5))
        with pytest.raises(SimulationError):
            channel.trace()


class TestDeterminism:
    def test_same_seed_and_plan_replay_identical_trace_and_result(self):
        def run(seed: int):
            return faulty_simulation(
                seed, FaultPlan(models=(IIDFaultModel(0.25),)),
                record_trace=True,
                retry_policy=RetryPolicy(max_retries=2)).run(6)

        a, b = run(11), run(11)
        assert a.fault_trace == b.fault_trace
        assert a.n_updates == b.n_updates
        assert a.attempted_polls == b.attempted_polls
        assert a.failed_polls == b.failed_polls
        assert a.retries == b.retries
        assert a.monitored_perceived_freshness == \
            b.monitored_perceived_freshness
        assert np.array_equal(a.element_time_freshness,
                              b.element_time_freshness)
        assert run(12).fault_trace != a.fault_trace

    def test_quiet_plan_is_bit_identical_to_no_plan(self):
        bare = faulty_simulation(21, None).run(6)
        quiet = faulty_simulation(21, FaultPlan.quiet()).run(6)
        assert quiet.n_updates == bare.n_updates
        assert quiet.n_syncs == bare.n_syncs
        assert quiet.monitored_perceived_freshness == \
            bare.monitored_perceived_freshness
        assert np.array_equal(quiet.element_time_freshness,
                              bare.element_time_freshness)
        assert np.array_equal(quiet.access_counts, bare.access_counts)
        assert quiet.failed_polls == 0
        assert quiet.fault_trace is None

    def test_dedicated_fault_rng_keeps_workload_streams_paired(self):
        """Common random numbers: with a dedicated fault generator the
        update/access draws are identical whatever the faults do."""
        def run(plan: FaultPlan | None):
            catalog = build_catalog(FAULTY_SETUP, seed=7)
            freqs = PerceivedFreshener().plan(catalog,
                                              15.0).frequencies
            rng = np.random.default_rng(31)
            fault_rng = rng.spawn(1)[0]
            return Simulation(catalog, freqs, request_rate=120.0,
                              rng=rng, fault_plan=plan,
                              fault_rng=fault_rng).run(6)

        noisy = run(FaultPlan.iid(0.4))
        clean = run(None)
        assert noisy.n_updates == clean.n_updates
        assert np.array_equal(noisy.access_counts,
                              clean.access_counts)
        assert noisy.failed_polls > 0


class TestAttemptBudgetContract:
    def test_faulty_run_respects_the_attempt_budget(self):
        with contracts():
            result = faulty_simulation(
                41, FaultPlan.iid(0.3),
                retry_policy=RetryPolicy(max_retries=3)).run(8)
        assert result.failed_polls > 0
        # The ledger itself enforces what the contract re-checks:
        # attempts never outspend B per period (plus granularity).
        planned = float(result.catalog.sizes @ result.frequencies)
        slack = float(result.catalog.sizes.max())
        assert result.attempted_bandwidth <= \
            planned * 8.0 + slack * result.catalog.n_elements
