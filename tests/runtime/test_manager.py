"""Tests for repro.runtime.manager — the adaptive loop."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.freshener import PartitionedFreshener, PerceivedFreshener
from repro.errors import ValidationError
from repro.faults.model import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.runtime.manager import AdaptiveMirrorManager
from repro.workloads.presets import ExperimentSetup, build_catalog

SETUP = ExperimentSetup(n_objects=80, updates_per_period=160.0,
                        syncs_per_period=40.0, theta=1.2,
                        update_std_dev=1.0)


@pytest.fixture
def world():
    return build_catalog(SETUP, alignment="shuffled", seed=4)


def make_manager(world, **kwargs):
    defaults = dict(request_rate=1500.0,
                    rng=np.random.default_rng(0))
    defaults.update(kwargs)
    return AdaptiveMirrorManager(world, SETUP.syncs_per_period,
                                 **defaults)


class TestConstruction:
    def test_validation(self, world):
        with pytest.raises(ValidationError):
            AdaptiveMirrorManager(world, 0.0, request_rate=10.0,
                                  rng=np.random.default_rng(0))
        with pytest.raises(ValidationError):
            make_manager(world, replan_divergence=1.5)
        with pytest.raises(ValidationError):
            make_manager(world, replan_every=-1)

    def test_no_schedule_before_first_period(self, world):
        manager = make_manager(world)
        assert manager.current_frequencies is None


class TestLoop:
    def test_first_period_always_replans(self, world):
        manager = make_manager(world)
        report = manager.run_period(1)
        assert report.replanned
        assert manager.current_frequencies is not None

    def test_learning_improves_achieved_pf(self, world):
        manager = make_manager(world)
        reports = manager.run(6)
        assert reports[-1].achieved_pf > reports[0].achieved_pf + 0.05

    def test_converges_near_oracle(self, world):
        manager = make_manager(world)
        reports = manager.run(10)
        oracle = PerceivedFreshener().plan(
            world, SETUP.syncs_per_period).perceived_freshness
        assert reports[-1].achieved_pf > 0.85 * oracle

    def test_never_reads_true_profile(self, world):
        """The manager's believed profile must come from observations:
        before any period it is uniform, not the true Zipf."""
        manager = make_manager(world)
        assert np.allclose(manager.beliefs.believed_profile(),
                           1.0 / world.n_elements)

    def test_replan_cadence(self, world):
        manager = make_manager(world, replan_divergence=1.0,
                               replan_every=2)
        reports = manager.run(6)
        # Period 1 plans; divergence never triggers (threshold 1.0);
        # cadence forces replans at periods 3 and 5.
        assert [r.replanned for r in reports] == [True, False, True,
                                                  False, True, False]

    def test_divergence_trigger(self, world):
        manager = make_manager(world, replan_divergence=0.01)
        reports = manager.run(4)
        # With a hair trigger the early drift always replans.
        assert sum(r.replanned for r in reports) >= 3

    def test_reports_well_formed(self, world):
        manager = make_manager(world)
        reports = manager.run(3)
        for index, report in enumerate(reports, start=1):
            assert report.period == index
            assert 0.0 <= report.achieved_pf <= 1.0
            assert 0.0 <= report.monitored_pf <= 1.0
            assert 0.0 <= report.wasted_polls <= 1.0
            assert report.n_accesses > 0

    def test_run_validates(self, world):
        manager = make_manager(world)
        with pytest.raises(ValidationError):
            manager.run(0)

    def test_partitioned_planner_supported(self, world):
        manager = make_manager(
            world, freshener=PartitionedFreshener(10))
        reports = manager.run(5)
        assert reports[-1].achieved_pf > reports[0].achieved_pf

    def test_deterministic_given_seed(self, world):
        first = make_manager(world).run(4)
        second = make_manager(world).run(4)
        assert [r.achieved_pf for r in first] == \
            [r.achieved_pf for r in second]


class TestWorldDrift:
    def test_replace_world_validates(self, world):
        manager = make_manager(world)
        tiny = build_catalog(
            ExperimentSetup(n_objects=10, updates_per_period=20.0,
                            syncs_per_period=5.0, theta=1.0,
                            update_std_dev=1.0), seed=0)
        with pytest.raises(ValidationError):
            manager.replace_world(tiny)

    def test_recovers_after_interest_flip(self, world):
        manager = make_manager(world, replan_divergence=0.03)
        manager.run(8)
        drifted = world.with_profile(
            world.access_probabilities[::-1].copy())
        manager.replace_world(drifted)
        crash = manager.run_period(9)
        recovery = manager.run(14)
        assert recovery[-1].achieved_pf > crash.achieved_pf + 0.1


class TestRateDrift:
    def test_rate_decay_tracks_drifting_change_rates(self, world):
        """When the world's change rates shift, a decaying belief
        state recovers faster than a never-forgetting one."""
        from repro.runtime.beliefs import BeliefState

        def run_with(rate_decay):
            beliefs = BeliefState(
                world.n_elements, sizes=world.sizes,
                prior_rate=float(world.change_rates.mean()),
                rate_decay=rate_decay)
            manager = make_manager(world, beliefs=beliefs,
                                   replan_divergence=0.03)
            manager.run(10)
            # The world's volatility landscape reverses.
            drifted = world.with_change_rates(
                world.change_rates[::-1].copy())
            manager.replace_world(drifted)
            reports = manager.run(15)
            estimates = manager.beliefs.believed_rates()
            error = float(np.abs(estimates
                                 - drifted.change_rates).mean())
            return reports[-1].achieved_pf, error

        _, decayed_error = run_with(0.6)
        _, frozen_error = run_with(1.0)
        assert decayed_error < frozen_error

    def test_rate_decay_validated(self):
        from repro.errors import ValidationError
        from repro.runtime.beliefs import BeliefState
        import pytest as _pytest
        with _pytest.raises(ValidationError):
            BeliefState(2, rate_decay=0.0)
        with _pytest.raises(ValidationError):
            BeliefState(2, rate_decay=1.5)


class TestBatchedWindows:
    """run(batch=...) must be bit-identical to the sequential loop."""

    @staticmethod
    def _reports_equal(sequential, batched):
        assert len(sequential) == len(batched)
        for seq, bat in zip(sequential, batched):
            assert dataclasses.asdict(seq) == dataclasses.asdict(bat)

    def test_fault_free_batched_matches_sequential(self, world):
        sequential = make_manager(world, replan_every=3).run(
            12, batch=1)
        batched = make_manager(world, replan_every=3).run(12)
        self._reports_equal(sequential, batched)

    def test_iid_batched_matches_sequential(self, world):
        def runner(batch):
            return make_manager(
                world, fault_plan=FaultPlan.iid(0.25),
                retry_policy=RetryPolicy(max_retries=3),
                replan_every=4).run(12, batch=batch)

        self._reports_equal(runner(1), runner(None))

    def test_drift_rollback_matches_sequential(self, world):
        """Drift-triggered mid-window replans exercise the rollback
        path: the rewound rng must replay the discarded periods
        exactly as the sequential loop first ran them."""
        def runner(batch):
            return make_manager(
                world, fault_plan=FaultPlan.iid(0.25),
                retry_policy=RetryPolicy(max_retries=3),
                replan_every=0, replan_divergence=0.03).run(
                14, batch=batch)

        sequential = runner(1)
        batched = runner(8)
        assert any(r.replanned for r in sequential[1:])
        self._reports_equal(sequential, batched)

    def test_ge_batched_matches_sequential(self, world):
        """Gilbert–Elliott plans batch through the scan kernel now;
        the windowed run must stay bit-identical, chain threading
        included."""
        from repro.faults.model import GilbertElliottFaultModel

        def runner(batch):
            return make_manager(
                world,
                fault_plan=FaultPlan(
                    models=(GilbertElliottFaultModel(0.2, 0.5),)),
                retry_policy=RetryPolicy(max_retries=2),
                replan_every=4).run(12, batch=batch)

        self._reports_equal(runner(1), runner(None))

    def test_ge_drift_rollback_matches_sequential(self, world):
        """A mid-window drift replan on a GE plan must restore the
        fault stream *and* the chain-state snapshot before re-running
        the tail."""
        from repro.faults.model import GilbertElliottFaultModel

        def runner(batch):
            return make_manager(
                world,
                fault_plan=FaultPlan(
                    models=(GilbertElliottFaultModel(0.25, 0.4),)),
                retry_policy=RetryPolicy(max_retries=2),
                replan_every=0, replan_divergence=0.03).run(
                14, batch=batch)

        sequential = runner(1)
        batched = runner(8)
        assert any(r.replanned for r in sequential[1:])
        self._reports_equal(sequential, batched)

    def test_gated_retries_fall_back_to_sequential(self, world):
        """A shared admission gate keeps the loop per-period (its
        token bucket is cross-attempt stateful) — and reports must
        still agree because batch collapses to the sequential
        path."""
        from repro.faults.retry import RetryAdmissionGate

        def runner(batch):
            manager = make_manager(
                world, fault_plan=FaultPlan.iid(0.25),
                retry_policy=RetryPolicy(
                    max_retries=2,
                    admission_gate=RetryAdmissionGate(
                        capacity=4.0, refill_rate=2.0)),
                replan_every=4)
            assert not manager._batchable()
            return manager.run(6, batch=batch)

        self._reports_equal(runner(1), runner(4))

    def test_batch_validated(self, world):
        with pytest.raises(ValidationError):
            make_manager(world).run(3, batch=0)

class TestSlabGroups:
    """Window batching split into slab groups stays bit-identical."""

    @staticmethod
    def _reports_equal(left, right):
        assert len(left) == len(right)
        for a, b in zip(left, right):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)

    @pytest.mark.parametrize("kind", ["quiet", "iid", "ge"])
    def test_slabbed_window_matches_unsplit(self, world, kind):
        """Splitting a window's kernel calls into 2-period slabs must
        not change any report: tapes are drawn in period order either
        way, and per-period results do not depend on the grouping."""
        from repro.faults.model import GilbertElliottFaultModel

        def runner(slab_periods):
            kwargs = {}
            if kind == "iid":
                kwargs = dict(fault_plan=FaultPlan.iid(0.25),
                              retry_policy=RetryPolicy(max_retries=3))
            elif kind == "ge":
                kwargs = dict(
                    fault_plan=FaultPlan(
                        models=(GilbertElliottFaultModel(0.2, 0.5),)),
                    retry_policy=RetryPolicy(max_retries=2))
            return make_manager(world, replan_every=4, **kwargs).run(
                12, batch=4, slab_periods=slab_periods)

        unsplit = runner(None)
        self._reports_equal(unsplit, runner(2))
        self._reports_equal(unsplit, runner(1))

    def test_slabbed_drift_rollback_matches_sequential(self, world):
        """A drift replan landing mid-slab-group must roll the tail
        back exactly as the unsplit window does."""
        def runner(batch, slab_periods=None):
            return make_manager(
                world, fault_plan=FaultPlan.iid(0.25),
                retry_policy=RetryPolicy(max_retries=3),
                replan_every=0, replan_divergence=0.03).run(
                14, batch=batch, slab_periods=slab_periods)

        sequential = runner(1)
        slabbed = runner(8, slab_periods=3)
        assert any(r.replanned for r in sequential[1:])
        self._reports_equal(sequential, slabbed)

    def test_slab_periods_validated(self, world):
        with pytest.raises(ValidationError):
            make_manager(world).run(3, slab_periods=0)
