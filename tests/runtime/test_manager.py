"""Tests for repro.runtime.manager — the adaptive loop."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.core.freshener import PartitionedFreshener, PerceivedFreshener
from repro.errors import ValidationError
from repro.runtime.manager import AdaptiveMirrorManager
from repro.workloads.presets import ExperimentSetup, build_catalog

from tests.sim.differential import check_manager

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
    """run(batch=...) must be bit-identical to the sequential loop —
    reports and telemetry alike (the differential harness's manager
    rows)."""

    def test_fault_free_batched_matches_sequential(self, world):
        check_manager(partial(make_manager, world), "none", periods=12,
                      runs=[{}], replan_every=3)

    def test_iid_batched_matches_sequential(self, world):
        check_manager(partial(make_manager, world), "iid_loss0.3",
                      periods=12, runs=[{}], replan_every=4)

    @staticmethod
    def _drift(world, setup, **run):
        """Drift-triggered mid-window replans exercise the rollback
        path: the rewound streams must replay the discarded periods
        exactly as the sequential loop first ran them, and the
        discarded periods must leave no telemetry behind."""
        sequential, (batched,) = check_manager(
            partial(make_manager, world), setup, periods=14, runs=[run],
            replan_every=0, replan_divergence=0.03)
        assert any(report.replanned for report in sequential.results[1:])
        assert batched.counters["manager.window_rollbacks"] > 0

    def test_drift_rollback_matches_sequential(self, world):
        self._drift(world, "iid_loss0.3", batch=8)

    def test_quiet_drift_rollback_matches_sequential(self, world):
        self._drift(world, "none", batch=8)

    def test_ge_batched_matches_sequential(self, world):
        """Gilbert–Elliott plans batch through the kernel, chain
        threading included."""
        check_manager(partial(make_manager, world), "ge_walk",
                      periods=12, runs=[{}], replan_every=4)

    def test_ge_drift_rollback_matches_sequential(self, world):
        """A rollback on a GE plan restores the fault stream *and*
        the chain-state snapshot before re-running the tail."""
        self._drift(world, "ge_walk", batch=8)

    def test_gated_retries_fall_back_to_sequential(self, world):
        """A shared admission gate keeps the loop per-period (its
        token bucket is cross-attempt stateful), so batch collapses
        to the sequential path."""
        check_manager(partial(make_manager, world), "gated_iid",
                      periods=6, runs=[dict(batch=4)], replan_every=4)

    def test_batch_validated(self, world):
        with pytest.raises(ValidationError):
            make_manager(world).run(3, batch=0)


class TestSlabGroups:
    """Window batching split into slab groups stays bit-identical."""

    @pytest.mark.parametrize("kind", ["quiet", "iid", "ge"])
    def test_slabbed_window_matches_unsplit(self, world, kind):
        """Splitting a window's kernel calls into 2- or 1-period slab
        groups changes no report and no telemetry: tapes are drawn in
        period order either way."""
        setup = {"quiet": "none", "iid": "iid_loss0.3", "ge": "ge_walk"}
        check_manager(partial(make_manager, world), setup[kind],
                      periods=12, replan_every=4,
                      runs=[dict(batch=4, slab_periods=slab)
                            for slab in (None, 2, 1)])

    def test_slabbed_drift_rollback_matches_sequential(self, world):
        """A drift replan landing mid-slab-group rolls the tail back
        exactly as the unsplit window does."""
        TestBatchedWindows._drift(world, "iid_loss0.3", batch=8,
                                  slab_periods=3)

    def test_slab_periods_validated(self, world):
        with pytest.raises(ValidationError):
            make_manager(world).run(3, slab_periods=0)
