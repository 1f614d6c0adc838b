"""End-to-end checks that the stack reports through the telemetry layer."""

from __future__ import annotations

import pytest

from repro import (
    AdaptiveMirrorManager,
    PartitionedFreshener,
    PerceivedFreshener,
    Simulation,
)
from repro.contracts import (
    check_sync_conservation,
    enable_contracts,
    refresh_from_env,
)
from repro.core import IncrementalSolver, solve_core_problem
from repro.errors import ContractViolationError
from repro.obs import registry as obs

from tests.conftest import random_catalog


@pytest.fixture
def catalog(rng):
    return random_catalog(rng, 40)


def test_solver_records_counters_span_and_event(catalog):
    with obs.telemetry() as registry:
        solution = solve_core_problem(catalog, 20.0)
    assert registry.counters["solver.calls"] == 1.0
    assert registry.counters["waterfill.calls"] >= 1.0
    assert registry.counters["solver.iterations"] >= 1.0
    assert registry.gauges["solver.multiplier"] == pytest.approx(
        solution.multiplier)
    assert registry.span_totals["solver.solve_weighted"][0] == 1
    (event,) = registry.events_of_kind("solver.solve")
    assert event["n_elements"] == catalog.n_elements
    assert registry.histograms["waterfill.iterations"].counts


def test_incremental_solver_distinguishes_cold_and_warm(catalog):
    with obs.telemetry() as registry:
        solver = IncrementalSolver()
        solver.solve(catalog, 20.0)
        solver.solve(catalog, 20.5)
    assert registry.counters["waterfill.calls"] == 2.0
    assert registry.counters["waterfill.warm_starts"] == 1.0
    assert registry.gauges["incremental.last_multiplier"] > 0.0


def test_partitioned_plan_records_kmeans_iterations(catalog):
    with obs.telemetry() as registry:
        PartitionedFreshener(4, cluster_iterations=2).plan(catalog, 20.0)
    assert registry.counters["kmeans.iterations"] >= 1.0
    assert "kmeans.inertia" in registry.gauges


def test_kmeans_entry_point_records_run_and_span(rng):
    from repro.numerics.kmeans import kmeans

    points = rng.normal(size=(50, 2))
    labels = rng.integers(0, 3, size=50)
    with obs.telemetry() as registry:
        kmeans(points, labels, 3, iterations=4)
    assert registry.counters["kmeans.runs"] == 1.0
    assert "kmeans.run" in registry.span_totals


def test_simulation_emits_per_period_series_and_totals(catalog, rng):
    plan = PerceivedFreshener().plan(catalog, 20.0)
    with obs.telemetry() as registry:
        result = Simulation(catalog, plan.frequencies,
                            request_rate=200.0, rng=rng).run(n_periods=5)
    periods = registry.events_of_kind("sim.period")
    assert [event["period"] for event in periods] == [0, 1, 2, 3, 4]
    assert sum(event["syncs"] for event in periods) == result.n_syncs
    assert registry.counters["sim.runs"] == 1.0
    assert registry.counters["sim.syncs"] == result.n_syncs
    assert registry.gauges["sim.monitored_perceived_freshness"] == (
        pytest.approx(result.monitored_perceived_freshness))
    assert registry.span_totals["sim.run"][0] == 1
    (close,) = registry.events_of_kind("monitor.close")
    assert close["accesses"] == registry.counters["sim.accesses"]


def test_manager_periods_show_up_with_nested_spans(catalog, rng):
    with obs.telemetry() as registry:
        manager = AdaptiveMirrorManager(catalog, 20.0, request_rate=200.0,
                                        rng=rng)
        manager.run(2)
    assert registry.counters["manager.periods"] == 2.0
    assert registry.counters["manager.replans"] >= 1.0
    assert len(registry.events_of_kind("manager.period")) == 2
    nested = [path for path in registry.span_totals
              if path.startswith("manager.plan/")]
    assert "manager.plan/solver.solve_weighted" in nested


def test_contract_violations_land_on_the_event_tape():
    enable_contracts()
    try:
        with obs.telemetry() as registry:
            with pytest.raises(ContractViolationError):
                check_sync_conservation(500.0, 10.0, 20.0, 3.0,
                                        where="test")
        (event,) = registry.events_of_kind("contract_violation")
        assert event["where"] == "test"
        assert registry.counters["contracts.violations"] == 1.0
    finally:
        refresh_from_env()


def test_nothing_is_recorded_while_disabled(catalog, rng):
    obs.disable_telemetry()
    registry = obs.reset_telemetry()
    plan = PerceivedFreshener().plan(catalog, 20.0)
    Simulation(catalog, plan.frequencies, request_rate=100.0,
               rng=rng).run(n_periods=2)
    assert not registry.counters
    assert not registry.events
    assert not registry.span_totals
