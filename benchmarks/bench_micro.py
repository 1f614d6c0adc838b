"""Micro-benchmarks: the scalability story in isolation.

The paper's motivation is that generic NLP does not scale; these
benches measure the building blocks directly — the structured exact
solver across problem sizes, the generic NLP path, the marginal
inversion kernel, one k-means refinement step, and simulator event
throughput.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.freshener import PartitionedFreshener, PerceivedFreshener
from repro.core.freshness import invert_marginal_gain
from repro.core.nlp_solver import solve_core_problem_nlp
from repro.core.solver import solve_core_problem
from repro.numerics.kmeans import kmeans
from repro.sim.simulation import Simulation
from repro.workloads.presets import ExperimentSetup, build_catalog


def scaled_setup(n: int) -> ExperimentSetup:
    return ExperimentSetup(n_objects=n, updates_per_period=2.0 * n,
                           syncs_per_period=0.5 * n, theta=1.0,
                           update_std_dev=2.0)


@pytest.mark.parametrize("n", [1_000, 10_000, 100_000])
def test_exact_solver_scaling(benchmark, n):
    catalog = build_catalog(scaled_setup(n), seed=0)
    result = benchmark(solve_core_problem, catalog, 0.5 * n)
    assert result.bandwidth == pytest.approx(0.5 * n, rel=1e-6)


@pytest.mark.parametrize("n", [100, 500])
def test_generic_nlp_solver_scaling(benchmark, n):
    """The IMSL-substitute path: already slow at hundreds of items."""
    catalog = build_catalog(scaled_setup(n), seed=0)
    result = benchmark.pedantic(
        lambda: solve_core_problem_nlp(catalog, 0.5 * n),
        rounds=2, iterations=1)
    assert result.bandwidth == pytest.approx(0.5 * n, rel=1e-5)


def test_heuristic_pipeline_100k(benchmark):
    catalog = build_catalog(scaled_setup(100_000), seed=0)
    planner = PartitionedFreshener(100)
    plan = benchmark(planner.plan, catalog, 50_000.0)
    assert plan.perceived_freshness > 0.5


def test_marginal_inversion_kernel(benchmark):
    targets = np.linspace(1e-6, 1.0 - 1e-6, 500_000)
    ratios = benchmark(invert_marginal_gain, targets)
    assert ratios.shape == targets.shape


def test_kmeans_refinement_step_100k(benchmark):
    rng = np.random.default_rng(0)
    points = rng.uniform(size=(100_000, 2))
    labels = rng.integers(0, 100, size=100_000)
    result = benchmark(kmeans, points, labels, 100, iterations=1)
    assert result.iterations == 1


def test_simulation_throughput(benchmark):
    setup = scaled_setup(200)
    catalog = build_catalog(setup, seed=0)
    plan = PerceivedFreshener().plan(catalog, setup.syncs_per_period)

    def run():
        sim = Simulation(catalog, plan.frequencies, request_rate=500.0,
                         rng=np.random.default_rng(1))
        return sim.run(n_periods=5)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.n_accesses > 0


def test_incremental_warm_resolve(benchmark):
    """Warm-started re-solve after a small drift vs a cold solve.

    Timed with telemetry on (one extra KKT-residual pass per solve),
    so the warm-start counter can confirm every timed resolve started
    from the previous multiplier.
    """
    from repro.core.incremental import IncrementalSolver
    from repro.obs import registry as obs

    catalog = build_catalog(scaled_setup(100_000), seed=0)
    solver = IncrementalSolver()
    solver.solve(catalog, 50_000.0)  # prime the multiplier
    rng = np.random.default_rng(1)
    resolves = []

    def resolve():
        noise = rng.lognormal(0.0, 0.01, size=catalog.n_elements)
        drifted = catalog.with_change_rates(catalog.change_rates * noise)
        resolves.append(None)
        return solver.solve(drifted, 50_000.0)

    with obs.telemetry() as registry:
        result = benchmark.pedantic(resolve, rounds=5, iterations=1)
    assert result.bandwidth == pytest.approx(50_000.0, rel=1e-6)
    # `--benchmark-disable` runs the body once instead of five rounds.
    assert resolves
    assert registry.counters["waterfill.warm_starts"] == len(resolves)


def test_sync_link_replay_throughput(benchmark):
    """Replaying 100k sync events through the FIFO link model."""
    from repro.sim.queueing import SyncLink

    setup = scaled_setup(2_000)
    catalog = build_catalog(setup, seed=0, size_shape=2.0)
    plan = PerceivedFreshener().plan(catalog, setup.syncs_per_period)
    schedule = plan.schedule()
    times, elements = schedule.events_until(100.0)
    load = SyncLink(1.0).required_capacity(plan.frequencies,
                                           catalog.sizes)
    link = SyncLink(capacity=1.2 * load)
    result = benchmark(link.replay, times, elements, catalog.sizes,
                       horizon=100.0)
    assert result.utilization < 1.0
