"""Tests for the runtime-contract layer (``repro.contracts``).

Covers: the env gate and its default-off behavior, the check helpers,
the ``postcondition`` decorator (argument binding, ``__wrapped__``),
end-to-end contract enforcement on the real solver stack — including
a deliberately infeasible allocation that must raise — and the
near-zero-overhead promise when contracts are off.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import contracts as C
from repro.contracts import (
    ContractViolationError,
    check_budget_feasible,
    check_kkt_stationarity,
    check_multiplier_in_bracket,
    check_nonnegative,
    check_partition_labels,
    check_simplex,
    check_sync_conservation,
    contracts,
    contracts_enabled,
    disable_contracts,
    enable_contracts,
    iter_contracted,
    postcondition,
)
from repro.core import solver as solver_module
from repro.core.solver import solve_core_problem, solve_weighted_problem
from repro.numerics.waterfill import waterfill
from repro.workloads import Catalog

from tests.conftest import random_catalog


@pytest.fixture(autouse=True)
def _contracts_off_between_tests():
    """Leave the process-global switch the way we found it."""
    previous = contracts_enabled()
    yield
    C._state.enabled = previous


# ---------------------------------------------------------------------------
# the gate


def test_contracts_are_off_by_default() -> None:
    # Tier-1 runs without REPRO_CONTRACTS; the import-time default
    # must be off so production callers never pay for checking.
    import os

    if os.environ.get("REPRO_CONTRACTS", "").strip().lower() in \
            {"1", "true", "yes", "on"}:
        pytest.skip("suite is running with REPRO_CONTRACTS enabled")
    assert not contracts_enabled()


def test_enable_disable_round_trip() -> None:
    enable_contracts()
    assert contracts_enabled()
    disable_contracts()
    assert not contracts_enabled()


def test_context_manager_restores_previous_state() -> None:
    disable_contracts()
    with contracts():
        assert contracts_enabled()
        with contracts(False):
            assert not contracts_enabled()
        assert contracts_enabled()
    assert not contracts_enabled()


def test_refresh_from_env(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setenv("REPRO_CONTRACTS", "yes")
    C.refresh_from_env()
    assert contracts_enabled()
    monkeypatch.setenv("REPRO_CONTRACTS", "0")
    C.refresh_from_env()
    assert not contracts_enabled()


# ---------------------------------------------------------------------------
# check helpers


def test_check_nonnegative() -> None:
    check_nonnegative(np.array([0.0, 1.0, 2.0]))
    with pytest.raises(ContractViolationError, match="min"):
        check_nonnegative(np.array([1.0, -1e-9]))


def test_check_budget_feasible_is_an_upper_bound() -> None:
    costs = np.array([1.0, 2.0])
    check_budget_feasible(costs, np.array([0.5, 0.25]), 1.0)
    # Under-spend is legal (utilities can saturate).
    check_budget_feasible(costs, np.array([0.1, 0.0]), 1.0)
    with pytest.raises(ContractViolationError, match="budget"):
        check_budget_feasible(costs, np.array([1.0, 1.0]), 1.0)


def test_check_simplex() -> None:
    check_simplex(np.array([0.25, 0.25, 0.5]))
    with pytest.raises(ContractViolationError, match="simplex"):
        check_simplex(np.array([0.3, 0.3]))
    with pytest.raises(ContractViolationError):
        check_simplex(np.array([1.5, -0.5]))


def test_check_partition_labels() -> None:
    check_partition_labels(np.array([0, 2, 1, 1]), 3)
    check_partition_labels(np.array([], dtype=int), 3)
    with pytest.raises(ContractViolationError, match="labels"):
        check_partition_labels(np.array([0, 3]), 3)
    with pytest.raises(ContractViolationError, match="labels"):
        check_partition_labels(np.array([[0, 1]]), 3)


def test_check_kkt_stationarity_scales_with_multiplier() -> None:
    check_kkt_stationarity(1e-6, 0.5)
    check_kkt_stationarity(5e-3, 100.0)  # residual small at μ scale
    with pytest.raises(ContractViolationError, match="stationarity"):
        check_kkt_stationarity(1e-2, 0.5)


def test_check_multiplier_in_bracket() -> None:
    check_multiplier_in_bracket(0.5, (0.1, 1.0))
    check_multiplier_in_bracket(0.1, (0.1, 1.0))  # endpoints included
    check_multiplier_in_bracket(1.0 + 1e-12, (0.1, 1.0))  # rtol slack
    with pytest.raises(ContractViolationError, match="bracket"):
        check_multiplier_in_bracket(1.5, (0.1, 1.0))
    with pytest.raises(ContractViolationError, match="bracket"):
        check_multiplier_in_bracket(0.05, (0.1, 1.0))


def test_check_sync_conservation_allows_granularity_slack() -> None:
    # 10 size units/period over 20 periods + 3 units of ceil slack.
    check_sync_conservation(200.0, 10.0, 20.0, 3.0)
    check_sync_conservation(203.0, 10.0, 20.0, 3.0)  # exactly at limit
    with pytest.raises(ContractViolationError, match="conservation"):
        check_sync_conservation(204.0, 10.0, 20.0, 3.0)


def test_simulation_runs_clean_under_conservation_contract(rng) -> None:
    from repro.core.freshener import PerceivedFreshener
    from repro.sim.simulation import Simulation

    catalog = random_catalog(rng, 30)
    plan = PerceivedFreshener().plan(catalog, bandwidth=20.0)
    enable_contracts()
    simulation = Simulation(catalog, plan.frequencies,
                            request_rate=50.0,
                            rng=np.random.default_rng(7))
    result = simulation.run(n_periods=10)
    assert result.bandwidth_used <= 20.0 * 10.0 + catalog.sizes.sum()


def test_streaming_replay_checks_sync_conservation(rng) -> None:
    """A tape that syncs far past the plan fails the conservation
    contract when ``StreamingReplay.finish`` runs the shared epilogue,
    and the violation names the kernel's engine."""
    from repro.sim.events import EventKind
    from repro.sim.fastpath import StreamingReplay

    catalog = random_catalog(rng, 3)
    frequencies = np.array([1.0, 0.0, 0.0])
    # Ten syncs of element 0 in one period: 10 size units against a
    # plan of 1 plus 1 unit of granularity slack.
    times = np.linspace(0.05, 0.95, 10)
    elements = np.zeros(10, dtype=np.int32)
    kinds = np.full(10, int(EventKind.SYNC), dtype=np.int8)

    def replay() -> None:
        streaming = StreamingReplay(catalog, frequencies,
                                    period_length=1.0, n_periods=1.0)
        streaming.feed(times, elements, kinds, n_periods=1.0)
        streaming.finish()

    with contracts(False):
        replay()
    with contracts():
        with pytest.raises(ContractViolationError,
                           match="sim.engine.fastpath.*conservation"):
            replay()


def test_incremental_warm_solve_checks_bracket(rng) -> None:
    from repro.core.incremental import IncrementalSolver

    catalog = random_catalog(rng, 40)
    enable_contracts()
    incremental = IncrementalSolver()
    cold = incremental.solve(catalog, 10.0)
    warm = incremental.solve(catalog, 10.0)  # reuses the μ bracket
    assert incremental.warm_hits == 1
    assert warm.multiplier == pytest.approx(cold.multiplier, rel=1e-6)


# ---------------------------------------------------------------------------
# the decorator


def test_postcondition_binds_arguments_any_spelling() -> None:
    seen: list[dict] = []

    def check(result: float, arguments: dict) -> None:
        seen.append(dict(arguments))
        if result < 0:
            raise ContractViolationError("negative")

    @postcondition(check)
    def scale(value: float, factor: float = 2.0) -> float:
        return value * factor

    with contracts():
        assert scale(3.0) == 6.0
        with pytest.raises(ContractViolationError):
            scale(value=3.0, factor=-1.0)
    # Defaults applied; keyword and positional spellings both bound.
    assert seen[0] == {"value": 3.0, "factor": 2.0}
    assert seen[1] == {"value": 3.0, "factor": -1.0}


def test_postcondition_raises_only_when_enabled() -> None:
    @postcondition(lambda result, arguments: (_ for _ in ()).throw(
        ContractViolationError("always")))
    def f() -> int:
        return 1

    disable_contracts()
    assert f() == 1
    with contracts():
        with pytest.raises(ContractViolationError):
            f()


def test_postcondition_exposes_wrapped_and_contract() -> None:
    assert hasattr(solve_weighted_problem, "__wrapped__")
    assert hasattr(solve_weighted_problem, "__contract__")
    assert solve_weighted_problem.__name__ == "solve_weighted_problem"


def test_iter_contracted_finds_solver_entry_points() -> None:
    names = {name for name, _ in iter_contracted(vars(solver_module))}
    assert {"solve_core_problem", "solve_weighted_problem"} <= names


def test_contract_violation_is_assertion_and_repro_error() -> None:
    from repro.errors import ReproError

    assert issubclass(ContractViolationError, AssertionError)
    assert issubclass(ContractViolationError, ReproError)


# ---------------------------------------------------------------------------
# end-to-end on the real solver stack


def test_real_solves_satisfy_their_contracts(rng) -> None:
    catalog = random_catalog(rng, 200, sized=True)
    with contracts():
        solution = solve_core_problem(catalog, bandwidth=25.0)
    assert solution.frequencies.min() >= 0.0


def test_waterfill_contract_catches_lying_allocator() -> None:
    """A deliberately infeasible allocation must raise when checked.

    The allocator reports a cost curve consistent with the budget but
    returns a negative allocation — exactly the class of silent
    corruption the contract layer exists to catch.
    """

    def lying_allocate_at(mu: float) -> tuple[np.ndarray, float]:
        return np.array([1.0 / mu, -0.5]), 1.0 / mu

    with contracts():
        with pytest.raises(ContractViolationError, match="allocations"):
            waterfill(lying_allocate_at, budget=1.0, mu_max=16.0)

    # Unchecked, the same lie sails through (and would corrupt the
    # caller) - demonstrating the off path does not validate.
    disable_contracts()
    result = waterfill(lying_allocate_at, budget=1.0, mu_max=16.0)
    assert result.allocations.min() < 0.0


def test_infeasible_solution_object_raises_under_check() -> None:
    """Feed the solver's own contract an over-budget solution."""
    check = solve_weighted_problem.__contract__
    weights = np.array([0.5, 0.5])
    rates = np.array([1.0, 2.0])
    costs = np.array([1.0, 1.0])
    good = solve_weighted_problem(weights, rates, costs, 1.0)
    bogus = solver_module.ScheduleSolution(
        frequencies=good.frequencies * 10.0,
        multiplier=good.multiplier,
        bandwidth=good.bandwidth * 10.0,
        objective=good.objective,
        iterations=good.iterations,
    )
    arguments = {"weights": weights, "change_rates": rates,
                 "costs": costs, "bandwidth": 1.0, "model": None}
    with pytest.raises(ContractViolationError, match="budget"):
        check(bogus, arguments)


def test_partition_and_clustering_contracts_pass_end_to_end(rng) -> None:
    from repro.core.clustering import refine_partitions
    from repro.core.partitioning import partition_catalog

    catalog = random_catalog(rng, 120)
    with contracts():
        assignment = partition_catalog(catalog, n_partitions=6,
                                       strategy="p-over-lambda")
        steps = refine_partitions(catalog, 10.0, assignment,
                                  iterations=3)
    assert steps


# ---------------------------------------------------------------------------
# overhead


def test_disabled_contracts_overhead_is_negligible() -> None:
    """Off-path wrapper cost must be irrelevant at solver call grain.

    Strategy (robust to CI noise): measure the per-call cost of the
    wrapper vs the raw function on a no-op-sized solve, then compare
    that against the measured cost of one real 1e5-element solve.  The
    wrapper adds one attribute load + branch per *call*, and tier-1
    makes O(1) solver calls per solve, so the relative regression on a
    real workload is wrapper_cost / solve_cost - orders of magnitude
    below the 2% acceptance bar.
    """
    disable_contracts()

    rng = np.random.default_rng(7)
    n = 100_000
    weights = rng.uniform(0.01, 1.0, size=n)
    catalog = Catalog(access_probabilities=weights / weights.sum(),
                      change_rates=rng.uniform(0.05, 8.0, size=n),
                      sizes=rng.uniform(0.2, 5.0, size=n))

    # One real solve at catalog scale, decorated vs undecorated.
    start = time.perf_counter()
    solve_core_problem(catalog, bandwidth=50_000.0)
    decorated = time.perf_counter() - start

    start = time.perf_counter()
    solve_core_problem.__wrapped__(catalog, bandwidth=50_000.0)
    undecorated = time.perf_counter() - start

    # Per-call wrapper overhead, measured on a trivial function so the
    # difference is the wrapper itself.
    @postcondition(lambda result, arguments: None)
    def identity(x: int) -> int:
        return x

    calls = 20_000
    start = time.perf_counter()
    for _ in range(calls):
        identity.__wrapped__(1)
    raw = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        identity(1)
    wrapped = time.perf_counter() - start
    per_call = max(0.0, (wrapped - raw) / calls)

    solve_time = max(decorated, undecorated)
    # The wrapper's per-call cost must be far below 2% of a real solve.
    assert per_call < 0.02 * solve_time, (
        f"wrapper overhead {per_call:.2e}s vs solve {solve_time:.3f}s")
    # And the decorated solve itself must not regress measurably
    # beyond timing noise (generous 25% guard; the real bound is the
    # per-call assertion above).
    assert decorated <= undecorated * 1.25 + 0.05
