"""Golden regression values for the headline experiments.

Shape assertions live in the benchmarks; these tests additionally pin
*exact* values at the default seed, so any unintended numerical
change — a solver tweak, a generator reorder, a tolerance slip —
trips immediately.  If a change is intentional, regenerate the values
and say so in the commit.

The digests were recorded under numpy's AVX-512 dispatch (x86-64-v4).
numpy's float64 ``exp``, ``log``, ``expm1``, ``log1p`` and ``power``
return different last bits under AVX2 or the baseline, so the plans,
and with them ``TestGoldenPartitionedPlan`` and some
``TestGoldenOneShotOutputs`` digests, differ on CPUs without AVX-512
(or under ``NPY_DISABLE_CPU_FEATURES="AVX512_ICL AVX512_SPR
X86_V4"``), although the catalog is the same.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.freshener import GeneralFreshener, PerceivedFreshener
from repro.core.solver import solve_core_problem
from repro.workloads.presets import (
    IDEAL_SETUP,
    TOY_BANDWIDTH,
    build_catalog,
    toy_example_catalog,
)


class TestGoldenTable1:
    def test_exact_frequencies(self):
        expected = {
            "P1": [1.149892, 1.358412, 1.353835, 1.137860, 0.0],
            "P2": [0.333333, 0.666667, 1.000000, 1.333333, 1.666667],
            "P3": [1.685736, 1.826306, 1.487958, 0.0, 0.0],
        }
        for profile, values in expected.items():
            solution = solve_core_problem(toy_example_catalog(profile),
                                          TOY_BANDWIDTH)
            # The solver's bisection tolerance leaves ~1e-3 wiggle in
            # the near-degenerate P1/P3 frequencies; objectives are
            # pinned far tighter below.
            assert solution.frequencies == pytest.approx(values,
                                                         abs=5e-3)

    def test_exact_objectives(self):
        expected = {"P1": 0.373889, "P2": 0.316738, "P3": 0.499469}
        for profile, value in expected.items():
            solution = solve_core_problem(toy_example_catalog(profile),
                                          TOY_BANDWIDTH)
            assert solution.objective == pytest.approx(value, abs=5e-5)


class TestGoldenIdealSetup:
    """Table-2 workload at seed 0, shuffled, θ = 1."""

    @pytest.fixture(scope="class")
    def catalog(self):
        return build_catalog(IDEAL_SETUP, alignment="shuffled", seed=0)

    def test_workload_statistics(self, catalog):
        assert catalog.change_rates.sum() == pytest.approx(
            962.118, abs=0.01)
        assert catalog.access_probabilities[0] == pytest.approx(
            0.147214, abs=1e-5)

    def test_pf_optimum(self, catalog):
        plan = PerceivedFreshener().plan(catalog,
                                         IDEAL_SETUP.syncs_per_period)
        assert plan.perceived_freshness == pytest.approx(0.622519,
                                                         abs=1e-4)

    def test_gf_baseline(self, catalog):
        plan = GeneralFreshener().plan(catalog,
                                       IDEAL_SETUP.syncs_per_period)
        assert plan.perceived_freshness == pytest.approx(0.272822,
                                                         abs=1e-3)
        assert plan.general_freshness == pytest.approx(0.316002,
                                                       abs=1e-3)

    def test_heuristic_at_fifty_partitions(self, catalog):
        from repro.core.freshener import PartitionedFreshener
        plan = PartitionedFreshener(50).plan(
            catalog, IDEAL_SETUP.syncs_per_period)
        assert plan.perceived_freshness == pytest.approx(0.601359,
                                                         abs=1e-3)


def _sha256(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _pinned_simulation(n_elements: int, world: str,
                       fault_rng: np.random.Generator):
    """One seeded world: i.i.d. loss under the planned-spend ledger,
    or Gilbert–Elliott bursts with no retries and an ample budget."""
    from repro.core.freshener import PartitionedFreshener
    from repro.faults.model import FaultPlan
    from repro.faults.retry import RetryPolicy
    from repro.sim.simulation import Simulation
    from repro.workloads.presets import ExperimentSetup

    spec = ExperimentSetup(
        n_objects=n_elements, updates_per_period=1.0 * n_elements,
        syncs_per_period=0.3 * n_elements, theta=1.0,
        update_std_dev=2.0)
    catalog = build_catalog(spec, seed=0)
    frequencies = PartitionedFreshener(n_partitions=64).plan(
        catalog, spec.syncs_per_period).frequencies
    if world == "iid":
        # No explicit budget: the ledger spends the planned Σ sizeᵢ·fᵢ
        # per period, so retries run it dry and it denies.
        faults = dict(fault_plan=FaultPlan.iid(0.2),
                      retry_policy=RetryPolicy(max_retries=3))
    else:
        faults = dict(fault_plan=FaultPlan.bursty(0.05, 0.4),
                      bandwidth_budget=1e9)
    return Simulation(catalog, frequencies,
                      request_rate=0.5 * n_elements,
                      rng=np.random.default_rng(7),
                      fault_rng=fault_rng, **faults)


class TestGoldenPartitionedPlan:
    """SHA-256 pin of the benchmark planner's output at 10⁵ elements.

    The catalog has the benchmark's shape (one update and 0.3 syncs
    per element per period, θ = 1).  The digest covers the PF
    partition labels, the plan's frequencies and its PF and GF, so a
    change to the tie order, the water-filling or the scoring trips
    it.
    """

    DIGEST = "4ddd849681f01443d613bb23ee7e93735d1f3f9d4d8a7abbbcb23f06de5506d0"

    def test_plan_digest(self):
        from repro.core.freshener import PartitionedFreshener
        from repro.core.partitioning import partition_catalog
        from repro.workloads.presets import ExperimentSetup

        n = 100_000
        spec = ExperimentSetup(
            n_objects=n, updates_per_period=1.0 * n,
            syncs_per_period=0.3 * n, theta=1.0, update_std_dev=2.0)
        catalog = build_catalog(spec, seed=0)
        labels = partition_catalog(catalog, 64, "pf").labels
        plan = PartitionedFreshener(n_partitions=64).plan(
            catalog, spec.syncs_per_period)
        scores = np.array([plan.perceived_freshness,
                           plan.general_freshness])
        assert _sha256(labels.astype(np.int64), plan.frequencies,
                       scores) == self.DIGEST


class TestGoldenOneShotOutputs:
    """SHA-256 pins of whole tapes and whole faulted runs.

    The engine equivalence suites replay one ``build_tape`` through
    two engines, so a change both engines share — a different tape,
    ledger or kernel fold — passes all of them.  These pins compare
    against recorded bytes instead: the one-shot tape, and the run's
    per-element freshness bits, attempted, failed and retried polls
    and the fault generator's state afterwards.
    """

    CASES = {
        # (elements, world, periods, chunk_periods):
        #     (tape digest, run digest)
        (5_000, "iid", 2.0, None): (
            "063fbf3d954372b7754f20a5a5dfa495bc85810967b44579619cf6ae22ab6ec9",
            "c9d024dc13bdd072e356b5ed483b38a2a80bf7e0773c11cbd2aec4aeba2ecad3"
        ),
        (100_000, "iid", 1.0, None): (
            "08668af2a6b2eebde12c140e3d779ee6528e4ece3c0811fd1bf16106dd88a878",
            "67650ab029d065eee06076fec9b9db121520e91e695d863c542baa339e170121"
        ),
        (5_000, "ge", 3.0, 1): (
            "977d4b7ce49300253c7bac8976e191081daa14a7d1b8ff5fe47f8d5bcb917008",
            "3e42ccee00dcf68dd91a0fa55ddf4623f0bdd2a63f412657c5c98eb1e996c815"
        ),
    }

    @pytest.mark.parametrize("case", list(CASES), ids=lambda case: (
        f"{case[1]}-{case[0]}-k{case[3]}"))
    def test_tape_and_run_digests(self, case):
        n_elements, world, periods, chunk = case
        tape_digest, run_digest = self.CASES[case]
        tape = _pinned_simulation(
            n_elements, world, np.random.default_rng(11)
        ).build_tape(periods)
        fault_rng = np.random.default_rng(11)
        result = _pinned_simulation(n_elements, world, fault_rng).run(
            periods, engine="auto", chunk_periods=chunk)
        counts = np.array([result.attempted_polls, result.failed_polls,
                           result.retries], dtype=np.int64)
        rng_after = fault_rng.random(4)
        assert (_sha256(*tape), _sha256(
            result.element_time_freshness, counts, rng_after)) == (
            tape_digest, run_digest)
