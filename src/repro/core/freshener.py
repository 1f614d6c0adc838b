"""High-level freshening API: plan a refresh schedule for a catalog.

This is the facade most users need:

* :class:`PerceivedFreshener` — the paper's PF technique: optimal
  profile-aware scheduling.
* :class:`GeneralFreshener` — the Cho/Garcia-Molina GF baseline:
  optimal profile-*blind* scheduling (maximizes average freshness).
* :class:`PartitionedFreshener` — the scalable heuristic: sort-based
  partitioning, optional k-means refinement, transformed-problem
  solve, and FFA/FBA expansion.

Each produces a :class:`FresheningPlan` carrying the per-element sync
frequencies together with the analytic scores and a helper to turn
the plan into a concrete timed :class:`~repro.core.scheduler.
SyncSchedule`.

Example:
    >>> from repro import PerceivedFreshener, build_catalog, IDEAL_SETUP
    >>> catalog = build_catalog(IDEAL_SETUP, seed=7)
    >>> plan = PerceivedFreshener().plan(catalog, bandwidth=250.0)
    >>> plan.perceived_freshness > 0.5
    True
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.core.allocation import AllocationPolicy, expand_partition_frequencies
from repro.core.clustering import refine_partitions
from repro.core.freshness import FixedOrderPolicy, FreshnessModel
from repro.core.metrics import element_freshness
from repro.core.nlp_solver import solve_weighted_problem_nlp
from repro.core.partitioning import PartitioningStrategy, partition_catalog
from repro.core.representatives import (
    build_representatives,
    solve_transformed_problem,
)
from repro.core.scheduler import PhasePolicy, SyncSchedule
from repro.core.solver import solve_core_problem, solve_weighted_problem
from repro.errors import ValidationError
from repro.workloads.catalog import Catalog

__all__ = ["FresheningPlan", "Freshener", "PerceivedFreshener",
           "GeneralFreshener", "PartitionedFreshener"]


@dataclass(frozen=True)
class FresheningPlan:
    """A complete refresh plan for a catalog.

    Attributes:
        catalog: The workload the plan was computed for.
        frequencies: Sync frequency per element (per period).
        perceived_freshness: Analytic PF the plan achieves under the
            catalog's master profile.
        general_freshness: Analytic average freshness of the plan.
        bandwidth: Bandwidth the plan consumes, ``Σ sᵢ·fᵢ``.
        metadata: Technique-specific details (partition count,
            refinement iterations, solver used, ...).
    """

    catalog: Catalog
    frequencies: np.ndarray
    perceived_freshness: float
    general_freshness: float
    bandwidth: float
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def schedule(self, *, period_length: float = 1.0,
                 phase_policy: PhasePolicy | str = PhasePolicy.STAGGERED,
                 rng: np.random.Generator | None = None) -> SyncSchedule:
        """Materialize the plan as a timed Fixed-Order schedule.

        Args:
            period_length: Clock length of one sync period.
            phase_policy: First-sync offset policy.
            rng: Generator for random phases.

        Returns:
            A :class:`SyncSchedule` ready for the simulator.
        """
        return SyncSchedule.from_frequencies(self.frequencies,
                                             period_length=period_length,
                                             phase_policy=phase_policy,
                                             rng=rng)


class Freshener(ABC):
    """Strategy interface: turn (catalog, bandwidth) into a plan."""

    def __init__(self, *, model: FreshnessModel | None = None) -> None:
        self._model = model if model is not None else FixedOrderPolicy()

    @property
    def model(self) -> FreshnessModel:
        """The freshness model this freshener plans against."""
        return self._model

    @abstractmethod
    def plan(self, catalog: Catalog, bandwidth: float) -> FresheningPlan:
        """Compute a refresh plan within the bandwidth budget.

        ``bandwidth`` is in size units per period; the plan's
        frequencies are in syncs per period.
        """

    def _finish(self, catalog: Catalog, frequencies: np.ndarray,
                metadata: Mapping[str, Any]) -> FresheningPlan:
        # One F̄ evaluation scores both objectives, exactly as
        # perceived_freshness and general_freshness would.
        freshness = element_freshness(catalog, frequencies,
                                      model=self._model)
        return FresheningPlan(
            catalog=catalog,
            frequencies=frequencies,
            perceived_freshness=float(
                catalog.access_probabilities @ freshness),
            general_freshness=float(freshness.mean()),
            bandwidth=float(catalog.sizes @ frequencies),
            metadata=dict(metadata),
        )


class PerceivedFreshener(Freshener):
    """Optimal Perceived Freshening (the paper's PF technique).

    Solves the Core Problem exactly for the catalog's master profile.
    """

    def plan(self, catalog: Catalog, bandwidth: float, *,
             guess: float | None = None) -> FresheningPlan:
        """Compute the optimal PF plan.

        Args:
            catalog: Workload description.
            bandwidth: Budget in size units per period.
            guess: Optional multiplier to start the solver's search
                from, such as a neighbouring plan's
                ``metadata["multiplier"]``; None solves cold.
        """
        solution = solve_core_problem(catalog, bandwidth,
                                      model=self._model, guess=guess)
        return self._finish(catalog, solution.frequencies,
                            {"technique": "PF", "solver": "water-filling",
                             "multiplier": solution.multiplier})


class GeneralFreshener(Freshener):
    """Optimal General Freshening (the profile-blind GF baseline).

    Maximizes the *average* freshness — equivalent to Perceived
    Freshening under a uniform profile — then is typically scored
    under the real profile to expose what ignoring user interest
    costs.
    """

    def plan(self, catalog: Catalog, bandwidth: float, *,
             guess: float | None = None) -> FresheningPlan:
        """Compute the optimal GF plan.

        Args:
            catalog: Workload description.
            bandwidth: Budget in size units per period.
            guess: Optional multiplier to start the search from (see
                :meth:`PerceivedFreshener.plan`).
        """
        n = catalog.n_elements
        uniform = np.full(n, 1.0 / n)
        solution = solve_weighted_problem(uniform, catalog.change_rates,
                                          catalog.sizes, bandwidth,
                                          model=self._model,
                                          guess=guess)
        return self._finish(catalog, solution.frequencies,
                            {"technique": "GF", "solver": "water-filling",
                             "multiplier": solution.multiplier})


class PartitionedFreshener(Freshener):
    """The scalable heuristic: partition, (optionally) refine, solve.

    Args:
        n_partitions: Number of partitions k.
        strategy: Sort criterion (PF-partitioning by default — the
            paper's winner).
        cluster_iterations: k-means refinement iterations (0 skips
            refinement).
        allocation: FFA or FBA intra-partition expansion (FBA by
            default; identical to FFA for uniform sizes).
        solver: ``"exact"`` (water-filling) or ``"nlp"`` (the generic
            projected-gradient path, for faithful timing studies).
        model: Freshness model.
    """

    def __init__(self, n_partitions: int, *,
                 strategy: PartitioningStrategy | str =
                 PartitioningStrategy.PF,
                 cluster_iterations: int = 0,
                 allocation: AllocationPolicy | str =
                 AllocationPolicy.FIXED_BANDWIDTH,
                 solver: str = "exact",
                 model: FreshnessModel | None = None) -> None:
        super().__init__(model=model)
        if n_partitions < 1:
            raise ValidationError(
                f"n_partitions must be >= 1, got {n_partitions}")
        if cluster_iterations < 0:
            raise ValidationError(
                f"cluster_iterations must be >= 0, got {cluster_iterations}")
        if solver not in ("exact", "nlp"):
            raise ValidationError(
                f"solver must be 'exact' or 'nlp', got {solver!r}")
        self._n_partitions = n_partitions
        self._strategy = PartitioningStrategy.coerce(strategy)
        self._cluster_iterations = cluster_iterations
        self._allocation = AllocationPolicy.coerce(allocation)
        self._solver = solver

    def plan(self, catalog: Catalog, bandwidth: float) -> FresheningPlan:
        assignment = partition_catalog(catalog, self._n_partitions,
                                       self._strategy, model=self._model)
        iterations_run = 0
        if self._cluster_iterations > 0:
            steps = refine_partitions(catalog, bandwidth, assignment,
                                      iterations=self._cluster_iterations,
                                      model=self._model,
                                      allocation=self._allocation)
            final = steps[-1]
            assignment = final.assignment
            iterations_run = final.iterations
        problem = build_representatives(catalog, assignment)
        if self._solver == "exact":
            solution = solve_transformed_problem(problem, bandwidth,
                                                 model=self._model)
        else:
            solution = solve_weighted_problem_nlp(
                problem.weights, problem.mean_change_rates,
                np.maximum(problem.costs, 1e-300), bandwidth,
                model=self._model)
        frequencies = expand_partition_frequencies(
            catalog, problem, solution.frequencies, self._allocation)
        return self._finish(catalog, frequencies, {
            "technique": "heuristic",
            "strategy": self._strategy.value,
            "n_partitions": assignment.n_partitions,
            "cluster_iterations": iterations_run,
            "allocation": self._allocation.value,
            "solver": self._solver,
        })
