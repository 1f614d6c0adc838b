"""Incremental re-solving with warm-started multipliers.

The paper's operational concern: "for large real-world problems for
which the contents of the mirror or the user interests might change,
we would need to periodically solve the Core Problem" — repeatedly.
Successive problems are *nearly identical*: the profile drifts a few
percent, a handful of rates are re-estimated, an element or two is
added.  The KKT multiplier μ moves correspondingly little.

:class:`IncrementalSolver` exploits that: it remembers the last μ and
starts the exact solver's search there
(:func:`~repro.numerics.waterfill.waterfill`'s ``guess``), so the
bracket closes in a few steps instead of halving down from the
largest ceiling.  A guess never changes what is solved, only where the
search begins, so warm and cold solutions agree to solver tolerance —
asserted by the tests.  The micro-benchmarks quantify the saving at
catalog scale.
"""

from __future__ import annotations

from repro.core.freshness import FixedOrderPolicy, FreshnessModel
from repro.core.solver import ScheduleSolution, solve_weighted_problem
from repro.obs import registry as obs
from repro.workloads.catalog import Catalog

__all__ = ["IncrementalSolver"]


class IncrementalSolver:
    """Warm-started Core-Problem solver for slowly changing inputs.

    Args:
        model: Freshness model (Fixed-Order by default).
    """

    def __init__(self, *, model: FreshnessModel | None = None) -> None:
        self._model = model if model is not None else FixedOrderPolicy()
        self._last_multiplier: float | None = None

    def solve(self, catalog: Catalog,
              bandwidth: float) -> ScheduleSolution:
        """Solve the Core Problem, warm-starting from the last μ.

        Args:
            catalog: Workload description.
            bandwidth: Budget ``B > 0``, in size units per period.

        Returns:
            The optimal :class:`ScheduleSolution` — identical (to
            solver tolerance) to a cold
            :func:`~repro.core.solver.solve_core_problem`.

        Raises:
            InfeasibleProblemError: If the budget is not positive.
        """
        solution = solve_weighted_problem(
            catalog.access_probabilities, catalog.change_rates,
            catalog.sizes, bandwidth, model=self._model,
            guess=self._last_multiplier)
        self._last_multiplier = solution.multiplier
        obs.gauge_set("incremental.last_multiplier", solution.multiplier)
        return solution
