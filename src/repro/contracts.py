"""Runtime contracts: env-gated solver postcondition checks.

The static side of the correctness tooling (``tools/freshlint``)
enforces *source* discipline; this module enforces the *mathematical*
invariants the solver stack promises at runtime:

* allocations are nonnegative (``f ≥ 0``),
* the budget is feasible (``Σ cᵢ·fᵢ ≤ B`` within rtol),
* KKT stationarity holds at the reported multiplier (Equation 6's
  "same marginal locus" invariant),
* access profiles live on the probability simplex,
* partition labels form a valid assignment.

Contracts are **off by default** and enabled by setting the
environment variable ``REPRO_CONTRACTS`` to ``1``/``true``/``yes``/
``on`` before the process starts (or programmatically via
:func:`enable_contracts` / the :func:`contracts` context manager).
When disabled, a contracted function pays one attribute load and one
branch per call — unmeasurable next to any real solve — so the
decorators stay applied permanently in CI, soak tests, and any
deployment that wants belt-and-braces checking.

Example::

    REPRO_CONTRACTS=1 python -m pytest        # checked test run

    from repro.contracts import contracts
    with contracts():
        solution = solve_core_problem(catalog, bandwidth=2.0)

A failed contract raises :class:`repro.errors.ContractViolationError`
naming the function, the invariant, and the observed magnitude.
"""

from __future__ import annotations

import functools
import inspect
import os
from typing import Any, Callable, Iterator, Mapping, TypeVar

import numpy as np

from repro.errors import ContractViolationError
from repro.obs import registry as _obs

__all__ = [
    "BUDGET_RTOL",
    "KKT_RTOL",
    "NONNEG_ATOL",
    "SIMPLEX_ATOL",
    "check_attempt_accounting",
    "check_attempt_budget",
    "check_budget_feasible",
    "check_kkt_stationarity",
    "check_multiplier_in_bracket",
    "check_nonnegative",
    "check_partition_labels",
    "check_simplex",
    "check_sync_conservation",
    "contracts",
    "contracts_enabled",
    "disable_contracts",
    "enable_contracts",
    "postcondition",
]

_TRUTHY = {"1", "true", "yes", "on"}

#: Relative slack allowed on ``Σ cᵢ·fᵢ ≤ B``.
BUDGET_RTOL = 1e-8
#: Relative (to the multiplier scale) slack on the KKT residual.
KKT_RTOL = 1e-4
#: Absolute slack below zero tolerated in "nonnegative" vectors.
NONNEG_ATOL = 0.0
#: Absolute slack on ``Σ p = 1`` (matches Catalog validation).
SIMPLEX_ATOL = 1e-8

F = TypeVar("F", bound=Callable[..., Any])


class _State:
    """Single shared switch; attribute lookup is the entire off-cost."""

    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = os.environ.get(
            "REPRO_CONTRACTS", "").strip().lower() in _TRUTHY


_state = _State()


def contracts_enabled() -> bool:
    """Whether contract checks currently run."""
    return _state.enabled


def enable_contracts() -> None:
    """Turn contract checking on for this process."""
    _state.enabled = True


def disable_contracts() -> None:
    """Turn contract checking off for this process."""
    _state.enabled = False


def refresh_from_env() -> None:
    """Re-read ``REPRO_CONTRACTS`` (useful after monkeypatched env)."""
    _state.enabled = os.environ.get(
        "REPRO_CONTRACTS", "").strip().lower() in _TRUTHY


class contracts:
    """Context manager enabling (or disabling) contracts temporarily.

    ``with contracts():`` enables checking inside the block and
    restores the previous state on exit; ``with contracts(False):``
    disables it, e.g. around a hot loop inside an otherwise checked
    process.
    """

    def __init__(self, enabled: bool = True) -> None:
        self._target = enabled
        self._previous = False

    def __enter__(self) -> "contracts":
        self._previous = _state.enabled
        _state.enabled = self._target
        return self

    def __exit__(self, *exc_info: object) -> None:
        _state.enabled = self._previous


def _fail(func_name: str, invariant: str, detail: str) -> None:
    # Violations are telemetry events too, so a checked soak run's
    # JSONL tape shows contract failures next to the metrics that led
    # up to them (no-op unless REPRO_TELEMETRY is on).
    _obs.event("contract_violation", where=func_name,
               invariant=invariant, detail=detail)
    _obs.counter_add("contracts.violations")
    raise ContractViolationError(
        f"contract violated in {func_name}: {invariant} - {detail}")


# ---------------------------------------------------------------------------
# Invariant checks (usable directly, not only through decorators).
# ---------------------------------------------------------------------------

def check_nonnegative(values: np.ndarray, *, name: str = "values",
                      atol: float = NONNEG_ATOL,
                      where: str = "<direct>") -> None:
    """Assert every entry is ``≥ -atol``."""
    values = np.asarray(values)
    low = float(values.min(initial=0.0))
    if low < -atol:
        _fail(where, f"{name} >= 0",
              f"min({name}) = {low!r} (atol={atol!r})")


def check_budget_feasible(costs: np.ndarray, frequencies: np.ndarray,
                          bandwidth: float, *,
                          rtol: float = BUDGET_RTOL,
                          where: str = "<direct>") -> None:
    """Assert ``Σ cᵢ·fᵢ ≤ B·(1 + rtol)``.

    Units: ``frequencies`` in syncs per period, ``costs`` in size
    units per sync, ``bandwidth`` in size units per period.

    The Core Problem's constraint is an *upper* bound on consumed
    bandwidth: under-spend is legal (utilities can saturate, see
    :func:`repro.numerics.waterfill.waterfill`), over-spend never is.
    """
    spent = float(np.asarray(costs) @ np.asarray(frequencies))
    if spent > bandwidth * (1.0 + rtol):
        _fail(where, "budget feasibility Σc·f <= B",
              f"spent {spent!r} of budget {bandwidth!r} "
              f"(excess ratio {spent / bandwidth - 1.0:.3e}, "
              f"rtol={rtol!r})")


def check_simplex(probabilities: np.ndarray, *,
                  name: str = "access_probabilities",
                  atol: float = SIMPLEX_ATOL,
                  where: str = "<direct>") -> None:
    """Assert a vector is a probability distribution (``≥0``, ``Σ=1``)."""
    p = np.asarray(probabilities, dtype=float)
    check_nonnegative(p, name=name, atol=atol, where=where)
    total = float(p.sum())
    if abs(total - 1.0) > atol:
        _fail(where, f"{name} on the simplex",
              f"sum = {total!r} (atol={atol!r})")


def check_partition_labels(labels: np.ndarray, n_partitions: int, *,
                           where: str = "<direct>") -> None:
    """Assert labels form a valid assignment into ``[0, k)``."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        _fail(where, "labels are 1-D", f"got shape {labels.shape}")
    if labels.size == 0:
        return
    low, high = int(labels.min()), int(labels.max())
    if low < 0 or high >= n_partitions:
        _fail(where, f"labels in [0, {n_partitions})",
              f"observed range [{low}, {high}]")


def check_multiplier_in_bracket(multiplier: float,
                                bracket: tuple[float, float], *,
                                rtol: float = 1e-9,
                                where: str = "<direct>") -> None:
    """Assert a multiplier search's μ landed inside its bracket.

    :func:`repro.numerics.waterfill.waterfill` finds a bracket
    ``(μ_lo, μ_hi)`` with ``cost(μ_lo) ≥ B ≥ cost(μ_hi)`` before it
    closes it; the cost curve is nonincreasing in μ, so the resolved
    multiplier must land inside (a μ outside means the search — or
    the allocator's monotonicity — broke).  Quantities are
    dimensionless multipliers.
    """
    mu_lo, mu_hi = bracket
    slack = rtol * max(abs(mu_hi), 1.0)
    if not (mu_lo - slack) <= multiplier <= (mu_hi + slack):
        _fail(where, "multiplier inside its search bracket",
              f"multiplier {multiplier!r} outside "
              f"[{mu_lo!r}, {mu_hi!r}] (rtol={rtol!r})")


def check_sync_conservation(consumed: float, planned_per_period: float,
                            n_periods: float, slack: float, *,
                            rtol: float = BUDGET_RTOL,
                            where: str = "<direct>") -> None:
    """Assert the simulator conserved its sync budget.

    Cumulative sync bandwidth consumed over the horizon must not
    exceed the schedule's planned spend, ``B·T``, plus a granularity
    ``slack``: a Fixed-Order schedule syncs element *i* at most
    ``⌈fᵢ·T⌉ ≤ fᵢ·T + 1`` times in ``T`` periods, so one extra sync
    per scheduled element (``Σ sᵢ`` over elements with ``fᵢ > 0``) is
    the exact worst case.  Units: ``consumed`` and ``slack`` in size
    units, ``planned_per_period`` in size units per period,
    ``n_periods`` in periods.
    """
    limit = (planned_per_period * n_periods + slack) * (1.0 + rtol)
    if consumed > limit:
        _fail(where, "sync conservation Σ consumed <= B·T + slack",
              f"consumed {consumed!r} exceeds {limit!r} "
              f"(B·T = {planned_per_period * n_periods!r}, "
              f"slack = {slack!r})")


def check_attempt_budget(attempted: float, budget_per_period: float,
                         n_periods: float, slack: float, *,
                         rtol: float = BUDGET_RTOL,
                         where: str = "<direct>") -> None:
    """Assert the sync channel never overdrew the attempt budget.

    Under fault injection every *attempt* — successful poll, failed
    poll, retry — burns bandwidth, so the Core Problem's constraint
    binds on attempts, not on successes: cumulative attempted
    bandwidth over the horizon must stay within ``B·T`` plus the
    Fixed-Order granularity ``slack`` (one extra scheduled sync per
    element, exactly as :func:`check_sync_conservation` allows).
    Units: ``attempted`` and ``slack`` in size units,
    ``budget_per_period`` in size units per period, ``n_periods`` in
    periods.
    """
    limit = (budget_per_period * n_periods + slack) * (1.0 + rtol)
    if attempted > limit:
        _fail(where,
              "attempt budget Σ attempted <= B·T + slack",
              f"attempted {attempted!r} exceeds {limit!r} "
              f"(B·T = {budget_per_period * n_periods!r}, "
              f"slack = {slack!r})")


def check_attempt_accounting(attempted: np.ndarray, polls: np.ndarray,
                             failed: np.ndarray, *,
                             where: str = "<direct>") -> None:
    """Assert every attempt either failed or was a successful poll.

    Per element, ``attempted == polls + failed``: an attempt that
    succeeds ends its sync as one poll, and every other attempt
    counts as a failure.  The vectorized engine derives its attempt
    counts from this identity, and the reference channel counts each
    side attempt by attempt.  Counts are dimensionless.
    """
    mismatch = np.flatnonzero(attempted != polls + failed)
    if mismatch.shape[0]:
        element = int(mismatch[0])
        _fail(where, "attempts = polls + failures per element",
              f"{mismatch.shape[0]} elements differ; element {element} "
              f"made {int(attempted[element])} attempts against "
              f"{int(polls[element])} polls + "
              f"{int(failed[element])} failures")


def check_kkt_stationarity(residual: float, multiplier: float, *,
                           rtol: float = KKT_RTOL,
                           where: str = "<direct>") -> None:
    """Assert the stationarity residual is small at the μ scale.

    At a true optimum every active element's scaled marginal equals μ
    (paper Equation 6), so the residual tolerance scales with
    ``max(μ, 1)`` — the same convention the solver's property tests
    use.
    """
    limit = rtol * max(abs(multiplier), 1.0)
    if residual > limit:
        _fail(where, "KKT stationarity residual ~ 0",
              f"residual {residual!r} exceeds {limit!r} "
              f"(multiplier {multiplier!r}, rtol={rtol!r})")


# ---------------------------------------------------------------------------
# Decorator plumbing.
# ---------------------------------------------------------------------------

def postcondition(check: Callable[[Any, Mapping[str, Any]], None],
                  ) -> Callable[[F], F]:
    """Attach a postcondition to a function.

    While contracts are enabled, ``check(result, arguments)`` runs
    after each call, where ``arguments`` maps every parameter name to
    its value (defaults applied), however the caller spelled the call.
    When disabled, the wrapper costs one attribute load and one
    branch.  The wrapped function exposes the original as
    ``__wrapped__`` (so benchmarks can measure the undecorated path)
    and the check as ``__contract__``.
    """

    def decorate(func: F) -> F:
        signature = inspect.signature(func)

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = func(*args, **kwargs)
            if _state.enabled:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                check(result, bound.arguments)
            return result

        wrapper.__contract__ = check  # type: ignore[attr-defined]
        return wrapper  # type: ignore[return-value]

    return decorate


def iter_contracted(namespace: dict[str, Any],
                    ) -> Iterator[tuple[str, Callable[..., Any]]]:
    """Yield ``(name, function)`` for contracted callables in a module
    namespace — introspection helper for the test tier."""
    for name, value in namespace.items():
        if callable(value) and hasattr(value, "__contract__"):
            yield name, value
