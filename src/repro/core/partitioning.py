"""Sort-based partitioning heuristics (paper §3.1).

All techniques share one recipe: rank the N elements by a criterion
(stable: equal keys keep index order), then assign runs of ⌈N/k⌉
successive ranks to each of k partitions.  Only the k−1 rank
boundaries matter, so the labels come from one value sort and a
``searchsorted`` into the boundary values; no element permutation is
built.  The criteria are:

* **P** — access probability ``p`` (similar popularity together),
* **λ** — change rate (similar volatility together; included for
  completeness, and the paper shows it trails the others),
* **P/λ** — the ratio ``p/λ``, motivated by the optimal solution's
  structure (bandwidth rises with p, falls with λ),
* **PF** — perceived freshness at a reference frequency,
  ``p·F̄(λ, f₀)`` with f₀ = 1.0 (the paper's winner),
* **PF/s** — the size-aware variant ``p·F̄(λ, f₀/s)`` that divides
  the reference bandwidth by object size (paper §5.2),
* **size** — object size alone (size analogue of λ-partitioning,
  mentioned in §5.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from repro.contracts import check_partition_labels, postcondition
from repro.core.freshness import FixedOrderPolicy, FreshnessModel
from repro.errors import ContractViolationError, ValidationError
from repro.workloads.catalog import Catalog

__all__ = ["PartitioningStrategy", "PartitionAssignment", "sort_key",
           "partition_catalog", "contiguous_labels"]

_DEFAULT_MODEL = FixedOrderPolicy()

#: The reference sync frequency used by PF-style sort keys.  The paper
#: notes the exact value is unimportant and uses 1.0.
REFERENCE_FREQUENCY = 1.0


class PartitioningStrategy(str, Enum):
    """The paper's partitioning criteria."""

    P = "p"
    LAMBDA = "lambda"
    P_OVER_LAMBDA = "p-over-lambda"
    PF = "pf"
    PF_OVER_SIZE = "pf-over-size"
    SIZE = "size"

    @classmethod
    def coerce(cls, value: "PartitioningStrategy | str") -> "PartitioningStrategy":
        """Accept either a member or its string value."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError as exc:
            options = ", ".join(member.value for member in cls)
            raise ValidationError(
                f"unknown partitioning strategy {value!r}; expected one of: "
                f"{options}") from exc


@dataclass(frozen=True)
class PartitionAssignment:
    """A partitioning of catalog elements.

    Attributes:
        labels: Partition index per element, shape ``(N,)``, values in
            ``[0, n_partitions)``.
        n_partitions: Number of partitions k.
        strategy: The criterion that produced the assignment, or None
            for externally supplied labels (e.g. k-means output).
    """

    labels: np.ndarray
    n_partitions: int
    strategy: PartitioningStrategy | None = None

    def __post_init__(self) -> None:
        labels = np.asarray(self.labels, dtype=int)
        if labels.ndim != 1:
            raise ValidationError("labels must be 1-D")
        if self.n_partitions < 1:
            raise ValidationError(
                f"n_partitions must be >= 1, got {self.n_partitions}")
        if labels.size and (labels.min() < 0
                            or labels.max() >= self.n_partitions):
            raise ValidationError(
                f"labels must lie in [0, {self.n_partitions})")
        labels = labels.copy()
        labels.flags.writeable = False
        object.__setattr__(self, "labels", labels)

    @property
    def counts(self) -> np.ndarray:
        """Elements per partition, shape ``(n_partitions,)``."""
        return np.bincount(self.labels, minlength=self.n_partitions)

    def with_labels(self, labels: np.ndarray) -> "PartitionAssignment":
        """The same k with new labels (used after k-means refinement)."""
        return PartitionAssignment(labels=labels,
                                   n_partitions=self.n_partitions,
                                   strategy=None)


def sort_key(catalog: Catalog,
             strategy: PartitioningStrategy | str, *,
             model: FreshnessModel | None = None,
             reference_frequency: float = REFERENCE_FREQUENCY) -> np.ndarray:
    """The per-element sort criterion for a partitioning strategy.

    Args:
        catalog: Workload description.
        strategy: Which criterion to compute.
        model: Freshness model for the PF-style keys.
        reference_frequency: f₀ in the PF keys, in syncs per period.

    Returns:
        One float per element; elements with similar values belong in
        the same partition.
    """
    strategy = PartitioningStrategy.coerce(strategy)
    chosen = model if model is not None else _DEFAULT_MODEL
    p = catalog.access_probabilities
    lam = catalog.change_rates
    if strategy is PartitioningStrategy.P:
        return p.copy()
    if strategy is PartitioningStrategy.LAMBDA:
        return lam.copy()
    if strategy is PartitioningStrategy.P_OVER_LAMBDA:
        with np.errstate(divide="ignore"):
            return np.where(lam > 0.0, p / np.maximum(lam, 1e-300), np.inf)
    if strategy is PartitioningStrategy.PF:
        reference = np.full_like(lam, reference_frequency)
        return p * chosen.freshness(lam, reference)
    if strategy is PartitioningStrategy.PF_OVER_SIZE:
        # One sync of a big page costs more bandwidth, so the
        # reference *bandwidth* is held constant: f₀/s per element.
        reference = reference_frequency / catalog.sizes
        return p * chosen.freshness(lam, reference)
    assert strategy is PartitioningStrategy.SIZE
    return catalog.sizes.copy()


def _split_starts(n: int, k: int) -> np.ndarray:
    """First rank of each of the k ``np.array_split`` runs of n ranks.

    The first ``n mod k`` runs hold ⌈n/k⌉ ranks, the rest ⌊n/k⌋.
    """
    runs = np.arange(k)
    return runs * (n // k) + np.minimum(runs, n % k)


def contiguous_labels(order: np.ndarray, n_partitions: int) -> np.ndarray:
    """Assign runs of sorted elements to partitions.

    Args:
        order: Element indices in sort order (e.g. from ``argsort``).
        n_partitions: Number of partitions k (clipped to N).

    Returns:
        Labels per element: the first ⌈N/k⌉ elements of ``order`` get
        partition 0, the next run partition 1, and so on (trailing
        partitions may be one element smaller when k ∤ N, as in the
        paper).
    """
    n = order.shape[0]
    if n_partitions < 1:
        raise ValidationError(
            f"n_partitions must be >= 1, got {n_partitions}")
    k = min(n_partitions, n)
    sizes = np.diff(_split_starts(n, k), append=n)
    labels = np.empty(n, dtype=int)
    labels[order] = np.repeat(np.arange(k), sizes)
    return labels


def _rank_split_labels(key: np.ndarray, n_partitions: int) -> np.ndarray:
    """Labels of the k stable-rank runs of ``key``, without a permutation.

    Equal to ``contiguous_labels(np.argsort(key, kind="stable"), k)``
    for NaN-free keys: an element's label is the number of run starts
    at or below its stable rank.  One value sort gives the k−1 boundary
    values ``v``; an element whose key equals no boundary value has
    label ``#(v < key)``.  Only elements equal to a boundary value can
    straddle a run start; they are ranked among their equals by index,
    which is exactly the stable tie order.

    Args:
        key: Sort criterion per element (NaN-free).
        n_partitions: Number of partitions k (clipped to N).

    Returns:
        Labels per element, as :func:`contiguous_labels` would give.
    """
    n = key.shape[0]
    if n_partitions < 1:
        raise ValidationError(
            f"n_partitions must be >= 1, got {n_partitions}")
    k = min(n_partitions, n)
    starts = _split_starts(n, k)[1:]
    # Only values are read from this sort: it may order -0.0 and 0.0
    # either way, but they compare equal, so no label depends on it.
    ordered = np.sort(key)
    bounds = ordered[starts]
    labels = np.searchsorted(bounds, key, side="left")
    if k < 2:
        return labels
    ties = np.flatnonzero(bounds[np.minimum(labels, k - 2)] == key)
    # Each tied element's group is its first equal boundary; its stable
    # rank is the group's first rank plus its index order in the group.
    groups = labels[ties]
    by_group = np.argsort(groups, kind="stable")
    grouped = groups[by_group]
    within = (np.arange(grouped.shape[0])
              - np.searchsorted(grouped, grouped, side="left"))
    ranks = np.searchsorted(ordered, bounds, side="left")[grouped] + within
    labels[ties[by_group]] = np.searchsorted(starts, ranks, side="right")
    return labels


def _check_partition_assignment(assignment: "PartitionAssignment",
                                arguments: Mapping[str, object]) -> None:
    """Postcondition: a complete, in-range labeling of the catalog.

    Every element must land in exactly one of the k partitions —
    the transformed-problem weights ``nₖ·p̄ₖ`` silently lose profile
    mass if any element is dropped.
    """
    catalog: Catalog = arguments["catalog"]  # type: ignore[assignment]
    check_partition_labels(assignment.labels, assignment.n_partitions,
                           where="partition_catalog")
    if assignment.labels.shape[0] != catalog.n_elements:
        raise ContractViolationError(
            "contract violated in partition_catalog: complete labeling "
            f"- produced {assignment.labels.shape[0]} labels for "
            f"{catalog.n_elements} elements")


@postcondition(_check_partition_assignment)
def partition_catalog(catalog: Catalog, n_partitions: int,
                      strategy: PartitioningStrategy | str, *,
                      model: FreshnessModel | None = None,
                      reference_frequency: float = REFERENCE_FREQUENCY,
                      ) -> PartitionAssignment:
    """Partition a catalog with one of the paper's sort-based techniques.

    Args:
        catalog: Workload description.
        n_partitions: Number of partitions k.
        strategy: Sort criterion.
        model: Freshness model for PF-style keys.
        reference_frequency: f₀ in the PF keys, in syncs per period.

    Returns:
        The :class:`PartitionAssignment` (k is clipped to N when
        callers ask for more partitions than elements).
    """
    strategy = PartitioningStrategy.coerce(strategy)
    key = sort_key(catalog, strategy, model=model,
                   reference_frequency=reference_frequency)
    labels = _rank_split_labels(key, n_partitions)
    return PartitionAssignment(labels=labels,
                               n_partitions=min(n_partitions,
                                                catalog.n_elements),
                               strategy=strategy)
