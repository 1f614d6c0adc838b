"""Tests for repro.core.partitioning."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partitioning import (
    PartitionAssignment,
    PartitioningStrategy,
    _rank_split_labels,
    contiguous_labels,
    partition_catalog,
    sort_key,
)
from repro.errors import ValidationError
from repro.workloads.catalog import Catalog

from tests.conftest import random_catalog


class TestStrategyCoerce:
    def test_accepts_members_and_strings(self):
        assert PartitioningStrategy.coerce("pf") is PartitioningStrategy.PF
        assert PartitioningStrategy.coerce(
            PartitioningStrategy.LAMBDA) is PartitioningStrategy.LAMBDA
        assert PartitioningStrategy.coerce(
            "p-over-lambda") is PartitioningStrategy.P_OVER_LAMBDA

    def test_rejects_unknown(self):
        with pytest.raises(ValidationError, match="unknown partitioning"):
            PartitioningStrategy.coerce("zipf")


class TestSortKeys:
    def test_p_key_is_access_probability(self, small_catalog):
        key = sort_key(small_catalog, PartitioningStrategy.P)
        assert np.array_equal(key, small_catalog.access_probabilities)

    def test_lambda_key_is_change_rate(self, small_catalog):
        key = sort_key(small_catalog, PartitioningStrategy.LAMBDA)
        assert np.array_equal(key, small_catalog.change_rates)

    def test_p_over_lambda_key(self, small_catalog):
        key = sort_key(small_catalog, PartitioningStrategy.P_OVER_LAMBDA)
        expected = (small_catalog.access_probabilities
                    / small_catalog.change_rates)
        assert np.allclose(key, expected)

    def test_pf_key_rises_with_interest_falls_with_rate(self):
        catalog = Catalog(
            access_probabilities=np.array([0.4, 0.4, 0.2]),
            change_rates=np.array([1.0, 5.0, 1.0]))
        key = sort_key(catalog, PartitioningStrategy.PF)
        assert key[0] > key[1]  # same p, slower change => fresher
        assert key[0] > key[2]  # same rate, more interest

    def test_pf_over_size_penalizes_big_objects(self):
        catalog = Catalog(
            access_probabilities=np.array([0.5, 0.5]),
            change_rates=np.array([2.0, 2.0]),
            sizes=np.array([1.0, 10.0]))
        key = sort_key(catalog, PartitioningStrategy.PF_OVER_SIZE)
        assert key[0] > key[1]

    def test_size_key(self, sized_catalog):
        key = sort_key(sized_catalog, PartitioningStrategy.SIZE)
        assert np.array_equal(key, sized_catalog.sizes)

    def test_static_element_in_p_over_lambda(self):
        catalog = Catalog(access_probabilities=np.array([0.5, 0.5]),
                          change_rates=np.array([0.0, 1.0]))
        key = sort_key(catalog, PartitioningStrategy.P_OVER_LAMBDA)
        assert np.isinf(key[0])


class TestContiguousLabels:
    def test_even_split(self):
        labels = contiguous_labels(np.arange(6), 3)
        assert np.array_equal(labels, [0, 0, 1, 1, 2, 2])

    def test_uneven_split_front_loads(self):
        labels = contiguous_labels(np.arange(7), 3)
        counts = np.bincount(labels)
        assert counts.tolist() == [3, 2, 2]

    def test_respects_order_argument(self):
        # Order reversed: last elements land in partition 0.
        labels = contiguous_labels(np.array([3, 2, 1, 0]), 2)
        assert np.array_equal(labels, [1, 1, 0, 0])

    def test_k_equals_n(self):
        labels = contiguous_labels(np.arange(4), 4)
        assert sorted(labels.tolist()) == [0, 1, 2, 3]

    def test_rejects_bad_k(self):
        with pytest.raises(ValidationError):
            contiguous_labels(np.arange(4), 0)


class TestPartitionCatalog:
    def test_partition_counts_nearly_equal(self, rng):
        catalog = random_catalog(rng, 103)
        assignment = partition_catalog(catalog, 10,
                                       PartitioningStrategy.PF)
        counts = assignment.counts
        assert counts.sum() == 103
        assert counts.max() - counts.min() <= 1

    def test_partitions_are_contiguous_in_key(self, rng):
        catalog = random_catalog(rng, 60)
        for strategy in PartitioningStrategy:
            assignment = partition_catalog(catalog, 6, strategy)
            key = sort_key(catalog, strategy)
            # Max key of partition i must not exceed min key of
            # partition i+1.
            for left in range(5):
                left_max = key[assignment.labels == left].max()
                right_min = key[assignment.labels == left + 1].min()
                assert left_max <= right_min + 1e-12

    def test_k_clipped_to_n(self, small_catalog):
        assignment = partition_catalog(small_catalog, 50,
                                       PartitioningStrategy.P)
        assert assignment.n_partitions == 5

    def test_single_partition(self, small_catalog):
        assignment = partition_catalog(small_catalog, 1,
                                       PartitioningStrategy.P)
        assert (assignment.labels == 0).all()

    def test_strategy_recorded(self, small_catalog):
        assignment = partition_catalog(small_catalog, 2, "pf")
        assert assignment.strategy is PartitioningStrategy.PF


def _stable_labels(key: np.ndarray, k: int) -> np.ndarray:
    """The definition: contiguous runs of the stable argsort."""
    return contiguous_labels(np.argsort(key, kind="stable"), k)


#: Element values for heavy-tie catalogs: ±0 and a few repeats.
_TIED_VALUES = (0.0, -0.0, 0.25, 1.0, 1.0, 3.0)


@st.composite
def _tied_catalogs(draw):
    """Catalogs whose sort keys tie heavily: uniform profiles, uniform
    sizes, ±0 probabilities and change rates, and λ = 0 (an infinite
    P/λ key)."""
    n = draw(st.integers(min_value=1, max_value=40))
    pick = st.sampled_from(_TIED_VALUES)
    uniform_profile = draw(st.booleans())
    weights = (np.ones(n) if uniform_profile
               else np.array(draw(st.lists(pick, min_size=n, max_size=n))))
    if not weights.sum() > 0.0:
        weights[0] = 1.0
    rates = np.array(draw(st.lists(pick, min_size=n, max_size=n)))
    sizes = (None if draw(st.booleans()) else
             np.array(draw(st.lists(st.sampled_from((0.5, 1.0, 2.0)),
                                    min_size=n, max_size=n))))
    return Catalog(access_probabilities=weights / weights.sum(),
                   change_rates=rates, sizes=sizes)


class TestRankSplit:
    """The rank split is the stable-argsort split, bit for bit."""

    @given(_tied_catalogs(), st.sampled_from(list(PartitioningStrategy)),
           st.integers(min_value=0, max_value=3),
           st.integers(min_value=1, max_value=50))
    @settings(max_examples=300, deadline=None)
    def test_labels_equal_stable_argsort_runs(self, catalog, strategy,
                                              k_mode, k_drawn):
        n = catalog.n_elements
        # k = 1, k = N, k > N, and any k (often with N mod k ≠ 0).
        k = (1, n, n + 3, k_drawn)[k_mode]
        labels = partition_catalog(catalog, k, strategy).labels
        key = sort_key(catalog, strategy)
        assert np.array_equal(labels, _stable_labels(key, min(k, n)))

    @given(st.lists(st.sampled_from((0.0, -0.0, 1.0, -1.0, 2.5, np.inf,
                                     -np.inf, 5e-324)),
                    min_size=1, max_size=60),
           st.integers(min_value=1, max_value=70))
    @settings(max_examples=300, deadline=None)
    def test_raw_keys_with_ties_and_infinities(self, values, k):
        key = np.array(values)
        labels = _rank_split_labels(key, k)
        assert labels.dtype == _stable_labels(key, k).dtype
        assert np.array_equal(labels, _stable_labels(key, k))

    @given(st.integers(min_value=1, max_value=3000),
           st.integers(min_value=1, max_value=200),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_catalogs_every_strategy(self, n, k, seed):
        catalog = random_catalog(np.random.default_rng(seed), n,
                                 sized=True)
        for strategy in PartitioningStrategy:
            key = sort_key(catalog, strategy)
            assert np.array_equal(
                partition_catalog(catalog, k, strategy).labels,
                _stable_labels(key, min(k, n)))

    def test_rejects_bad_k(self):
        with pytest.raises(ValidationError):
            _rank_split_labels(np.arange(4.0), 0)

    def test_sort_keys_are_never_nan(self):
        # The rank split needs NaN-free keys: Catalog rejects non-finite
        # fields, and no strategy makes a NaN from the extremes it
        # admits (p = 0, λ = 0, tiny sizes).
        with pytest.raises(ValidationError, match="finite"):
            Catalog(access_probabilities=np.array([np.nan, 1.0]),
                    change_rates=np.ones(2))
        with pytest.raises(ValidationError, match="finite"):
            Catalog(access_probabilities=np.array([0.5, 0.5]),
                    change_rates=np.array([1.0, np.nan]))
        with pytest.raises(ValidationError, match="finite"):
            Catalog(access_probabilities=np.array([0.5, 0.5]),
                    change_rates=np.ones(2), sizes=np.array([np.nan, 1.0]))
        catalog = Catalog(access_probabilities=np.array([0.0, 1.0, 0.0]),
                          change_rates=np.array([0.0, 0.0, 5e-324]),
                          sizes=np.array([1e-300, 1.0, 1e300]))
        for strategy in PartitioningStrategy:
            assert not np.isnan(sort_key(catalog, strategy)).any()


class TestPartitionAssignment:
    def test_validation(self):
        with pytest.raises(ValidationError):
            PartitionAssignment(labels=np.array([0, 3]), n_partitions=2)
        with pytest.raises(ValidationError):
            PartitionAssignment(labels=np.array([-1]), n_partitions=1)
        with pytest.raises(ValidationError):
            PartitionAssignment(labels=np.array([0]), n_partitions=0)

    def test_with_labels_drops_strategy(self, small_catalog):
        assignment = partition_catalog(small_catalog, 2, "p")
        relabeled = assignment.with_labels(np.array([1, 0, 1, 0, 1]))
        assert relabeled.strategy is None
        assert relabeled.n_partitions == 2

    def test_labels_immutable(self, small_catalog):
        assignment = partition_catalog(small_catalog, 2, "p")
        with pytest.raises(ValueError):
            assignment.labels[0] = 1

    @given(st.integers(min_value=1, max_value=25),
           st.integers(min_value=1, max_value=30),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=40)
    def test_every_element_assigned_exactly_once(self, k, n, seed):
        rng = np.random.default_rng(seed)
        catalog = random_catalog(rng, n)
        assignment = partition_catalog(catalog, k,
                                       PartitioningStrategy.PF)
        assert assignment.labels.shape == (n,)
        assert assignment.counts.sum() == n
        assert (assignment.counts[:assignment.n_partitions] > 0).all()
