"""Tests for repro.core.metrics."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.freshness import PoissonSyncPolicy
from repro.core.metrics import (
    element_freshness,
    general_freshness,
    perceived_freshness,
    perceived_freshness_of_accesses,
    weighted_freshness,
)
from repro.errors import ValidationError
from repro.workloads.catalog import Catalog

from tests.conftest import random_catalog


class TestElementFreshness:
    def test_matches_closed_form(self, small_catalog):
        freqs = small_catalog.change_rates.copy()  # r = 1 everywhere
        values = element_freshness(small_catalog, freqs)
        assert np.allclose(values, 1.0 - math.exp(-1.0))

    def test_zero_frequencies_all_stale(self, small_catalog):
        values = element_freshness(small_catalog, np.zeros(5))
        assert (values == 0.0).all()

    def test_rejects_wrong_shape(self, small_catalog):
        with pytest.raises(ValidationError):
            element_freshness(small_catalog, np.ones(3))

    def test_rejects_negative_frequency(self, small_catalog):
        with pytest.raises(ValidationError):
            element_freshness(small_catalog, np.array([1, 1, 1, 1, -1.0]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_frequency(self, small_catalog, bad):
        frequencies = np.ones(5)
        frequencies[0] = bad
        with pytest.raises(ValidationError, match="finite"):
            element_freshness(small_catalog, frequencies)
        with pytest.raises(ValidationError, match="finite"):
            perceived_freshness(small_catalog, frequencies)
        with pytest.raises(ValidationError, match="finite"):
            general_freshness(small_catalog, frequencies)

    def test_alternate_model(self, small_catalog):
        freqs = small_catalog.change_rates.copy()
        values = element_freshness(small_catalog, freqs,
                                   model=PoissonSyncPolicy())
        assert np.allclose(values, 0.5)


class TestAggregateMetrics:
    def test_perceived_weights_by_profile(self):
        catalog = Catalog(access_probabilities=np.array([1.0, 0.0]),
                          change_rates=np.array([1.0, 1.0]))
        freqs = np.array([1.0, 0.0])
        # Only element 0 matters and it has r = 1.
        assert perceived_freshness(catalog, freqs) == pytest.approx(
            1.0 - math.exp(-1.0))

    def test_general_is_unweighted_mean(self):
        catalog = Catalog(access_probabilities=np.array([1.0, 0.0]),
                          change_rates=np.array([1.0, 1.0]))
        freqs = np.array([1.0, 0.0])
        expected = (1.0 - math.exp(-1.0)) / 2.0
        assert general_freshness(catalog, freqs) == pytest.approx(expected)

    def test_uniform_profile_makes_them_equal(self, rng):
        catalog = random_catalog(rng, 12).with_uniform_profile()
        freqs = rng.uniform(0.0, 3.0, size=12)
        assert perceived_freshness(catalog, freqs) == pytest.approx(
            general_freshness(catalog, freqs))

    def test_weighted_freshness_normalizes(self, small_catalog):
        freqs = np.ones(5)
        weights = np.array([2.0, 0.0, 0.0, 0.0, 0.0])
        expected = element_freshness(small_catalog, freqs)[0]
        assert weighted_freshness(small_catalog, freqs,
                                  weights) == pytest.approx(expected)

    def test_weighted_freshness_validates(self, small_catalog):
        with pytest.raises(ValidationError):
            weighted_freshness(small_catalog, np.ones(5), np.ones(3))
        with pytest.raises(ValidationError):
            weighted_freshness(small_catalog, np.ones(5),
                               np.array([1, 1, 1, 1, -1.0]))
        with pytest.raises(ValidationError):
            weighted_freshness(small_catalog, np.ones(5), np.zeros(5))

    @given(st.integers(min_value=1, max_value=30),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=50)
    def test_perceived_is_convex_combination_of_freshness(self, n, seed):
        rng = np.random.default_rng(seed)
        catalog = random_catalog(rng, n)
        freqs = rng.uniform(0.0, 4.0, size=n)
        per_element = element_freshness(catalog, freqs)
        value = perceived_freshness(catalog, freqs)
        assert per_element.min() - 1e-12 <= value <= per_element.max() + 1e-12

    @given(st.integers(min_value=1, max_value=30),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=50)
    def test_metrics_bounded(self, n, seed):
        rng = np.random.default_rng(seed)
        catalog = random_catalog(rng, n)
        freqs = rng.uniform(0.0, 10.0, size=n)
        assert 0.0 <= perceived_freshness(catalog, freqs) <= 1.0
        assert 0.0 <= general_freshness(catalog, freqs) <= 1.0


class TestAccessSetMetric:
    def test_definition3(self):
        observed = np.array([True, False, True, True])
        assert perceived_freshness_of_accesses(observed) == 0.75

    def test_integer_input(self):
        assert perceived_freshness_of_accesses(
            np.array([1, 0, 0, 0])) == 0.25

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            perceived_freshness_of_accesses(np.empty(0, dtype=bool))

    def test_rejects_2d(self):
        with pytest.raises(ValidationError):
            perceived_freshness_of_accesses(np.zeros((2, 2), dtype=bool))
