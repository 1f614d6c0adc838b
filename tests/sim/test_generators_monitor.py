"""Tests for the simulator's generators and freshness monitor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError, ValidationError
from repro.sim.evaluator import FreshnessMonitor
from repro.sim.generators import (
    RequestGenerator,
    UpdateGenerator,
    _repeat_arange_into,
)
from repro.workloads.catalog import Catalog


@pytest.fixture
def catalog():
    return Catalog(access_probabilities=np.array([0.5, 0.3, 0.2]),
                   change_rates=np.array([4.0, 1.0, 0.5]))


class TestUpdateGenerator:
    def test_counts_match_rates(self, catalog, rng):
        generator = UpdateGenerator(catalog, rng=rng)
        _, elements = generator.draw_window(0.0, 200.0)
        counts = np.bincount(elements, minlength=3)
        expected = catalog.change_rates * 200.0
        assert np.allclose(counts, expected, rtol=0.15)

    def test_stream_sorted_and_typed(self, catalog, rng):
        """The raw window is typed and in range; the sorted window is
        time-ordered without a sort."""
        generator = UpdateGenerator(catalog, rng=rng)
        times, elements = generator.draw_window(0.0, 10.0)
        assert times.dtype == np.float64 and elements.dtype == np.int64
        assert times.shape == elements.shape
        assert times.min() >= 0.0 and times.max() < 10.0
        times, elements = generator.draw_window_sorted(0.0, 10.0)
        assert (np.diff(times) >= 0.0).all()
        assert times.max() < 10.0
        assert set(elements.tolist()) <= {0, 1, 2}

    def test_period_length_scales_rates(self, catalog, rng):
        # Rates are per period: doubling the period halves the
        # per-clock-unit rate.
        slow = UpdateGenerator(catalog, period_length=2.0, rng=rng)
        times, _ = slow.draw_window(0.0, 200.0)
        expected = catalog.change_rates.sum() * 100.0
        assert len(times) == pytest.approx(expected, rel=0.15)

    def test_rejects_bad_parameters(self, catalog, rng):
        with pytest.raises(ValidationError):
            UpdateGenerator(catalog, period_length=0.0, rng=rng)
        with pytest.raises(ValidationError):
            UpdateGenerator(catalog, rng=rng).draw_window(0.0, 0.0)

    def test_reproducible(self, catalog):
        one, _ = UpdateGenerator(
            catalog, rng=np.random.default_rng(5)).draw_window(0.0, 5.0)
        two, _ = UpdateGenerator(
            catalog, rng=np.random.default_rng(5)).draw_window(0.0, 5.0)
        assert np.array_equal(one, two)


class TestRequestGenerator:
    def test_profile_respected(self, catalog, rng):
        generator = RequestGenerator(catalog, rate=500.0, rng=rng)
        _, elements = generator.draw_window(0.0, 20.0)
        counts = np.bincount(elements, minlength=3)
        empirical = counts / counts.sum()
        assert np.allclose(empirical, catalog.access_probabilities,
                           atol=0.02)

    def test_rate_respected(self, catalog, rng):
        times, _ = RequestGenerator(catalog, rate=100.0,
                                    rng=rng).draw_window(0.0, 50.0)
        assert len(times) == pytest.approx(5000, rel=0.1)

    def test_rejects_bad_rate(self, catalog, rng):
        with pytest.raises(ValidationError):
            RequestGenerator(catalog, rate=0.0, rng=rng)


class TestRequestPicks:
    """``draw_window``'s element picks are ``rng.choice(p=...)``'s."""

    @pytest.mark.parametrize("rate", [1_000.0, 200_000.0])
    def test_picks_equal_rng_choice(self, rate):
        n = 5_000
        weights = np.random.default_rng(5).pareto(1.2, n) + 1e-3
        weights[::97] = 0.0  # zero-probability elements are never picked
        catalog = Catalog(access_probabilities=weights / weights.sum(),
                          change_rates=np.ones(n))
        generator = RequestGenerator(catalog, rate=rate,
                                     rng=np.random.default_rng(21))
        times, elements = generator.draw_window(0.0, 1.0)
        twin = np.random.default_rng(21)
        count = int(twin.poisson(rate))
        assert np.array_equal(
            times, np.sort(twin.uniform(0.0, 1.0, size=count)))
        probabilities = catalog.access_probabilities
        expected = twin.choice(n, count,
                               p=probabilities / probabilities.sum())
        assert elements.dtype == np.int64
        assert np.array_equal(elements, expected)


class TestRepeatArangeInto:
    """The arena expansion equals ``np.repeat(arange, counts)``."""

    @pytest.mark.parametrize("counts", [
        [0, 0, 3, 1, 2],        # empty elements first
        [2, 1, 3, 0, 0],        # empty elements last
        [0, 2, 0, 0, 1, 0, 4, 0],  # empty elements throughout
        [1, 1, 1],
        [5],
    ])
    def test_equals_np_repeat(self, counts):
        counts = np.array(counts)
        out = np.full(int(counts.sum()) + 3, -1, dtype=np.int64)
        expanded = _repeat_arange_into(counts, out[:int(counts.sum())])
        assert np.array_equal(
            expanded, np.repeat(np.arange(counts.shape[0]), counts))
        assert np.array_equal(out[-3:], [-1, -1, -1])

    @pytest.mark.parametrize("n", [0, 1, 6])
    def test_all_counts_zero(self, n):
        out = np.empty(0, dtype=np.int64)
        assert _repeat_arange_into(np.zeros(n, dtype=np.int64),
                                   out).shape == (0,)

    def test_large_sparse_counts(self):
        counts = np.random.default_rng(4).poisson(0.3, 100_000)
        out = np.full(int(counts.sum()), -1, dtype=np.int64)
        assert np.array_equal(_repeat_arange_into(counts, out),
                              np.repeat(np.arange(100_000), counts))


class TestFreshnessMonitor:
    def test_hand_computed_scenario(self):
        """One element: fresh [0, 0.3), stale [0.3, 0.7), fresh after."""
        monitor = FreshnessMonitor(1, horizon=1.0)
        monitor.note_update(0, 0.3)
        monitor.note_sync(0, 0.7)
        monitor.close()
        assert monitor.element_time_freshness()[0] == pytest.approx(0.6)

    def test_access_scoring(self):
        monitor = FreshnessMonitor(2, horizon=1.0)
        monitor.note_access(0, 0.1, fresh=True)
        monitor.note_access(0, 0.2, fresh=False)
        monitor.note_access(1, 0.3, fresh=True)
        assert monitor.access_counts().tolist() == [2, 1]
        assert monitor.fresh_access_counts().tolist() == [1, 1]

    def test_never_touched_element_stays_fresh(self):
        monitor = FreshnessMonitor(2, horizon=4.0)
        monitor.note_update(0, 1.0)
        monitor.close()
        freshness = monitor.element_time_freshness()
        assert freshness[0] == pytest.approx(0.25)
        assert freshness[1] == pytest.approx(1.0)

    def test_rejects_time_reversal(self):
        monitor = FreshnessMonitor(1, horizon=1.0)
        monitor.note_update(0, 0.5)
        with pytest.raises(SimulationError):
            monitor.note_sync(0, 0.2)

    def test_rejects_events_beyond_horizon(self):
        monitor = FreshnessMonitor(1, horizon=1.0)
        monitor.note_update(0, 2.0)
        with pytest.raises(SimulationError):
            monitor.close()

    def test_close_idempotent(self):
        monitor = FreshnessMonitor(1, horizon=1.0)
        monitor.note_update(0, 0.5)
        monitor.close()
        monitor.close()
        assert monitor.element_time_freshness()[0] == pytest.approx(0.5)

    def test_rejects_bad_construction(self):
        with pytest.raises(SimulationError):
            FreshnessMonitor(0, horizon=1.0)
        with pytest.raises(SimulationError):
            FreshnessMonitor(1, horizon=0.0)

    def test_interleaved_updates_and_syncs(self):
        monitor = FreshnessMonitor(1, horizon=2.0)
        monitor.note_update(0, 0.5)   # stale from 0.5
        monitor.note_update(0, 0.8)   # still stale
        monitor.note_sync(0, 1.0)     # fresh from 1.0
        monitor.note_update(0, 1.5)   # stale from 1.5
        monitor.close()
        # Fresh: [0, 0.5) + [1.0, 1.5) = 1.0 of 2.0.
        assert monitor.element_time_freshness()[0] == pytest.approx(0.5)
