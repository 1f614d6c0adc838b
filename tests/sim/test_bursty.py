"""Tests for repro.sim.bursty and the misspecification experiment."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.sensitivity import burstiness_robustness
from repro.errors import ValidationError
from repro.sim.bursty import BurstyUpdateGenerator
from repro.sim.events import EventKind
from repro.sim.generators import RequestGenerator
from repro.sim.simulation import Simulation
from repro.workloads.catalog import Catalog
from repro.workloads.presets import ExperimentSetup


@pytest.fixture
def catalog():
    return Catalog(access_probabilities=np.array([0.5, 0.3, 0.2]),
                   change_rates=np.array([4.0, 1.0, 0.5]))


class TestBurstyUpdateGenerator:
    def test_zero_burstiness_is_poisson_like(self, catalog, rng):
        generator = BurstyUpdateGenerator(catalog, burstiness=0.0,
                                          rng=rng)
        _, elements = generator.draw_window(0.0, 200.0)
        counts = np.bincount(elements, minlength=3)
        expected = catalog.change_rates * 200.0
        assert np.allclose(counts, expected, rtol=0.15)

    def test_long_run_rate_preserved_under_bursts(self, catalog, rng):
        generator = BurstyUpdateGenerator(catalog, burstiness=0.8,
                                          rng=rng)
        _, elements = generator.draw_window(0.0, 500.0)
        counts = np.bincount(elements, minlength=3)
        expected = catalog.change_rates * 500.0
        # MMPP has higher variance than Poisson; allow a wider band.
        assert np.allclose(counts, expected, rtol=0.3)

    def test_stream_sorted_and_typed(self, catalog, rng):
        generator = BurstyUpdateGenerator(catalog, burstiness=0.5,
                                          rng=rng)
        times, elements = generator.draw_window(0.0, 20.0)
        assert times.dtype == np.float64 and elements.dtype == np.int64
        # Element-major: each element's own times come back sorted.
        for element in range(3):
            own = times[elements == element]
            assert (np.diff(own) >= 0.0).all()
        assert times.min() >= 0.0 and times.max() < 20.0

    def test_bursts_raise_interarrival_dispersion(self, catalog):
        """The coefficient of variation of gaps must exceed 1 (the
        Poisson value) when burstiness is high."""
        hot = Catalog(access_probabilities=np.array([1.0]),
                      change_rates=np.array([5.0]))
        bursty = BurstyUpdateGenerator(
            hot, burstiness=0.9, rng=np.random.default_rng(0))
        times, _ = bursty.draw_window(0.0, 2000.0)
        gaps = np.diff(np.sort(times, kind="stable"))
        cv = gaps.std() / gaps.mean()
        assert cv > 1.3

    def test_static_elements_never_update(self, rng):
        catalog = Catalog(access_probabilities=np.array([0.5, 0.5]),
                          change_rates=np.array([0.0, 2.0]))
        generator = BurstyUpdateGenerator(catalog, burstiness=0.5,
                                          rng=rng)
        _, elements = generator.draw_window(0.0, 50.0)
        assert (elements != 0).all()

    def test_validation(self, catalog, rng):
        with pytest.raises(ValidationError):
            BurstyUpdateGenerator(catalog, burstiness=1.0, rng=rng)
        with pytest.raises(ValidationError):
            BurstyUpdateGenerator(catalog, burstiness=-0.1, rng=rng)
        with pytest.raises(ValidationError):
            BurstyUpdateGenerator(catalog, burstiness=0.5,
                                  cycle_length=0.0, rng=rng)
        generator = BurstyUpdateGenerator(catalog, burstiness=0.5,
                                          rng=rng)
        with pytest.raises(ValidationError):
            generator.draw_window(0.0, 0.0)


def per_stream_tape(streams):
    """Oracle for the fused tape: stably time-sort each ``(kind,
    times, elements)`` stream on its own, then lexsort the union by
    (time, kind) — the SoA dtypes included."""
    times, elements, kinds = [], [], []
    for kind, stream_times, stream_elements in streams:
        order = np.argsort(stream_times, kind="stable")
        times.append(np.asarray(stream_times, dtype=float)[order])
        elements.append(np.asarray(stream_elements)[order].astype(np.int32))
        kinds.append(np.full(order.shape[0], int(kind), dtype=np.int8))
    times, elements, kinds = (np.concatenate(times),
                              np.concatenate(elements),
                              np.concatenate(kinds))
    order = np.lexsort((kinds, times))
    return times[order], elements[order], kinds[order]


class TestBurstyTape:
    @pytest.mark.parametrize("burstiness", [0.0, 0.7])
    def test_build_tape_matches_per_stream_merge(self, burstiness):
        """The fused one-shot tape of a bursty world equals sorting
        each stream on its own and lexsorting the union by (time,
        kind) — bit for bit, dtypes included, from the same draws."""
        rng = np.random.default_rng(5)
        n = 40
        rates = rng.uniform(0.0, 3.0, n)
        rates[::6] = 0.0
        catalog = Catalog(access_probabilities=rng.dirichlet(np.ones(n)),
                          change_rates=rates)
        frequencies = rng.uniform(0.0, 2.0, n)
        horizon = 3.5

        def world():
            rng = np.random.default_rng(11)
            updates = BurstyUpdateGenerator(catalog, burstiness=burstiness,
                                            rng=rng)
            sim = Simulation(catalog, frequencies, request_rate=80.0,
                             rng=rng, update_generator=updates)
            return sim, updates, rng

        sim, _, _ = world()
        got = sim.build_tape(horizon)

        sim, updates, rng = world()
        streams = [
            (EventKind.UPDATE, *updates.draw_window(0.0, horizon)),
            (EventKind.SYNC, *sim.schedule.events_until(horizon)),
            (EventKind.ACCESS, *RequestGenerator(
                catalog, rate=80.0, rng=rng).draw_window(0.0, horizon)),
        ]
        want = per_stream_tape(streams)

        assert len(streams[0][1]) > 0
        for got_array, want_array in zip(got, want):
            assert got_array.dtype == want_array.dtype
            np.testing.assert_array_equal(got_array, want_array)


class TestBurstinessRobustness:
    def test_poisson_prediction_is_conservative(self):
        setup = ExperimentSetup(n_objects=80,
                                updates_per_period=160.0,
                                syncs_per_period=40.0, theta=1.0,
                                update_std_dev=1.0)
        sweep = burstiness_robustness(
            setup=setup, burstiness_levels=np.array([0.0, 0.5, 0.9]),
            n_periods=40, request_rate=800.0)
        measured = sweep.get("measured (bursty world)").y
        prediction = sweep.get("poisson prediction").y[0]
        # At zero burstiness the world IS Poisson: measurement matches.
        assert measured[0] == pytest.approx(prediction, abs=0.05)
        # Burstiness never drags measured PF below the plan's promise
        # (beyond sampling noise) and clearly helps at the high end.
        assert (measured >= prediction - 0.05).all()
        assert measured[-1] > prediction + 0.02
