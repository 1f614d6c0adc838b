"""Streaming slab engine: bit-identity, sorted draws, chunked runs.

The *replay* layer (``StreamingReplay`` fed slab-split tapes) is
bit-identical to the reference loop over the concatenated tape —
every result field, the telemetry tape, the freshness ledger and the
post-run fault-rng / Gilbert–Elliott chain state (the ``slab*`` routes
of :mod:`tests.sim.differential`).  The streamed
*generation* layer (``chunk_periods``) draws each period from its own
spawn child, so ``run(H, chunk_periods=K)`` is bit-identical for
every K; it is statistically, not bitwise, equivalent to the
one-shot stream (``chunk_periods=None``), which uses another draw
order.
"""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import SyncSchedule
from repro.errors import SimulationError, ValidationError
from repro.sim import events as events_mod
from repro.sim import fastpath
from repro.sim.events import merge_kind_blocks, merge_sorted_blocks
from repro.sim.fastpath import ReplayArena, ReplayCarry, StreamingReplay
from repro.sim.generators import RequestGenerator, UpdateGenerator

from tests.conftest import random_catalog
from tests.sim.differential import (
    SETUPS,
    WORLDS,
    World,
    check,
    random_world,
    simulations,
    sweep,
)


class TestStreamingReplayBitIdentity:
    """Slab-split replay of one tape ≡ the reference loop."""

    @pytest.mark.parametrize("mode", ["quiet", "iid", "ge"])
    def test_chunked_replay_matches_one_shot(self, mode):
        """Six random worlds per fault family, each fed in random
        slab sizes (ragged finals included)."""
        for seed in range(6):
            sweep(seed, mode, slab=True)

    @given(seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_chunked_replay_property(self, seed):
        sweep(seed, slab=True)

    def test_carry_footprint_constant_across_slabs(self):
        """The cross-slab state is O(elements): feeding more slabs
        must not grow it."""
        world = World(random_world(50, 3), seed=9)
        times, elements, kinds = simulations(
            world, SETUPS["none"])[0].build_tape(world.horizon)
        streaming = StreamingReplay(*world.built, period_length=1.0,
                                    n_periods=world.horizon)
        baseline = streaming.carry.nbytes()
        sizes = []
        for start in range(world.periods):
            lo, hi = np.searchsorted(times, [start, start + 1.0])
            streaming.feed(times[lo:hi], elements[lo:hi],
                           kinds[lo:hi], n_periods=1.0)
            sizes.append(streaming.carry.nbytes())
        assert len(sizes) >= 3
        assert all(size == baseline for size in sizes), sizes
        streaming.finish()


def _simulation(n: int, catalog_seed: int, setup: str = "none",
                **world):
    world = World(random_world(n, catalog_seed), request_rate=60.0,
                  **world)
    return simulations(world, SETUPS[setup])[0]


class TestChunkedRun:
    """``Simulation.run(chunk_periods=K)`` end to end."""

    #: Fault mode → harness setup row: dedicated or shared fault rng.
    _SETUPS = {"quiet": "none", "iid": "iid_dedicated", "ge": "ge_trace",
               "shared_iid": "iid_trace", "shared_ge": "ge_shared",
               "seedless": "iid_trace"}

    @pytest.mark.parametrize("mode", ["quiet", "iid", "ge", "shared_iid",
                                      "shared_ge", "seedless"])
    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_chunked_run_deterministic(self, mode, chunk):
        """``run(H, chunk_periods=K)`` is determined by the seed and
        the horizon alone: generation is keyed per period, so every
        K — one period, two, and the whole horizon (3 = ⌈H⌉ for both
        the ragged H=2.5 and the whole H=3.0) — gives the K=1 run bit
        for bit, whichever rng the faults draw from (a seedless
        workload rng derives its per-period children by drawing).
        K=1 against itself checks that two same-seed runs agree."""
        for name in ("streamed", "streamed_h3"):
            world = dataclasses.replace(WORLDS[name],
                                        seedless=mode == "seedless")
            check(world, self._SETUPS[mode], routes=(f"chunk{chunk}",))

    @pytest.mark.parametrize("mode", ["quiet", "iid"])
    def test_chunked_run_statistically_matches_one_shot(self, mode):
        """Chunked generation draws per-period spawn children, so
        streams differ bitwise from one-shot — but schedules are
        deterministic (n_syncs exact) and the Poisson workloads must
        agree within sampling error."""
        setup = "none" if mode == "quiet" else "iid_dedicated"
        one_shot = _simulation(2000, 8, setup, seed=17).run(4.0)
        chunked = _simulation(2000, 8, setup, seed=17).run(
            4.0, chunk_periods=1)
        assert chunked.n_syncs == one_shot.n_syncs
        for attr in ("n_updates", "n_accesses"):
            a = getattr(one_shot, attr)
            b = getattr(chunked, attr)
            sigma = np.sqrt(max(a, 1.0))
            assert abs(a - b) < 6.0 * sigma, (attr, a, b)
        assert abs(one_shot.monitored_perceived_freshness
                   - chunked.monitored_perceived_freshness) < 0.05

    def test_chunk_periods_validated(self):
        sim = _simulation(10, 21)
        with pytest.raises(ValidationError):
            sim.run(2.0, chunk_periods=0)
        with pytest.raises(ValidationError):
            sim.run(2.0, chunk_periods=1.5)
        with pytest.raises(ValidationError):
            sim.run(2.0, engine="reference", chunk_periods=1)
        bursty = _simulation(10, 21, bursty=True)
        with pytest.raises(ValidationError, match="draw_window_sorted"):
            bursty.run(2.0, chunk_periods=1)

    def test_oversized_slab_names_the_chunk_that_fits(self,
                                                     monkeypatch):
        """A slab past the kernel's int32 limit fails with a typed
        error naming the events per period and the largest
        ``chunk_periods`` that fits — and that chunk size runs."""
        monkeypatch.setattr(fastpath, "_SLAB_EVENT_LIMIT", 1000)
        with pytest.raises(SimulationError,
                           match=r"events per period.*chunk_periods=(\d+)"
                           ) as raised:
            _simulation(50, 4, "iid_dedicated", seed=3).run(6.0)
        fits = int(re.search(r"chunk_periods=(\d+)",
                             str(raised.value)).group(1))
        assert 1 <= fits < 6
        _simulation(50, 4, "iid_dedicated", seed=3).run(
            6.0, chunk_periods=fits)
        monkeypatch.setattr(fastpath, "_SLAB_EVENT_LIMIT", 10)
        with pytest.raises(SimulationError, match="even one period"):
            _simulation(50, 4, seed=3).run(6.0, chunk_periods=1)


class TestEventsBetween:
    def test_windows_partition_the_horizon(self):
        """Adjacent ``events_between`` windows must reproduce
        ``events_until`` exactly — same times, same elements, no
        event duplicated or dropped at a boundary."""
        rng = np.random.default_rng(2)
        for trial in range(20):
            n = int(rng.integers(2, 40))
            frequencies = rng.uniform(0.0, 5.0, n)
            schedule = SyncSchedule.from_frequencies(
                frequencies, period_length=1.0)
            horizon = float(rng.choice([2.0, 3.5, 5.0]))
            full_times, full_elements = schedule.events_until(horizon)
            cuts = np.sort(rng.uniform(0.0, horizon,
                                       int(rng.integers(1, 5))))
            bounds = [0.0, *cuts.tolist(), horizon]
            times_parts, element_parts = [], []
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                if hi <= lo:
                    continue
                t, e = schedule.events_between(lo, hi)
                times_parts.append(t)
                element_parts.append(e)
            times = np.concatenate(times_parts)
            elements = np.concatenate(element_parts)
            assert times.tobytes() == full_times.tobytes(), trial
            assert np.array_equal(elements, full_elements), trial


class TestStableTimeArgsort:
    """The bucketed radix sort must equal a direct stable argsort."""

    def direct(self, times):
        return np.argsort(times, kind="stable")

    def test_small_inputs_fall_through(self):
        rng = np.random.default_rng(0)
        times = rng.uniform(0.0, 10.0, 1000)
        assert np.array_equal(events_mod._stable_time_argsort(times),
                              self.direct(times))

    def test_large_random_and_tie_heavy(self):
        rng = np.random.default_rng(1)
        big = events_mod._BUCKET_SORT_MIN + 1017
        smooth = rng.uniform(0.0, 4.0, big)
        ties = rng.integers(0, 50, big).astype(float) / 16.0
        for times in (smooth, ties):
            assert np.array_equal(
                events_mod._stable_time_argsort(times),
                self.direct(times))

    def test_degenerate_all_equal(self):
        times = np.full(events_mod._BUCKET_SORT_MIN + 3, 2.5)
        assert np.array_equal(events_mod._stable_time_argsort(times),
                              np.arange(times.shape[0]))

    def test_nonfinite_falls_back(self):
        rng = np.random.default_rng(4)
        times = rng.uniform(0.0, 1.0, events_mod._BUCKET_SORT_MIN + 5)
        times[::1000] = np.inf
        assert np.array_equal(events_mod._stable_time_argsort(times),
                              self.direct(times))


def _searchsorted_merge(update_times, update_elements, sync_times,
                       sync_elements, access_times, access_elements):
    """The position-arithmetic merge ``merge_sorted_blocks`` replaced,
    kept as an oracle: each event's slot is its own stream rank plus
    the events of the other two streams that apply before it."""
    slots = (np.arange(update_times.size)
             + np.searchsorted(sync_times, update_times, "left")
             + np.searchsorted(access_times, update_times, "left"),
             np.arange(sync_times.size)
             + np.searchsorted(update_times, sync_times, "right")
             + np.searchsorted(access_times, sync_times, "left"),
             np.arange(access_times.size)
             + np.searchsorted(update_times, access_times, "right")
             + np.searchsorted(sync_times, access_times, "right"))
    total = update_times.size + sync_times.size + access_times.size
    times = np.empty(total)
    elements = np.empty(total, dtype=np.int32)
    kinds = np.empty(total, dtype=np.int8)
    streams = ((update_times, update_elements),
               (sync_times, sync_elements),
               (access_times, access_elements))
    for kind, (slot, (t, e)) in enumerate(zip(slots, streams)):
        times[slot], elements[slot], kinds[slot] = t, e, kind
    return times, elements, kinds


class TestMergeSortedBlocks:
    def test_matches_merge_kind_blocks(self):
        """The run-merging sort of three pre-sorted streams ≡ the
        argsort merge ≡ the searchsorted merge, across tie-heavy
        random tapes: grid times force cross-kind ties (the update <
        sync < access priority) and within-kind duplicate times, and
        each stream in turn is left empty."""
        rng = np.random.default_rng(6)
        for trial in range(240):
            n = int(rng.integers(2, 20))

            def stream(count):
                times = np.sort(
                    rng.integers(0, 12, count).astype(float) / 4.0)
                elements = rng.integers(0, n, count)
                return times, elements.astype(np.int64)

            streams = [stream(int(rng.integers(1, 30)))
                       for _ in range(3)]
            if trial % 4 < 3:
                streams[trial % 4] = stream(0)
            blocks = [array for pair in streams for array in pair]
            got = merge_sorted_blocks(*blocks, n_elements=n)
            for want in (merge_kind_blocks(*blocks, n_elements=n),
                         _searchsorted_merge(*blocks)):
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype, trial
                    assert np.array_equal(a, b), trial


class TestSortedDraws:
    """``draw_window_sorted`` is exactly distributed, pre-ordered."""

    def world(self, n=300):
        rng = np.random.default_rng(12)
        return random_catalog(rng, n)

    def test_update_draws_sorted_and_in_range(self):
        catalog = self.world()
        generator = UpdateGenerator(
            catalog, rng=np.random.default_rng(0))
        times, elements = generator.draw_window_sorted(2.0, 5.0)
        assert np.all(np.diff(times) >= 0.0)
        assert times.min() >= 2.0 and times.max() < 5.0
        assert elements.shape == times.shape

    def test_update_counts_match_poisson_rates(self):
        """Per-element totals over many windows are Poisson with the
        catalog rate: every element's count must sit within 6σ."""
        catalog = self.world(n=40)
        generator = UpdateGenerator(
            catalog, rng=np.random.default_rng(1))
        counts = np.zeros(40)
        windows = 200
        for _ in range(windows):
            _, elements = generator.draw_window_sorted(0.0, 1.0)
            counts += np.bincount(elements, minlength=40)
        mean = catalog.change_rates * windows
        z = (counts - mean) / np.sqrt(mean)
        assert np.abs(z).max() < 6.0, z

    def test_request_draws_follow_profile(self):
        catalog = self.world(n=30)
        generator = RequestGenerator(
            catalog, rate=500.0, rng=np.random.default_rng(2))
        counts = np.zeros(30)
        windows = 40
        for _ in range(windows):
            times, elements = generator.draw_window_sorted(0.0, 1.0)
            assert np.all(np.diff(times) >= 0.0)
            counts += np.bincount(elements, minlength=30)
        total = counts.sum()
        expected = catalog.access_probabilities * total
        z = (counts - expected) / np.sqrt(np.maximum(expected, 1.0))
        assert np.abs(z).max() < 6.0, z

    def test_time_instants_are_uniform(self):
        """Arrival instants from exponential spacings must be
        uniform over the window (first two moments within 6σ)."""
        generator = UpdateGenerator(
            self.world(), rng=np.random.default_rng(3))
        times, _ = generator.draw_window_sorted(0.0, 1.0)
        for _ in range(30):
            more, _ = generator.draw_window_sorted(0.0, 1.0)
            times = np.concatenate([times, more])
        count = times.shape[0]
        assert abs(times.mean() - 0.5) < 6.0 * np.sqrt(
            1.0 / 12.0 / count)
        assert abs(times.var() - 1.0 / 12.0) < 0.01


class TestArenaReuse:
    def test_no_growth_across_steady_windows(self):
        """Repeated same-length windows reuse the arena scratch: the
        footprint may step up while Poisson window sizes explore
        their range (geometric doubling, not per-window creep) and
        must then sit flat — the last three of a dozen windows all
        see an unchanged arena."""
        catalog = random_catalog(np.random.default_rng(7), 200)
        generator = UpdateGenerator(
            catalog, rng=np.random.default_rng(7))
        requests = RequestGenerator(
            catalog, rate=300.0, rng=np.random.default_rng(8))
        arena = ReplayArena()
        footprints = []
        for start in range(12):
            generator.draw_window_sorted(float(start),
                                         float(start + 1),
                                         arena=arena)
            requests.draw_window_sorted(float(start),
                                        float(start + 1),
                                        arena=arena)
            footprints.append(arena.nbytes())
        assert footprints == sorted(footprints), footprints
        assert len(set(footprints[-3:])) == 1, footprints
        # Doubling keeps total distinct sizes logarithmic: a dozen
        # windows must not have re-sized a dozen times.
        assert len(set(footprints)) <= 4, footprints

    def test_geometric_growth_path(self):
        """An outgrown slot doubles instead of creeping: repeated
        +1 requests must not reallocate every call."""
        arena = ReplayArena()
        arena.take("slot", 100, np.int64)
        first = arena.nbytes()
        arena.take("slot", 101, np.int64)
        doubled = arena.nbytes()
        assert doubled == 2 * first
        for size in range(102, 200):
            arena.take("slot", size, np.int64)
        assert arena.nbytes() == doubled

    def test_carry_nbytes_tracks_elements_only(self):
        small = ReplayCarry.start(100)
        large = ReplayCarry.start(1000)
        assert large.nbytes() == 10 * small.nbytes()
