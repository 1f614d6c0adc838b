"""Tests for the simulator components: events, source, mirror."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError, ValidationError
from repro.sim.events import EventKind, merge_kind_blocks, merge_sorted_blocks
from repro.sim.mirror import Mirror
from repro.sim.source import Source


class TestMergeStreams:
    """Per-kind streams merge into one tape (``merge_kind_blocks``)."""

    @staticmethod
    def merge(updates=(), syncs=(), accesses=()):
        """Merge ``(times, elements)`` pairs, one per kind."""
        blocks = []
        for block in (updates, syncs, accesses):
            times, elements = block if block else ([], [])
            blocks += [np.array(times, dtype=float),
                       np.array(elements, dtype=np.int64)]
        return merge_kind_blocks(*blocks, n_elements=4)

    def test_time_ordering(self):
        times, elements, kinds = self.merge(updates=([2.0, 0.5], [0, 0]),
                                            syncs=([1.0], [0]))
        assert times.tolist() == [0.5, 1.0, 2.0]
        assert kinds.tolist() == [0, 1, 0]

    def test_tie_break_update_sync_access(self):
        times, _, kinds = self.merge(updates=([1.0], [0]),
                                     syncs=([1.0], [0]),
                                     accesses=([1.0], [0]))
        assert kinds.tolist() == [int(EventKind.UPDATE),
                                  int(EventKind.SYNC),
                                  int(EventKind.ACCESS)]

    def test_empty_input(self):
        times, elements, kinds = self.merge()
        assert times.size == 0
        assert elements.size == 0
        assert kinds.size == 0

    @pytest.mark.parametrize("merge", [merge_kind_blocks,
                                       merge_sorted_blocks])
    def test_rejects_ids_past_int32(self, merge):
        empty = (np.empty(0), np.empty(0, dtype=np.int64))
        with pytest.raises(ValidationError, match="int32"):
            merge(*empty, *empty, *empty,
                  n_elements=int(np.iinfo(np.int32).max))


class TestMergeKindBlocksAtScale:
    """``merge_kind_blocks`` on an update block of 171 072 times."""

    def test_raw_tie_heavy_updates(self):
        """Raw update times on a coarse grid, so most instants are
        shared within and across kinds; the tape must equal one stable
        argsort over the kind-ordered concatenation."""
        rng = np.random.default_rng(17)
        n_updates = 171_072
        grid = 1.0 / 4096
        update_times = rng.integers(0, 4096, n_updates) * grid
        update_elements = rng.integers(0, 3_000, n_updates)
        sync_times = np.sort(rng.integers(0, 4096, 50_000)) * grid
        sync_elements = rng.integers(0, 3_000, 50_000)
        access_times = np.sort(rng.integers(0, 4096, 60_000)) * grid
        access_elements = rng.integers(0, 3_000, 60_000)
        times, elements, kinds = merge_kind_blocks(
            update_times, update_elements, sync_times, sync_elements,
            access_times, access_elements, n_elements=3_000)
        all_times = np.concatenate((update_times, sync_times,
                                    access_times))
        order = np.argsort(all_times, kind="stable")
        assert np.array_equal(times, all_times[order])
        assert np.array_equal(elements, np.concatenate(
            (update_elements, sync_elements, access_elements))[order])
        assert np.array_equal(kinds, np.repeat(
            np.array([EventKind.UPDATE, EventKind.SYNC, EventKind.ACCESS],
                     dtype=np.int8), [n_updates, 50_000, 60_000])[order])
        assert elements.dtype == np.int32 and kinds.dtype == np.int8


class TestSource:
    def test_updates_bump_versions(self):
        source = Source(3)
        assert source.version_of(1) == 0
        assert source.apply_update(1) == 1
        assert source.apply_update(1) == 2
        assert source.version_of(0) == 0
        assert source.total_updates == 2

    def test_rejects_bad_element(self):
        source = Source(2)
        with pytest.raises(SimulationError):
            source.apply_update(2)
        with pytest.raises(SimulationError):
            source.version_of(-1)

    def test_rejects_empty(self):
        with pytest.raises(SimulationError):
            Source(0)

    def test_versions_snapshot_readonly(self):
        source = Source(2)
        snapshot = source.versions()
        with pytest.raises(ValueError):
            snapshot[0] = 5


class TestMirror:
    def test_starts_fresh(self):
        source = Source(3)
        mirror = Mirror(source)
        assert all(mirror.is_fresh(e) for e in range(3))
        assert mirror.freshness_vector().tolist() == [1.0, 1.0, 1.0]

    def test_update_makes_stale_sync_restores(self):
        source = Source(2)
        mirror = Mirror(source)
        source.apply_update(0)
        assert not mirror.is_fresh(0)
        assert mirror.is_fresh(1)
        changed = mirror.sync(0)
        assert changed
        assert mirror.is_fresh(0)

    def test_wasted_sync_detected(self):
        source = Source(1)
        mirror = Mirror(source)
        assert mirror.sync(0) is False  # nothing had changed

    def test_serve_access_reports_freshness(self):
        source = Source(1)
        mirror = Mirror(source)
        assert mirror.serve_access(0)
        source.apply_update(0)
        assert not mirror.serve_access(0)

    def test_bandwidth_accounting_with_sizes(self):
        source = Source(2)
        mirror = Mirror(source, sizes=np.array([2.0, 0.5]))
        mirror.sync(0)
        mirror.sync(1)
        mirror.sync(1)
        assert mirror.total_syncs == 3
        assert mirror.bandwidth_used == pytest.approx(3.0)

    def test_rejects_bad_sizes(self):
        source = Source(2)
        with pytest.raises(SimulationError):
            Mirror(source, sizes=np.array([1.0]))
        with pytest.raises(SimulationError):
            Mirror(source, sizes=np.array([1.0, 0.0]))

    def test_sync_catches_multiple_updates_at_once(self):
        source = Source(1)
        mirror = Mirror(source)
        for _ in range(5):
            source.apply_update(0)
        mirror.sync(0)
        assert mirror.is_fresh(0)
