"""The replay kernel's sort and scan primitives against their direct
definitions.

Every tier-1 catalog has fewer than 2¹⁶ elements, so the radix group
sort's high-half pass only ever sorts zeros there; these cases give it
real keys.  The Gilbert–Elliott scan stops after enough rounds to
cover the longest element run, so its cases sit on both sides of each
power of two.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.fastpath import _ge_scan_states, _stable_element_argsort

_ID_MAX = 2 ** 31 - 1
#: Ids on both sides of the uint16 split, and the extremes.
_EDGES = [0, 1, 0xFFFF, 0x10000, 0x10001, 0x1FFFF, 0x7FFF0000,
          _ID_MAX]
_IDS = st.one_of(st.integers(0, _ID_MAX),
                 st.integers(0x10000 - 4, 0x10000 + 4),
                 st.sampled_from(_EDGES))


@st.composite
def element_ids(draw) -> np.ndarray:
    """Ids drawn mostly from a small palette, so duplicates abound."""
    palette = draw(st.lists(_IDS, min_size=1, max_size=6))
    values = draw(st.lists(st.one_of(st.sampled_from(palette), _IDS),
                           max_size=300))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    return np.array(values, dtype=dtype)


class TestStableElementArgsort:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(element_ids())
    def test_equals_stable_argsort(self, ids):
        assert np.array_equal(_stable_element_argsort(ids),
                              np.argsort(ids, kind="stable"))

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("values", [[], [0x12345]])
    def test_empty_and_single(self, dtype, values):
        ids = np.array(values, dtype=dtype)
        assert np.array_equal(_stable_element_argsort(ids),
                              np.arange(len(values)))

    def test_large_tie_heavy(self):
        rng = np.random.default_rng(3)
        ids = np.concatenate([rng.integers(0, _ID_MAX, 40_000),
                              rng.integers(65_000, 70_000, 60_000)])
        ids = rng.permutation(ids).astype(np.int32)
        assert np.array_equal(_stable_element_argsort(ids),
                              np.argsort(ids, kind="stable"))


def _chain_walk(sync_elements, flip_good, flip_bad, initial_bad):
    """The sequential per-sync walk the scan replaces."""
    bad = initial_bad.copy()
    state_after = np.empty(sync_elements.shape[0], dtype=bool)
    for i, element in enumerate(sync_elements.tolist()):
        draw = 2 * i
        bad[element] = (not flip_bad[draw] if bad[element]
                        else bool(flip_good[draw]))
        state_after[i] = bad[element]
    return state_after, bad


#: Transition thresholds ``(p_good_to_bad, p_bad_to_good)``.  Equal
#: ones make every per-sync function the identity or a negation, so
#: any composition the scan skipped shows; unequal ones mix in the
#: constant functions.
_THRESHOLDS = [(0.5, 0.5), (0.05, 0.4), (0.3, 0.9)]


def _check_scan(sync_elements, n_elements, rng, trial):
    m = sync_elements.shape[0]
    # Flags from one pool, as the resolver draws them.
    pool = rng.random(2 * m + 2)
    p_good_to_bad, p_bad_to_good = _THRESHOLDS[trial % 3]
    flip_good = pool < p_good_to_bad
    flip_bad = pool < p_bad_to_good
    initial_bad = rng.random(n_elements) < 0.5
    order, sorted_after, final_bad = _ge_scan_states(
        sync_elements, flip_good, flip_bad, initial_bad)
    want_after, want_final = _chain_walk(sync_elements, flip_good,
                                         flip_bad, initial_bad)
    assert np.array_equal(order, np.argsort(sync_elements, kind="stable"))
    state_after = np.empty(m, dtype=bool)
    state_after[order] = sorted_after
    assert np.array_equal(state_after, want_after)
    assert np.array_equal(final_bad, want_final)


class TestGEScanRounds:
    """The scan equals the sequential chain walk for every run length
    around the round bound ⌈log₂ longest⌉."""

    @pytest.mark.parametrize("longest", [1, 2, 3, 4, 5, 8, 9, 17])
    def test_mixed_runs(self, longest):
        rng = np.random.default_rng(longest)
        for trial in range(30):
            # One element per run length up to `longest`, interleaved
            # in tape order, ids past the uint16 split included.
            ids = rng.choice(70_000, size=longest, replace=False)
            runs = np.repeat(ids, np.arange(1, longest + 1))
            _check_scan(rng.permutation(runs).astype(np.int32), 70_000,
                        rng, trial)

    @pytest.mark.parametrize("longest", [1, 2, 3, 4, 5, 8, 9, 17])
    def test_one_element_batch(self, longest):
        rng = np.random.default_rng(100 + longest)
        for trial in range(30):
            _check_scan(np.full(longest, 3, dtype=np.int32), 5, rng,
                        trial)
