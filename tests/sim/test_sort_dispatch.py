"""Hot-path sorts give the same bits under every numpy SIMD dispatch.

numpy picks its sort kernels per CPU (AVX-512, AVX2 or the baseline),
so a sort whose tie order depended on the kernel would make replays
differ between hosts — the hazard FL015 exists for.  The stable sorts
of :mod:`repro.numerics.sorting` sort unique keys, which have one
answer.  This runs them, the tape merge and two replay-kernel slabs
(kind-ordered, a tenth of their syncs dropped as failed) on fixed seeded
inputs in-process, then again in a subprocess with the AVX-512 and
AVX2 sort kernels disabled, and compares digests.  A second slab
replays through the carry the first left, and the two slabs must
equal one slab holding both.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.numerics.sorting import (
    stable_element_sort,
    stable_grouped_time_sort,
    stable_time_sort,
)
from repro.sim.events import EventKind, kind_ordered, merge_kind_blocks
from repro.sim.fastpath import ReplayCarry, _replay_tape_chunk

#: numpy's name for each dispatch level above x86-64-v2.
_DISABLED = "AVX512_ICL AVX512_SPR X86_V4 X86_V3"
_ROOT = Path(__file__).resolve().parents[2]


def _digest(*arrays) -> str:
    hasher = hashlib.sha256()
    for array in arrays:
        hasher.update(np.ascontiguousarray(array).tobytes())
    return hasher.hexdigest()


def dispatch_digests() -> dict[str, str]:
    """Digests of the sorts, the merge and one replay slab."""
    rng = np.random.default_rng(2027)
    n_elements = 50_000
    ids = rng.integers(0, 2 ** 31, 200_000)
    ids[::3] = rng.integers(0, 40, ids[::3].shape[0])
    times = rng.uniform(0.0, 1e6, 300_000)
    # Ulp-spaced times share key buckets, so the local repair runs.
    times[::2] = 5e5 + np.spacing(5e5) * rng.integers(0, 9_000, 150_000)

    blocks = _blocks(rng, n_elements, 0.0)
    tape = merge_kind_blocks(*blocks, n_elements=n_elements)
    groups = (ids % 2_000).astype(np.int32)
    sizes = rng.uniform(0.5, 2.0, n_elements)
    slabs = [_failed_syncs(rng, kind_ordered(*blocks,
                                             n_elements=n_elements)),
             _failed_syncs(rng, kind_ordered(*_blocks(rng, n_elements, 3.0),
                                             n_elements=n_elements))]
    digests = {
        "element_sort": _digest(*stable_element_sort(ids)),
        "time_sort": _digest(*stable_time_sort(times)),
        "grouped_sort": _digest(*stable_grouped_time_sort(
            groups, times[:groups.shape[0]], n_groups=2_000,
            drop=np.arange(0, groups.shape[0], 7))),
        "merge": _digest(*tape),
    }
    # The second slab runs through the carry the first left: the
    # carried seeds and the first-increment folds.
    carry = ReplayCarry.start(n_elements)
    for name, slab in zip(("replay", "replay_carried"), slabs):
        digests[name] = _replay_digest(carry, sizes, *slab)
    return digests


def _blocks(rng: np.random.Generator, n_elements: int, start: float):
    """One kind-ordered slab's blocks over ``[start, start + 3)``."""
    update_times = rng.uniform(start, start + 3.0, 150_000)
    update_elements = rng.integers(0, n_elements, 150_000)
    sync_times = start + np.sort(rng.integers(0, 3_000, 60_000) / 1_000.0)
    sync_elements = rng.integers(0, n_elements, 60_000)
    access_times = np.sort(rng.uniform(start, start + 3.0, 80_000))
    access_elements = rng.integers(0, n_elements, 80_000)
    return (update_times, update_elements, sync_times, sync_elements,
            access_times, access_elements)


def _failed_syncs(rng: np.random.Generator, slab):
    """The slab with a tenth of its syncs failed: ``(times, elements,
    kinds, failed, kept_syncs)``."""
    syncs = np.flatnonzero(slab[2] == int(EventKind.SYNC))
    failed = rng.random(syncs.shape[0]) < 0.1
    return (*slab, syncs[failed], syncs[~failed])


def _replay_digest(carry: ReplayCarry, sizes: np.ndarray, times, elements,
                   kinds, failed, kept_syncs) -> str:
    """Replay one slab into ``carry``; digest the flag and the carry."""
    fresh_before = _replay_tape_chunk(
        carry, sizes, times, elements, kinds, failed=failed,
        kept_syncs=kept_syncs, tape_fresh=True)
    return _digest(
        fresh_before, carry.fresh, carry.stale_since, carry.last_time,
        carry.fresh_time, carry.age_integral, carry.poll_counts,
        carry.changed_poll_counts, carry.access_counts,
        np.array([carry.n_updates, carry.fresh_accesses]),
        np.array([carry.bandwidth_used]))


def test_sorts_merge_and_replay_ignore_the_simd_dispatch():
    env = dict(os.environ)
    env["NPY_DISABLE_CPU_FEATURES"] = _DISABLED
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_ROOT / "src"), str(_ROOT), env.get("PYTHONPATH", "")])
    probe = ("import json; from tests.sim.test_sort_dispatch import "
             "dispatch_digests; print(json.dumps(dispatch_digests()))")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            cwd=_ROOT, capture_output=True, text=True)
    if result.returncode and "NPY_DISABLE_CPU_FEATURES" in result.stderr:
        pytest.skip("numpy refuses NPY_DISABLE_CPU_FEATURES here: "
                    + result.stderr.strip().splitlines()[-1])
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == dispatch_digests()


def test_two_carried_slabs_equal_one_slab():
    """Slab by slab through one carry is bit-identical to one slab
    holding both: the carried fresh flag, stale-run start and clock
    seed the second slab, and its folds continue the carried sums."""
    rng = np.random.default_rng(2029)
    n_elements = 20_000
    sizes = rng.uniform(0.5, 2.0, n_elements)
    slabs = [_failed_syncs(rng, kind_ordered(
        *_blocks(rng, n_elements, start), n_elements=n_elements))
        for start in (0.0, 3.0)]
    carried = ReplayCarry.start(n_elements)
    flags = [_replay_tape_chunk(carried, sizes, *slab[:3], failed=slab[3],
                                kept_syncs=slab[4], tape_fresh=True)
             for slab in slabs]
    first, second = slabs
    offset = first[0].shape[0]
    whole = ReplayCarry.start(n_elements)
    flag = _replay_tape_chunk(
        whole, sizes, *(np.concatenate((a, b))
                        for a, b in zip(first[:3], second[:3])),
        failed=np.concatenate((first[3], second[3] + offset)),
        kept_syncs=np.concatenate((first[4], second[4] + offset)),
        tape_fresh=True)
    assert np.concatenate(flags).tobytes() == flag.tobytes()
    assert carried.fresh_time.max() > 0.0 < carried.age_integral.max()
    for field in dataclasses.fields(ReplayCarry):
        got, want = (getattr(carry, field.name) for carry in (carried,
                                                              whole))
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), \
            field.name
