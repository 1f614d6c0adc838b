"""The differential harness's comparator sees everything it claims to.

Each case perturbs one part of an observation by the smallest amount
that part can differ — one ulp, one dtype, one event field, one
ledger stamp, one rng draw — and :func:`assert_same` must reject it,
so no compared part can silently go vacuous.
"""

from __future__ import annotations

import dataclasses
import pickle

import numpy as np
import pytest

from tests.sim.differential import SETUPS, WORLDS, assert_same, runs


def _result(field, change):
    def mutate(observation):
        result = observation.results[0]
        observation.results[0] = dataclasses.replace(
            result, **{field: change(getattr(result, field))})
    return mutate


def _next_draw(observation):
    state = pickle.loads(observation.states[-1])
    generator = np.random.Generator(np.random.PCG64())
    generator.bit_generator.state = state
    generator.random()
    observation.states[-1] = pickle.dumps(generator.bit_generator.state)


@pytest.mark.parametrize("mutate", [
    _result("bandwidth_used", lambda x: np.nextafter(x, np.inf)),
    _result("access_counts", lambda a: a.astype(np.int32)),
    _result("fault_trace", lambda trace: trace[:-1]),
    lambda o: o.events[0].update(period=o.events[0]["period"] + 1),
    lambda o: o.counters.update({"sim.syncs": o.counters["sim.syncs"] + 1}),
    lambda o: o.gauges.update({name: np.nextafter(value, np.inf)
                               for name, value in list(o.gauges.items())[:1]}),
    lambda o: o.ledger.record_refresh(0, 1e9),
    _next_draw,
    lambda o: o.chains.__setitem__(
        0, bytes([o.chains[0][0] ^ 1]) + o.chains[0][1:]),
], ids=["ulp", "dtype", "trace", "event", "counter", "gauge", "ledger",
        "rng", "chain"])
def test_comparator_rejects_one_change(mutate):
    world, setup = WORLDS["h4.5"], SETUPS["ge_trace"]
    want, got = runs(world, setup), runs(world, setup)
    assert_same(got, want)
    mutate(got)
    with pytest.raises(AssertionError):
        assert_same(got, want)
