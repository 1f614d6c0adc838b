"""The documented public API must exist and compose end to end."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro


class TestExports:
    def test_version(self):
        assert repro.__version__

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    def test_error_hierarchy(self):
        assert issubclass(repro.ValidationError, repro.ReproError)
        assert issubclass(repro.ValidationError, ValueError)
        assert issubclass(repro.SimulationError, repro.ReproError)
        assert issubclass(repro.ConvergenceError, repro.ReproError)


class TestImportHygiene:
    #: Loaded only by the sink transports and the process pool, which
    #: no plan or simulation needs.
    LAZY = ("urllib.request", "http.client", "ssl", "socket",
            "multiprocessing", "concurrent.futures.process")

    def test_import_loads_no_network_or_process_pool(self):
        source = Path(repro.__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(source), env.get("PYTHONPATH", "")])
        probe = ("import sys, repro, repro.cli; "
                 f"print(sorted(set({self.LAZY!r}) & set(sys.modules)))")
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"


class TestQuickstartPath:
    """The README quickstart, as a test."""

    def test_plan_and_simulate(self):
        catalog = repro.Catalog(
            access_probabilities=np.array([0.6, 0.3, 0.1]),
            change_rates=np.array([5.0, 1.0, 0.2]),
        )
        plan = repro.PerceivedFreshener().plan(catalog, bandwidth=3.0)
        assert plan.frequencies.shape == (3,)
        assert plan.bandwidth == pytest.approx(3.0, rel=1e-8)
        assert 0.0 < plan.perceived_freshness < 1.0

        sim = repro.Simulation(catalog, plan.frequencies,
                               request_rate=200.0,
                               rng=np.random.default_rng(0))
        result = sim.run(n_periods=20)
        analytic_pf, _ = result.analytic()
        assert result.monitored_time_perceived == pytest.approx(
            analytic_pf, abs=0.05)

    def test_scalable_path(self):
        catalog = repro.build_catalog(repro.IDEAL_SETUP, seed=0)
        heuristic = repro.PartitionedFreshener(
            50, cluster_iterations=3).plan(catalog, 250.0)
        optimal = repro.PerceivedFreshener().plan(catalog, 250.0)
        assert heuristic.perceived_freshness <= \
            optimal.perceived_freshness + 1e-8
        assert heuristic.perceived_freshness > \
            0.9 * optimal.perceived_freshness

    def test_profile_aggregation_path(self):
        day_trader = repro.UserProfile.from_weights(
            np.array([10.0, 1.0, 1.0]), importance=2.0)
        casual = repro.UserProfile.from_weights(np.array([1.0, 1.0, 1.0]))
        master = repro.aggregate_profiles([day_trader, casual])
        catalog = repro.Catalog(
            access_probabilities=master.probabilities,
            change_rates=np.array([4.0, 1.0, 0.5]))
        plan = repro.PerceivedFreshener().plan(catalog, 2.0)
        # The day-trader-dominated element gets the most bandwidth.
        assert plan.frequencies[0] == plan.frequencies.max()
