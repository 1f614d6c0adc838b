"""The chaos harness: named outage scenarios, blind vs degraded.

``repro chaos`` answers the robustness question the fault subsystem
exists for: *when the sync path degrades, how much perceived
freshness does application-aware replanning buy back?*  For one
:class:`~repro.faults.scenarios.ChaosScenario` it runs three
managers over the same hidden workload:

* **fault-free** — no faults at all; the ceiling.
* **blind** — the scenario's faults, but the manager plans as if the
  wire were perfect (``fault_aware=False``).
* **degraded** — the same faults, with loss-derated bandwidth,
  outage replanning and heartbeat probes (``fault_aware=True``).

All three arms share the workload seed, so the per-period PF series
line up and the report reads as degradation (ceiling − blind) and
recovery (degraded − blind).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.analysis.tables import format_table
from repro.core.selection import SpaceConstrainedFreshener
from repro.errors import ValidationError
from repro.faults.scenarios import CHAOS_SCENARIOS, ChaosScenario
from repro.obs import registry as obs
from repro.parallel import parallel_map, seed_rng
from repro.runtime.manager import AdaptiveMirrorManager, PeriodReport
from repro.workloads.catalog import Catalog
from repro.workloads.presets import ExperimentSetup, build_catalog

__all__ = ["CHAOS_SETUP", "ChaosReport", "chaos_report_to_dict",
           "format_chaos_report", "run_chaos"]

#: Default workload for chaos runs: small enough that a full
#: three-arm scenario finishes in seconds, busy enough (update rate
#: well above B) that lost bandwidth shows up in PF, and skewed
#: enough (theta=1.4) that the blind manager's late-period dead zone
#: — the ledger saturates ~1/(1−loss) of the way through each period
#: and every later poll is denied — lands on hot, fast-changing
#: elements instead of averaging out.
CHAOS_SETUP = ExperimentSetup(n_objects=60, updates_per_period=180.0,
                              syncs_per_period=80.0, theta=1.4,
                              update_std_dev=1.0)


@dataclass(frozen=True)
class ChaosReport:
    """Three aligned PF series and their summary statistics.

    Attributes:
        scenario: The scenario that was run.
        n_periods: Periods simulated per arm.
        warmup: Leading periods excluded from the means (both
            managers start belief-blind, so early periods measure
            learning, not resilience).
        baseline_pf: Per-period monitored PF of the fault-free arm.
        blind_pf: Per-period monitored PF of the fault-blind arm.
        aware_pf: Per-period monitored PF of the degraded-mode arm.
        blind_failed: Failed wire attempts per period, blind arm.
        aware_failed: Failed wire attempts per period, degraded arm.
        blind_retries: Retries per period, blind arm.
        aware_retries: Retries per period, degraded arm.
        blind_suppressed: Retries refused by the shared herding
            admission gate per period, blind arm (all-zero when the
            scenario carries no gate).
        aware_suppressed: Gate-suppressed retries per period,
            degraded arm.
    """

    scenario: ChaosScenario
    n_periods: int
    warmup: int
    baseline_pf: np.ndarray
    blind_pf: np.ndarray
    aware_pf: np.ndarray
    blind_failed: np.ndarray
    aware_failed: np.ndarray
    blind_retries: np.ndarray
    aware_retries: np.ndarray
    blind_suppressed: np.ndarray
    aware_suppressed: np.ndarray

    def _steady(self, series: np.ndarray) -> float:
        return float(series[self.warmup:].mean())

    @property
    def baseline_mean(self) -> float:
        """Post-warmup mean PF with no faults (the ceiling)."""
        return self._steady(self.baseline_pf)

    @property
    def blind_mean(self) -> float:
        """Post-warmup mean PF of the fault-blind manager."""
        return self._steady(self.blind_pf)

    @property
    def aware_mean(self) -> float:
        """Post-warmup mean PF of the degraded-mode manager."""
        return self._steady(self.aware_pf)

    @property
    def degradation(self) -> float:
        """PF the faults cost a blind manager (ceiling − blind)."""
        return self.baseline_mean - self.blind_mean

    @property
    def recovery(self) -> float:
        """PF degraded-mode planning buys back (degraded − blind)."""
        return self.aware_mean - self.blind_mean

    @property
    def blind_suppressed_total(self) -> int:
        """Total gate-suppressed retries across the blind arm."""
        return int(self.blind_suppressed.sum())

    @property
    def aware_suppressed_total(self) -> int:
        """Total gate-suppressed retries across the degraded arm."""
        return int(self.aware_suppressed.sum())


def _run_arm(catalog: Catalog, scenario: ChaosScenario, *,
             faulty: bool,
             fault_aware: bool, bandwidth: float,
             request_rate: float, n_periods: int, seed: int,
             replan_every: int) -> list[PeriodReport]:
    """One chaos arm (module-level so ``jobs>1`` can pickle it)."""
    channel = (scenario.manager_kwargs(catalog.n_elements,
                                       float(n_periods))
               if faulty else {})
    freshener = None
    if scenario.selection_capacity_fraction is not None:
        # The §7 space-constrained path, in *every* arm (including
        # the fault-free ceiling) so the comparison isolates fault
        # handling, not planner choice.
        freshener = SpaceConstrainedFreshener(
            float(catalog.sizes.sum())
            * scenario.selection_capacity_fraction)
    manager = AdaptiveMirrorManager(
        catalog, bandwidth, request_rate=request_rate,
        rng=seed_rng(seed),
        freshener=freshener,
        fault_aware=fault_aware,
        replan_every=replan_every,
        **channel)
    return manager.run(n_periods)


def _run_arm_spec(spec: tuple[str, bool, bool],
                  catalog: Catalog, scenario: ChaosScenario, *,
                  bandwidth: float, request_rate: float,
                  n_periods: int, seed: int,
                  replan_every: int) -> list[PeriodReport]:
    """Adapt an ``(label, faulty, aware)`` spec for the executor."""
    _, faulty, aware = spec
    return _run_arm(catalog, scenario, faulty=faulty,
                    fault_aware=aware, bandwidth=bandwidth,
                    request_rate=request_rate, n_periods=n_periods,
                    seed=seed, replan_every=replan_every)


#: The three arms every chaos run compares.
_ARM_SPECS: tuple[tuple[str, bool, bool], ...] = (
    ("baseline", False, True),
    ("blind", True, False),
    ("aware", True, True),
)


def run_chaos(scenario: str | ChaosScenario, *,
              setup: ExperimentSetup | None = None,
              n_periods: int = 60, warmup: int = 10, seed: int = 0,
              request_rate: float | None = None,
              replan_every: int = 3, jobs: int = 1) -> ChaosReport:
    """Run one chaos scenario: fault-free vs blind vs degraded.

    Args:
        scenario: A :data:`CHAOS_SCENARIOS` name or a scenario.
        setup: Workload preset (:data:`CHAOS_SETUP` by default).
        n_periods: Periods per arm, > ``warmup``.
        warmup: Leading periods excluded from the summary means.
        seed: Workload seed; each arm's simulator gets the same
            derived seed so the series are paired.
        request_rate: Accesses per period (defaults to
            ``12 × n_objects`` — enough samples that per-period PF is
            a stable estimate).
        replan_every: Replan cadence handed to every manager.
        jobs: Worker processes for the three arms (1 = serial,
            bit-identical; the arms share the same derived seed
            either way, preserving the paired-series design).

    Returns:
        The :class:`ChaosReport` with the three aligned series.
    """
    if isinstance(scenario, str):
        try:
            scenario = CHAOS_SCENARIOS[scenario]
        except KeyError:
            known = ", ".join(sorted(CHAOS_SCENARIOS))
            raise ValidationError(
                f"unknown chaos scenario {scenario!r} "
                f"(known: {known})") from None
    if n_periods <= warmup:
        raise ValidationError(
            f"n_periods ({n_periods}) must exceed warmup ({warmup})")
    setup = CHAOS_SETUP if setup is None else setup
    catalog = build_catalog(setup, seed=seed)
    bandwidth = setup.syncs_per_period
    if request_rate is None:
        request_rate = 12.0 * setup.n_objects

    with obs.span(f"chaos.{scenario.name}"):
        runner = partial(_run_arm_spec, catalog=catalog,
                         scenario=scenario, bandwidth=bandwidth,
                         request_rate=request_rate,
                         n_periods=n_periods, seed=seed + 1,
                         replan_every=replan_every)
        arm_results = parallel_map(runner, _ARM_SPECS, jobs=jobs,
                                   label="parallel.chaos")
        arms = {spec[0]: result
                for spec, result in zip(_ARM_SPECS, arm_results)}

    def series(label: str, pick) -> np.ndarray:
        return np.array([pick(report) for report in arms[label]])

    report = ChaosReport(
        scenario=scenario,
        n_periods=n_periods,
        warmup=warmup,
        baseline_pf=series("baseline", lambda r: r.monitored_pf),
        blind_pf=series("blind", lambda r: r.monitored_pf),
        aware_pf=series("aware", lambda r: r.monitored_pf),
        blind_failed=series("blind", lambda r: r.failed_polls),
        aware_failed=series("aware", lambda r: r.failed_polls),
        blind_retries=series("blind", lambda r: r.retries),
        aware_retries=series("aware", lambda r: r.retries),
        blind_suppressed=series("blind",
                                lambda r: r.suppressed_retries),
        aware_suppressed=series("aware",
                                lambda r: r.suppressed_retries),
    )
    if obs.telemetry_enabled():
        obs.counter_add("chaos.runs")
        obs.gauge_set("chaos.degradation", report.degradation)
        obs.gauge_set("chaos.recovery", report.recovery)
        obs.event("chaos.report", scenario=scenario.name,
                  n_periods=n_periods,
                  baseline_pf=report.baseline_mean,
                  blind_pf=report.blind_mean,
                  aware_pf=report.aware_mean,
                  degradation=report.degradation,
                  recovery=report.recovery,
                  suppressed_retries=report.aware_suppressed_total)
    return report


def format_chaos_report(report: ChaosReport, *,
                        every: int = 1) -> str:
    """Render a chaos report as the CLI's text block.

    Args:
        report: The report to render.
        every: Print every ``every``-th period row (the summary
            always reflects all periods).

    Returns:
        A multi-line string: scenario header, per-period PF table,
        and the degradation/recovery summary.
    """
    rows = []
    for index in range(0, report.n_periods, max(every, 1)):
        rows.append((index + 1,
                     float(report.baseline_pf[index]),
                     float(report.blind_pf[index]),
                     float(report.aware_pf[index]),
                     int(report.aware_failed[index]),
                     int(report.aware_retries[index])))
    table = format_table(
        ["period", "fault-free", "blind", "degraded",
         "failed", "retries"], rows)
    lines = [
        f"chaos scenario {report.scenario.name!r} — "
        f"{report.scenario.description}",
        table,
        "",
        f"post-warmup means (periods {report.warmup + 1}-"
        f"{report.n_periods}):",
        f"  fault-free ceiling   {report.baseline_mean:.4f}",
        f"  fault-blind manager  {report.blind_mean:.4f}",
        f"  degraded-mode manager {report.aware_mean:.4f}",
        f"  degradation (ceiling - blind)  {report.degradation:+.4f}",
        f"  recovery (degraded - blind)    {report.recovery:+.4f}",
    ]
    if report.scenario.gate_capacity is not None:
        lines.append(
            f"  herding-gate suppressed retries  blind "
            f"{report.blind_suppressed_total}, degraded "
            f"{report.aware_suppressed_total}")
    return "\n".join(lines)


def chaos_report_to_dict(report: ChaosReport) -> dict:
    """Flatten a chaos report into a JSON-serializable dict.

    The CLI's ``--report-json`` artifact and CI's chaos-smoke job
    both consume this shape; series are plain lists, summary scalars
    are floats/ints.
    """
    return {
        "scenario": report.scenario.name,
        "description": report.scenario.description,
        "n_periods": report.n_periods,
        "warmup": report.warmup,
        "baseline_pf": [float(x) for x in report.baseline_pf],
        "blind_pf": [float(x) for x in report.blind_pf],
        "aware_pf": [float(x) for x in report.aware_pf],
        "blind_failed": [int(x) for x in report.blind_failed],
        "aware_failed": [int(x) for x in report.aware_failed],
        "blind_retries": [int(x) for x in report.blind_retries],
        "aware_retries": [int(x) for x in report.aware_retries],
        "blind_suppressed": [int(x) for x in report.blind_suppressed],
        "aware_suppressed": [int(x) for x in report.aware_suppressed],
        "baseline_mean": report.baseline_mean,
        "blind_mean": report.blind_mean,
        "aware_mean": report.aware_mean,
        "degradation": report.degradation,
        "recovery": report.recovery,
        "blind_suppressed_total": report.blind_suppressed_total,
        "aware_suppressed_total": report.aware_suppressed_total,
    }
