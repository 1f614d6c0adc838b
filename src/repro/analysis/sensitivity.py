"""Sensitivity analyses and ablations.

The paper defers its parameter sensitivity study to the companion
technical report ([2], Carney/Lee/Zdonik, Brown CS 2002).  These
runners reconstruct that study for the parameters Table 2 exposes —
bandwidth ratio, update-rate dispersion σ, database size — plus the
design-choice ablations DESIGN.md commits to:

* representative statistic (mean vs median vs interest-weighted),
* clustering feature space (with vs without the size coordinate),
* adaptive-loop convergence (how fast the observe/estimate/replan
  runtime approaches the oracle schedule).
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.analysis.series import Series, SweepResult
from repro.core.allocation import AllocationPolicy, expand_partition_frequencies
from repro.core.freshener import GeneralFreshener, PerceivedFreshener
from repro.core.metrics import perceived_freshness
from repro.core.partitioning import PartitioningStrategy, partition_catalog
from repro.core.representatives import (
    REPRESENTATIVE_STATISTICS,
    build_representatives,
    solve_transformed_problem,
)
from repro.core.solver import solve_core_problem
from repro.parallel import parallel_map, seed_rng
from repro.runtime.manager import AdaptiveMirrorManager
from repro.sim.bursty import BurstyUpdateGenerator
from repro.sim.simulation import Simulation
from repro.workloads.alignment import Alignment
from repro.workloads.catalog import Catalog
from repro.workloads.presets import ExperimentSetup, build_catalog

__all__ = [
    "bandwidth_sensitivity",
    "dispersion_sensitivity",
    "scale_sensitivity",
    "representative_ablation",
    "adaptive_convergence",
    "baseline_comparison",
    "freshness_age_tradeoff",
    "burstiness_robustness",
    "crawler_comparison",
]


def bandwidth_sensitivity(*, setup: ExperimentSetup | None = None,
                          ratios: np.ndarray | None = None,
                          theta: float = 1.0,
                          seed: int = 0) -> SweepResult:
    """PF and GF across the bandwidth-to-update ratio.

    Table 2 fixes B/U = 0.25; this sweep varies it.  Expected shape:
    both techniques improve with bandwidth; the PF advantage is
    largest in the starved regime and vanishes as bandwidth saturates
    (everything can be kept fresh).

    Args:
        setup: Base preset (Table 2 scaled by default).
        ratios: Bandwidth/updates ratios to sweep.
        theta: Access skew.
        seed: Workload seed.

    Returns:
        PF-technique and GF-technique curves plus their gap.
    """
    base = setup if setup is not None else ExperimentSetup(
        n_objects=500, updates_per_period=1000.0,
        syncs_per_period=250.0, theta=theta, update_std_dev=1.0)
    grid = (np.array([0.05, 0.1, 0.25, 0.5, 1.0, 2.0])
            if ratios is None else np.asarray(ratios, dtype=float))
    catalog = build_catalog(base, alignment=Alignment.SHUFFLED,
                            seed=seed, theta=theta)
    pf_scores = np.zeros_like(grid)
    gf_scores = np.zeros_like(grid)
    pf_planner = PerceivedFreshener()
    gf_planner = GeneralFreshener()
    pf_mu: float | None = None
    gf_mu: float | None = None
    for index, ratio in enumerate(grid):
        bandwidth = float(ratio) * base.updates_per_period
        pf_plan = pf_planner.plan(catalog, bandwidth, guess=pf_mu)
        gf_plan = gf_planner.plan(catalog, bandwidth, guess=gf_mu)
        pf_mu = pf_plan.metadata["multiplier"]
        gf_mu = gf_plan.metadata["multiplier"]
        pf_scores[index] = pf_plan.perceived_freshness
        gf_scores[index] = gf_plan.perceived_freshness
    return SweepResult(
        name="bandwidth-sensitivity",
        x_label="bandwidth / updates", y_label="perceived freshness",
        series=(Series(label="PF_TECHNIQUE", x=grid, y=pf_scores),
                Series(label="GF_TECHNIQUE", x=grid, y=gf_scores),
                Series(label="PF_ADVANTAGE", x=grid,
                       y=pf_scores - gf_scores)),
        notes={"theta": theta, "seed": seed})


def dispersion_sensitivity(*, setup: ExperimentSetup | None = None,
                           std_devs: np.ndarray | None = None,
                           seed: int = 0) -> SweepResult:
    """PF across the gamma update-rate standard deviation σ.

    Expected shape: higher dispersion helps the optimizer — with very
    unequal rates, concentrating bandwidth on keepable elements pays;
    with near-identical rates there is nothing to exploit.

    Args:
        setup: Base preset.
        std_devs: σ values to sweep.
        seed: Workload seed.

    Returns:
        Optimal-PF and GF-baseline curves vs σ.
    """
    base = setup if setup is not None else ExperimentSetup(
        n_objects=500, updates_per_period=1000.0,
        syncs_per_period=250.0, theta=1.0, update_std_dev=1.0)
    grid = (np.array([0.25, 0.5, 1.0, 2.0, 4.0])
            if std_devs is None else np.asarray(std_devs, dtype=float))
    pf_scores = np.zeros_like(grid)
    gf_scores = np.zeros_like(grid)
    pf_planner = PerceivedFreshener()
    gf_planner = GeneralFreshener()
    pf_mu: float | None = None
    gf_mu: float | None = None
    for index, sigma in enumerate(grid):
        varied = ExperimentSetup(
            n_objects=base.n_objects,
            updates_per_period=base.updates_per_period,
            syncs_per_period=base.syncs_per_period, theta=base.theta,
            update_std_dev=float(sigma))
        catalog = build_catalog(varied, alignment=Alignment.SHUFFLED,
                                seed=seed)
        pf_plan = pf_planner.plan(catalog, base.syncs_per_period,
                                  guess=pf_mu)
        gf_plan = gf_planner.plan(catalog, base.syncs_per_period,
                                  guess=gf_mu)
        pf_mu = pf_plan.metadata["multiplier"]
        gf_mu = gf_plan.metadata["multiplier"]
        pf_scores[index] = pf_plan.perceived_freshness
        gf_scores[index] = gf_plan.perceived_freshness
    return SweepResult(
        name="dispersion-sensitivity",
        x_label="update std dev (sigma)",
        y_label="perceived freshness",
        series=(Series(label="PF_TECHNIQUE", x=grid, y=pf_scores),
                Series(label="GF_TECHNIQUE", x=grid, y=gf_scores)),
        notes={"seed": seed})


def scale_sensitivity(*, n_objects: np.ndarray | None = None,
                      seed: int = 0) -> SweepResult:
    """PF across database size at a fixed per-object budget.

    Per-object statistics are held constant (2 updates and 0.5 syncs
    per object per period).  Two effects emerge:

    * optimal PF *rises* with N and flattens — a Zipf(θ=1) profile is
      not scale-free (the head holds 1/H_N of the mass), so larger
      catalogs give the optimizer more exploitable skew per unit of
      budget;
    * the fixed-k heuristic's gap to optimal *grows* with N (each
      partition averages over more heterogeneous elements) — the
      quantitative version of the paper's advice to scale partitions
      with the problem.

    Args:
        n_objects: Sizes to sweep.
        seed: Workload seed.

    Returns:
        Optimal and heuristic (k=100) PF curves vs N.
    """
    grid = (np.array([500, 2_000, 8_000, 32_000])
            if n_objects is None else np.asarray(n_objects, dtype=int))
    optimal = np.zeros(grid.shape[0])
    heuristic = np.zeros(grid.shape[0])
    from repro.core.freshener import PartitionedFreshener
    for index, n in enumerate(grid):
        setup = ExperimentSetup(n_objects=int(n),
                                updates_per_period=2.0 * n,
                                syncs_per_period=0.5 * n, theta=1.0,
                                update_std_dev=1.0)
        catalog = build_catalog(setup, alignment=Alignment.SHUFFLED,
                                seed=seed)
        optimal[index] = solve_core_problem(
            catalog, setup.syncs_per_period).objective
        heuristic[index] = PartitionedFreshener(100).plan(
            catalog, setup.syncs_per_period).perceived_freshness
    return SweepResult(
        name="scale-sensitivity", x_label="database size (N)",
        y_label="perceived freshness",
        series=(Series(label="optimal", x=grid.astype(float),
                       y=optimal),
                Series(label="heuristic k=100", x=grid.astype(float),
                       y=heuristic)),
        notes={"seed": seed})


def representative_ablation(*, setup: ExperimentSetup | None = None,
                            partition_counts: np.ndarray | None = None,
                            seed: int = 0) -> SweepResult:
    """Mean vs median vs interest-weighted representatives.

    The paper always uses partition means; this ablation quantifies
    how much that choice matters under a heavy-tailed (σ = 2)
    workload where means and medians diverge.

    Args:
        setup: Base preset.
        partition_counts: k grid.
        seed: Workload seed.

    Returns:
        One PF-vs-k curve per statistic, plus the optimal reference.
    """
    base = setup if setup is not None else ExperimentSetup(
        n_objects=2_000, updates_per_period=4_000.0,
        syncs_per_period=1_000.0, theta=1.0, update_std_dev=2.0)
    counts = (np.array([10, 25, 50, 100, 200])
              if partition_counts is None
              else np.asarray(partition_counts, dtype=int))
    catalog = build_catalog(base, alignment=Alignment.SHUFFLED,
                            seed=seed)
    curves = {statistic: np.zeros(counts.shape[0])
              for statistic in REPRESENTATIVE_STATISTICS}
    for index, k in enumerate(counts):
        assignment = partition_catalog(catalog, int(k),
                                       PartitioningStrategy.PF)
        for statistic in REPRESENTATIVE_STATISTICS:
            problem = build_representatives(catalog, assignment,
                                            statistic=statistic)
            solution = solve_transformed_problem(
                problem, base.syncs_per_period)
            frequencies = expand_partition_frequencies(
                catalog, problem, solution.frequencies,
                AllocationPolicy.FIXED_BANDWIDTH)
            curves[statistic][index] = perceived_freshness(catalog,
                                                           frequencies)
    best = solve_core_problem(catalog, base.syncs_per_period).objective
    series = [Series(label=statistic, x=counts.astype(float), y=values)
              for statistic, values in curves.items()]
    series.append(Series(label="best_case", x=counts.astype(float),
                         y=np.full(counts.shape[0], best)))
    return SweepResult(name="representative-ablation",
                       x_label="num partitions",
                       y_label="perceived freshness",
                       series=tuple(series), notes={"seed": seed})


def adaptive_convergence(*, setup: ExperimentSetup | None = None,
                         n_periods: int = 15, request_rate: float =
                         2000.0, seed: int = 0) -> SweepResult:
    """Convergence of the observe/estimate/replan runtime loop.

    The manager starts knowing nothing (uniform profile, prior rates)
    and must approach the oracle schedule from the request log and
    poll outcomes alone.

    Args:
        setup: Workload preset.
        n_periods: Loop length.
        request_rate: Accesses per period feeding the learner.
        seed: Workload and simulation seed.

    Returns:
        Achieved-PF per period, with oracle and profile-blind
        reference lines.
    """
    base = setup if setup is not None else ExperimentSetup(
        n_objects=200, updates_per_period=400.0,
        syncs_per_period=100.0, theta=1.2, update_std_dev=1.0)
    catalog = build_catalog(base, alignment=Alignment.SHUFFLED,
                            seed=seed)
    manager = AdaptiveMirrorManager(
        catalog, base.syncs_per_period, request_rate=request_rate,
        rng=seed_rng(seed + 100))
    reports = manager.run(n_periods)

    oracle = PerceivedFreshener().plan(
        catalog, base.syncs_per_period).perceived_freshness
    blind = GeneralFreshener().plan(
        catalog, base.syncs_per_period).perceived_freshness
    periods = np.arange(1, n_periods + 1, dtype=float)
    achieved = np.array([report.achieved_pf for report in reports])
    return SweepResult(
        name="adaptive-convergence", x_label="period",
        y_label="perceived freshness",
        series=(Series(label="adaptive manager", x=periods, y=achieved),
                Series(label="oracle", x=periods,
                       y=np.full(n_periods, oracle)),
                Series(label="profile-blind", x=periods,
                       y=np.full(n_periods, blind))),
        notes={"seed": seed,
               "replans": sum(r.replanned for r in reports)})


def baseline_comparison(*, setup: ExperimentSetup | None = None,
                        thetas: np.ndarray | None = None,
                        seed: int = 0) -> SweepResult:
    """PF vs GF vs the non-optimizing baselines across skew.

    On *average* freshness the classical ladder holds pointwise
    (proportional ≤ uniform ≤ GF-optimal — ref [5]'s theorem, asserted
    in the test suite).  On *perceived* freshness only PF-optimal is
    guaranteed on top, and the sweep surfaces two sharper facts:

    * under skew, profile-blind "optimal" GF can fall **below naive
      uniform polling** — optimizing the wrong objective is worse
      than not optimizing;
    * proportional allocation's perceived freshness is exactly
      θ-invariant: with ``fᵢ ∝ λᵢ`` every element shares the
      staleness ratio ``r = Σλ/B``, so every copy is equally (un)fresh
      no matter where the interest sits.

    Args:
        setup: Parameter preset (Table 2 by default).
        thetas: Skew grid.
        seed: Workload seed.

    Returns:
        One curve per policy.
    """
    from repro.core.baselines import ProportionalFreshener, UniformFreshener

    base = setup if setup is not None else ExperimentSetup(
        n_objects=500, updates_per_period=1000.0,
        syncs_per_period=250.0, theta=1.0, update_std_dev=1.0)
    grid = (np.arange(0.0, 1.601, 0.4) if thetas is None
            else np.asarray(thetas, dtype=float))
    planners = {
        "PF_OPTIMAL": PerceivedFreshener(),
        "GF_OPTIMAL": GeneralFreshener(),
        "UNIFORM": UniformFreshener(),
        "PROPORTIONAL": ProportionalFreshener(),
    }
    curves = {name: np.zeros_like(grid) for name in planners}
    for index, theta in enumerate(grid):
        catalog = build_catalog(base, alignment=Alignment.SHUFFLED,
                                seed=seed, theta=float(theta))
        for name, planner in planners.items():
            curves[name][index] = planner.plan(
                catalog, base.syncs_per_period).perceived_freshness
    series = tuple(Series(label=name, x=grid, y=values)
                   for name, values in curves.items())
    return SweepResult(name="baseline-comparison",
                       x_label="theta (zipf skew)",
                       y_label="perceived freshness", series=series,
                       notes={"seed": seed})


def freshness_age_tradeoff(*, setup: ExperimentSetup | None = None,
                           blend_weights: np.ndarray | None = None,
                           theta: float = 1.0,
                           seed: int = 0) -> SweepResult:
    """The perceived-freshness / perceived-age Pareto sketch.

    The freshness-optimal schedule abandons fast changers, driving
    perceived age to infinity; the age-optimal schedule spends
    bandwidth keeping every element's age bounded, sacrificing some
    freshness.  Because the bandwidth constraint is linear, any convex
    blend ``α·f_fresh + (1−α)·f_age`` is feasible — sweeping α traces
    the trade-off.

    Args:
        setup: Parameter preset.
        blend_weights: α grid in [0, 1] (1 = freshness-optimal).
        theta: Access skew.
        seed: Workload seed.

    Returns:
        Two curves over α: perceived freshness and perceived age
        (age is ``inf`` at α = 1 when any accessed element is
        starved; it is reported as-is).
    """
    from repro.core.age import perceived_age, solve_min_age_problem

    base = setup if setup is not None else ExperimentSetup(
        n_objects=500, updates_per_period=1000.0,
        syncs_per_period=250.0, theta=theta, update_std_dev=1.0)
    grid = (np.linspace(0.0, 1.0, 11) if blend_weights is None
            else np.asarray(blend_weights, dtype=float))
    catalog = build_catalog(base, alignment=Alignment.SHUFFLED,
                            seed=seed, theta=theta)
    fresh = solve_core_problem(catalog, base.syncs_per_period)
    aged = solve_min_age_problem(catalog, base.syncs_per_period)

    pf_values = np.zeros_like(grid)
    age_values = np.zeros_like(grid)
    for index, alpha in enumerate(grid):
        blend = (float(alpha) * fresh.frequencies
                 + (1.0 - float(alpha)) * aged.frequencies)
        pf_values[index] = perceived_freshness(catalog, blend)
        age_values[index] = perceived_age(catalog, blend)
    return SweepResult(
        name="freshness-age-tradeoff",
        x_label="blend weight (1 = freshness-optimal)",
        y_label="metric value",
        series=(Series(label="perceived freshness", x=grid,
                       y=pf_values),
                Series(label="perceived age", x=grid, y=age_values)),
        notes={"theta": theta, "seed": seed,
               "age_optimal_pf": float(perceived_freshness(
                   catalog, aged.frequencies)),
               "freshness_optimal_age": float(perceived_age(
                   catalog, fresh.frequencies))})


def _burstiness_point(spec: tuple[int, float], *, catalog: Catalog,
                      frequencies: np.ndarray, n_periods: int,
                      request_rate: float, seed: int) -> float:
    """Measure one burstiness level (module-level so it pickles).

    The generator and simulator share one per-point generator seeded
    ``seed + 1000 + index`` — the same derivation the serial loop
    always used, so results are jobs-invariant.
    """
    index, level = spec
    rng = seed_rng(seed + 1000 + index)
    generator = BurstyUpdateGenerator(catalog, burstiness=float(level),
                                      rng=rng)
    simulation = Simulation(catalog, frequencies,
                            request_rate=request_rate, rng=rng,
                            update_generator=generator)
    return simulation.run(n_periods=n_periods).monitored_time_perceived


def burstiness_robustness(*, setup: ExperimentSetup | None = None,
                          burstiness_levels: np.ndarray | None = None,
                          n_periods: int = 60,
                          request_rate: float = 2000.0,
                          seed: int = 0, jobs: int = 1) -> SweepResult:
    """Model misspecification: Poisson-planned schedules, bursty world.

    The schedule is the PF optimum for the catalog's *long-run* rates;
    updates actually arrive from a rate-matched two-state MMPP whose
    ``burstiness`` knob concentrates them into ever-shorter ON
    windows.  Measured shape (asserted by the benchmark): the Poisson
    prediction is **conservative** — burstiness *raises* measured
    freshness.  A burst of k updates costs the same single staleness
    window as one update, while the matching long OFF stretches leave
    copies fresh for whole sync intervals; rate-matched clustering
    therefore transfers update mass into fewer, denser staleness
    events.  Schedules planned under the paper's Poisson assumption
    are thus safe (never oversold) on bursty real-world sources.

    Args:
        setup: Workload preset.
        burstiness_levels: Knob values in [0, 1).
        n_periods: Simulated periods per point.
        request_rate: Accesses per period.
        seed: Workload and simulation seed.
        jobs: Worker processes for the sweep points (1 = serial,
            bit-identical; each point is independently seeded).

    Returns:
        Measured PF per burstiness level plus the flat Poisson
        prediction.
    """
    base = setup if setup is not None else ExperimentSetup(
        n_objects=200, updates_per_period=400.0,
        syncs_per_period=100.0, theta=1.0, update_std_dev=1.0)
    grid = (np.array([0.0, 0.25, 0.5, 0.75, 0.9])
            if burstiness_levels is None
            else np.asarray(burstiness_levels, dtype=float))
    catalog = build_catalog(base, alignment=Alignment.SHUFFLED,
                            seed=seed)
    plan = PerceivedFreshener().plan(catalog, base.syncs_per_period)
    prediction = plan.perceived_freshness

    point = partial(_burstiness_point, catalog=catalog,
                    frequencies=plan.frequencies, n_periods=n_periods,
                    request_rate=request_rate, seed=seed)
    measured = np.array(parallel_map(
        point, [(index, float(level)) for index, level in
                enumerate(grid)],
        jobs=jobs, label="parallel.burstiness"))
    return SweepResult(
        name="burstiness-robustness", x_label="burstiness",
        y_label="perceived freshness",
        series=(Series(label="measured (bursty world)", x=grid,
                       y=measured),
                Series(label="poisson prediction", x=grid,
                       y=np.full(grid.shape[0], prediction))),
        notes={"seed": seed, "n_periods": n_periods})


def crawler_comparison(*, setup: ExperimentSetup | None = None,
                       n_servers: int = 10, sample_size: int = 2,
                       n_rounds: int = 40,
                       requests_per_round: float = 2000.0,
                       seed: int = 0) -> SweepResult:
    """PF scheduling vs the sampling crawler vs random polling.

    All three policies spend the same poll budget per round; the
    sampling crawler (ref [6]) needs no change-rate knowledge, random
    polling needs nothing at all, and the PF schedule plans from the
    true rates and profile.  Perceived freshness is measured by
    round-based simulation (Definition 3 on actual accesses).

    Args:
        setup: Workload preset.
        n_servers: Server groups for the sampling crawler.
        sample_size: Sample polls per server per round.
        n_rounds: Rounds simulated.
        requests_per_round: Mean accesses per round.
        seed: Workload and simulation seed.

    Returns:
        One point per policy (x is a policy index; read the labels).
    """
    from repro.sim.rounds import (
        RandomPollPolicy,
        SamplingCrawlerPolicy,
        SchedulePolicy,
        simulate_rounds,
    )

    base = setup if setup is not None else ExperimentSetup(
        n_objects=200, updates_per_period=400.0,
        syncs_per_period=100.0, theta=1.0, update_std_dev=1.0)
    catalog = build_catalog(base, alignment=Alignment.SHUFFLED,
                            seed=seed)
    budget = int(base.syncs_per_period)
    plan = PerceivedFreshener().plan(catalog, float(budget))
    server_of = np.arange(base.n_objects) % n_servers

    policies = {
        "PF_SCHEDULE": SchedulePolicy(plan.frequencies),
        "SAMPLING_CRAWLER": SamplingCrawlerPolicy(
            server_of, sample_size=sample_size, budget=budget,
            rng=seed_rng(seed + 50)),
        "RANDOM_POLLING": RandomPollPolicy(base.n_objects, budget),
    }
    labels = []
    scores = []
    for label, policy in policies.items():
        result = simulate_rounds(
            catalog, policy, n_rounds=n_rounds,
            requests_per_round=requests_per_round,
            rng=seed_rng(seed + 99))
        labels.append(label)
        scores.append(result.perceived_freshness)
    x = np.arange(len(labels), dtype=float)
    series = tuple(Series(label=label, x=np.array([index], dtype=float),
                          y=np.array([score]))
                   for index, (label, score) in enumerate(
                       zip(labels, scores)))
    return SweepResult(name="crawler-comparison", x_label="policy",
                       y_label="perceived freshness", series=series,
                       notes={"seed": seed, "budget": budget,
                              "n_rounds": n_rounds,
                              "scores": dict(zip(labels, scores))})
