"""One-command reproduction report.

:func:`generate_report` runs every reproduced experiment (at full or
quick scale) and renders a single Markdown document — the artifact a
reviewer reads next to the paper.  Each section carries the paper's
claim, the regenerated rows, and a PASS/FAIL verdict from the same
shape assertions the benchmark harness enforces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.analysis import experiments, sensitivity
from repro.analysis.series import SweepResult
from repro.analysis.tables import format_sweep, format_table
from repro.workloads.presets import ExperimentSetup

__all__ = ["ReportSection", "generate_report", "write_report"]

_QUICK_IDEAL = ExperimentSetup(n_objects=200, updates_per_period=400.0,
                               syncs_per_period=100.0, theta=1.0,
                               update_std_dev=1.0)
_QUICK_BIG = ExperimentSetup(n_objects=20_000,
                             updates_per_period=40_000.0,
                             syncs_per_period=10_000.0, theta=1.0,
                             update_std_dev=2.0)


@dataclass(frozen=True)
class ReportSection:
    """One experiment's entry in the report.

    Attributes:
        title: Section heading (e.g. ``"Figure 3 — ideal case"``).
        claim: The paper claim being checked.
        body: The regenerated table(s).
        passed: Whether the shape assertions held.
        seconds: Wall time to produce the section.
    """

    title: str
    claim: str
    body: str
    passed: bool
    seconds: float


def _section(title: str, claim: str,
             runner: Callable[[], tuple[str, bool]]) -> ReportSection:
    start = time.perf_counter()
    try:
        body, passed = runner()
    except Exception as error:  # surface, don't abort the report
        body = f"ERROR: {error!r}"
        passed = False
    return ReportSection(title=title, claim=claim, body=body,
                         passed=passed,
                         seconds=time.perf_counter() - start)


def _sweep_body(sweeps: list[SweepResult]) -> str:
    return "\n\n".join(f"```\n{format_sweep(sweep)}\n```"
                       for sweep in sweeps)


def generate_report(*, quick: bool = True,
                    seed: int = 0) -> list[ReportSection]:
    """Run every experiment and collect report sections.

    Args:
        quick: Use reduced scales (seconds per section).  Full scale
            matches the paper's setups (minutes for the big case).
        seed: Workload seed used throughout.

    Returns:
        The ordered report sections.
    """
    ideal = _QUICK_IDEAL if quick else None
    big = _QUICK_BIG if quick else None
    n_seeds = 1 if quick else 3
    sections: list[ReportSection] = []

    def run_table1() -> tuple[str, bool]:
        results = experiments.table1()
        rows = [["change freq"] + [f"{v:g}" for v in
                                   results["change_rates"]]]
        for profile in ("P1", "P2", "P3"):
            rows.append([profile] + [f"{v:.2f}"
                                     for v in results[profile]])
        passed = (np.round(results["P1"], 2).tolist()
                  == [1.15, 1.36, 1.35, 1.14, 0.00])
        headers = ["row"] + [f"e{i}" for i in range(1, 6)]
        return f"```\n{format_table(headers, rows)}\n```", passed

    sections.append(_section(
        "Table 1 — toy-example optimal frequencies",
        "Exact reproduction of the paper's printed frequencies.",
        run_table1))

    def run_figure3() -> tuple[str, bool]:
        kwargs = {"n_seeds": n_seeds, "base_seed": seed}
        if ideal is not None:
            kwargs["setup"] = ideal
        results = experiments.figure3(**kwargs)
        passed = True
        for sweep in results.values():
            pf = sweep.get("PF_TECHNIQUE").y
            gf = sweep.get("GF_TECHNIQUE").y
            passed &= bool(abs(pf[0] - gf[0]) < 1e-9)
            passed &= bool((pf >= gf - 1e-9).all())
        passed &= bool(
            results["aligned"].get("GF_TECHNIQUE").y[-1] < 0.1)
        return _sweep_body(list(results.values())), passed

    sections.append(_section(
        "Figure 3 — PF vs GF across interest skew",
        "PF = GF at θ = 0; PF dominates; aligned GF collapses to ~0.",
        run_figure3))

    def run_figure5() -> tuple[str, bool]:
        counts = (np.array([5, 20, 60, 200])
                  if quick else np.array([10, 50, 100, 200, 500]))
        kwargs = {"partition_counts": counts, "seed": seed}
        if ideal is not None:
            kwargs["setup"] = ideal
        results = experiments.figure5(**kwargs)
        passed = True
        for sweep in results.values():
            best = sweep.get("best_case").y
            for label in sweep.labels:
                if label != "best_case":
                    passed &= bool(
                        (sweep.get(label).y <= best + 1e-8).all())
        shuffled = results["shuffled"]
        passed &= bool(shuffled.get("PF_PARTITIONING").y[1]
                       > shuffled.get("LAMBDA_PARTITIONING").y[1])
        return _sweep_body(list(results.values())), passed

    sections.append(_section(
        "Figure 5 — partitioning techniques",
        "All techniques approach best_case with k; λ-sort trails "
        "under shuffled change.",
        run_figure5))

    def run_figure7() -> tuple[str, bool]:
        counts = np.array([20, 60, 100, 200])
        kwargs = {"partition_counts": counts, "seed": seed}
        if big is not None:
            kwargs["setup"] = big
        sweep = experiments.figure7(**kwargs)
        pf = sweep.get("PF_PARTITIONING").y
        lam = sweep.get("LAMBDA_PARTITIONING").y
        passed = bool((pf > lam).all())
        return _sweep_body([sweep]), passed

    sections.append(_section(
        "Figure 7 — the big case",
        "PF-partitioning wins at catalog scale; returns diminish "
        "past ~100 partitions.",
        run_figure7))

    def run_figure8() -> tuple[str, bool]:
        kwargs = {"partition_counts": np.array([10, 40, 100]),
                  "iteration_counts": (0, 1, 5), "seed": seed}
        if quick:
            kwargs["setup"] = _QUICK_BIG
        sweep = experiments.figure8(**kwargs)
        zero = sweep.get("0 iterations").y
        five = sweep.get("5 iterations").y
        passed = bool((five >= zero - 0.02).all()
                      and five[0] > zero[0])
        return _sweep_body([sweep]), passed

    sections.append(_section(
        "Figure 8 — k-means refinement",
        "A few clustering iterations lift coarse partitionings "
        "substantially.",
        run_figure8))

    def run_figure10() -> tuple[str, bool]:
        results = experiments.figure10(seed=seed)
        rows = [
            ("uniform-size optimum (paper 0.312)",
             results["pf_uniform_world"]),
            ("size-aware optimum (paper 0.586)",
             results["pf_size_aware"]),
            ("size-blind schedule in sized world",
             results["pf_blind_in_sized_world"]),
        ]
        passed = (results["pf_size_aware"]
                  > results["pf_uniform_world"])
        body = format_table(["quantity", "value"], rows)
        return f"```\n{body}\n```", passed

    sections.append(_section(
        "Figure 10 — object sizes",
        "Size-aware optimum beats the size-blind world (paper: "
        "0.586 vs 0.312).",
        run_figure10))

    def run_figure11() -> tuple[str, bool]:
        counts = np.array([5, 25, 100]) if quick else None
        kwargs = {"partition_counts": counts, "seed": seed}
        if ideal is not None:
            kwargs["setup"] = ideal
        sweep = experiments.figure11(**kwargs)
        fba = sweep.get("FIXED BANDWIDTH (FBA)").y
        ffa = sweep.get("FIXED FREQUENCY (FFA)").y
        passed = bool((fba >= ffa - 1e-9).all())
        return _sweep_body([sweep]), passed

    sections.append(_section(
        "Figure 11 — FBA vs FFA",
        "Fixed-bandwidth allocation always outperforms "
        "fixed-frequency under variable sizes.",
        run_figure11))

    def run_baselines() -> tuple[str, bool]:
        kwargs = {"seed": seed}
        if ideal is not None:
            kwargs["setup"] = ideal
        sweep = sensitivity.baseline_comparison(**kwargs)
        pf = sweep.get("PF_OPTIMAL").y
        passed = all(bool((pf >= sweep.get(label).y - 1e-9).all())
                     for label in ("GF_OPTIMAL", "UNIFORM",
                                   "PROPORTIONAL"))
        return _sweep_body([sweep]), passed

    sections.append(_section(
        "Extension — baseline policy ladder",
        "PF-optimal tops GF, uniform and proportional at every skew.",
        run_baselines))

    def run_adaptive() -> tuple[str, bool]:
        kwargs = {"seed": seed, "n_periods": 8 if quick else 15}
        if ideal is not None:
            kwargs["setup"] = ideal
        sweep = sensitivity.adaptive_convergence(**kwargs)
        adaptive = sweep.get("adaptive manager").y
        oracle = sweep.get("oracle").y[0]
        passed = bool(adaptive[-1] > 0.8 * oracle)
        return _sweep_body([sweep]), passed

    sections.append(_section(
        "Extension — adaptive runtime convergence",
        "The observe/estimate/replan loop approaches the oracle from "
        "zero knowledge.",
        run_adaptive))

    return sections


def write_report(path: str | Path, *, quick: bool = True,
                 seed: int = 0) -> list[ReportSection]:
    """Generate the report and write it as Markdown.

    Args:
        path: Destination file.
        quick: Reduced scales (see :func:`generate_report`).
        seed: Workload seed.

    Returns:
        The sections that were written.
    """
    sections = generate_report(quick=quick, seed=seed)
    lines = ["# Reproduction report — Scalable Application-Aware "
             "Data Freshening (ICDE 2003)", ""]
    scale = "quick (reduced) scale" if quick else "paper scale"
    passed = sum(section.passed for section in sections)
    lines.append(f"Run at {scale}, seed {seed}: "
                 f"**{passed}/{len(sections)} sections PASS**.")
    lines.append("")
    for section in sections:
        verdict = "PASS" if section.passed else "FAIL"
        lines.append(f"## {section.title}  —  {verdict}")
        lines.append("")
        lines.append(f"*Claim:* {section.claim}")
        lines.append("")
        lines.append(section.body)
        lines.append("")
    Path(path).write_text("\n".join(lines))
    return sections
