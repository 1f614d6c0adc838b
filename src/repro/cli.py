"""Command-line interface: run any reproduced experiment.

Usage::

    python -m repro table1
    python -m repro figure3 --quick
    python -m repro figure7
    repro-freshen figure5 --seed 3
    repro-freshen table1 --quick --telemetry out/
    repro-freshen table1 --quick --sink statsd://127.0.0.1:8125
    repro-freshen obs summary --tape out/telemetry.jsonl
    repro-freshen obs freshness --tape out/telemetry.jsonl
    repro-freshen obs diff baseline.jsonl out/telemetry.jsonl
    repro-freshen chaos --scenario iid20
    repro-freshen adapt --scenario outage --quick

``--quick`` shrinks grids/sizes so every experiment finishes in a few
seconds; without it the paper-scale defaults run.  ``--telemetry
[DIR]`` runs the experiment with the :mod:`repro.obs` layer enabled
and writes ``telemetry.jsonl`` (the event tape) plus
``telemetry.prom`` (Prometheus text format) into DIR, then prints the
summary table; the ``obs`` subcommand re-renders a saved tape.
``--jobs N`` fans seed-replicated experiments out over N worker
processes (``0`` = all usable CPUs) with results bit-identical to the
default serial run — see ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.analysis import experiments, sensitivity
from repro.analysis.plots import ascii_plot
from repro.analysis.series import SweepResult
from repro.analysis.svg import write_svg
from repro.analysis.tables import format_sweep, format_table
from repro.workloads.presets import ExperimentSetup

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.sink import Sink

__all__ = ["main", "build_parser"]

_QUICK_BIG = ExperimentSetup(n_objects=20_000,
                             updates_per_period=40_000.0,
                             syncs_per_period=10_000.0, theta=1.0,
                             update_std_dev=2.0)
_QUICK_MEDIUM = ExperimentSetup(n_objects=4_000,
                                updates_per_period=8_000.0,
                                syncs_per_period=2_000.0, theta=1.0,
                                update_std_dev=2.0)


def _emit_sweep(sweep: SweepResult, plot: bool,
                svg_dir: str | None = None) -> None:
    print(format_sweep(sweep))
    if plot:
        print()
        print(ascii_plot(sweep))
    if svg_dir is not None:
        from pathlib import Path

        directory = Path(svg_dir)
        directory.mkdir(parents=True, exist_ok=True)
        target = directory / f"{sweep.name}.svg"
        write_svg(sweep, target)
        print(f"(wrote {target})")
    print()


def _run_table1(args: argparse.Namespace) -> None:
    results = experiments.table1()
    rates = results["change_rates"]
    rows = [["(a) change freq"] + [f"{value:g}" for value in rates]]
    for profile in ("P1", "P2", "P3"):
        rows.append([f"sync freq ({profile})"]
                    + [f"{value:.2f}" for value in results[profile]])
    headers = ["row"] + [f"e{index + 1}" for index in range(rates.shape[0])]
    print("Table 1 — optimal sync frequencies for the toy example")
    print(format_table(headers, rows))


def _run_figure1(args: argparse.Namespace) -> None:
    _emit_sweep(experiments.figure1(), args.plot, args.svg)


def _run_figure2(args: argparse.Namespace) -> None:
    for sweep in experiments.figure2(seed=args.seed).values():
        _emit_sweep(sweep, args.plot, args.svg)


def _run_figure3(args: argparse.Namespace) -> None:
    n_seeds = 1 if args.quick else 3
    for sweep in experiments.figure3(n_seeds=n_seeds,
                                     base_seed=args.seed,
                                     jobs=args.jobs).values():
        _emit_sweep(sweep, args.plot, args.svg)


def _run_figure5(args: argparse.Namespace) -> None:
    counts = (np.array([10, 50, 100, 200]) if args.quick else None)
    for sweep in experiments.figure5(partition_counts=counts,
                                     seed=args.seed,
                                     jobs=args.jobs).values():
        _emit_sweep(sweep, args.plot, args.svg)


def _run_figure6(args: argparse.Namespace) -> None:
    _emit_sweep(experiments.figure6(seed=args.seed), args.plot, args.svg)


def _run_figure7(args: argparse.Namespace) -> None:
    setup = _QUICK_BIG if args.quick else None
    kwargs = {"seed": args.seed}
    if setup is not None:
        kwargs["setup"] = setup
    _emit_sweep(experiments.figure7(**kwargs), args.plot, args.svg)


def _run_figure8(args: argparse.Namespace) -> None:
    setup = _QUICK_MEDIUM if args.quick else None
    _emit_sweep(experiments.figure8(setup=setup, seed=args.seed),
                args.plot)


def _run_figure9(args: argparse.Namespace) -> None:
    setup = _QUICK_MEDIUM if args.quick else None
    sweep = experiments.figure9(setup=setup, seed=args.seed)
    # Series have distinct x grids (times), so print each separately.
    for series in sweep.series:
        print(f"{sweep.name} — {series.label}")
        rows = list(zip(series.x.tolist(), series.y.tolist()))
        print(format_table(["time (s)", "perceived freshness"], rows))
        print()
    if args.plot:
        print(ascii_plot(sweep))


def _run_figure10(args: argparse.Namespace) -> None:
    results = experiments.figure10(seed=args.seed)
    for key in ("frequency", "bandwidth"):
        sweep = results[key]
        print(f"{sweep.name}: totals per series")
        rows = [(series.label, float(series.y.sum()))
                for series in sweep.series]
        print(format_table(["series", f"total {sweep.y_label}"], rows))
        if args.plot:
            print(ascii_plot(sweep))
        print()
    print(format_table(
        ["schedule", "perceived freshness"],
        [("uniform-size world optimum (paper: 0.312)",
          results["pf_uniform_world"]),
         ("size-aware optimum (paper: 0.586)",
          results["pf_size_aware"]),
         ("size-blind schedule in sized world",
          results["pf_blind_in_sized_world"])]))


def _run_figure11(args: argparse.Namespace) -> None:
    counts = np.array([10, 50, 100, 200]) if args.quick else None
    _emit_sweep(experiments.figure11(partition_counts=counts,
                                     seed=args.seed), args.plot, args.svg)


def _run_imperfect(args: argparse.Namespace) -> None:
    n_seeds = 1 if args.quick else 3
    _emit_sweep(experiments.imperfect_knowledge(n_seeds=n_seeds,
                                                base_seed=args.seed),
                args.plot)


def _run_mirror_selection(args: argparse.Namespace) -> None:
    _emit_sweep(experiments.mirror_selection(seed=args.seed), args.plot, args.svg)


def _run_policy_ablation(args: argparse.Namespace) -> None:
    _emit_sweep(experiments.policy_ablation(seed=args.seed), args.plot, args.svg)


def _run_bandwidth_sensitivity(args: argparse.Namespace) -> None:
    _emit_sweep(sensitivity.bandwidth_sensitivity(seed=args.seed),
                args.plot)


def _run_dispersion_sensitivity(args: argparse.Namespace) -> None:
    _emit_sweep(sensitivity.dispersion_sensitivity(seed=args.seed),
                args.plot)


def _run_scale_sensitivity(args: argparse.Namespace) -> None:
    counts = np.array([500, 2000, 8000]) if args.quick else None
    _emit_sweep(sensitivity.scale_sensitivity(n_objects=counts,
                                              seed=args.seed), args.plot, args.svg)


def _run_representative_ablation(args: argparse.Namespace) -> None:
    _emit_sweep(sensitivity.representative_ablation(seed=args.seed),
                args.plot)


def _run_burstiness(args: argparse.Namespace) -> None:
    periods = 30 if args.quick else 60
    _emit_sweep(sensitivity.burstiness_robustness(n_periods=periods,
                                                  seed=args.seed,
                                                  jobs=args.jobs),
                args.plot)


def _run_crawler(args: argparse.Namespace) -> None:
    rounds = 30 if args.quick else 60
    sweep = sensitivity.crawler_comparison(n_rounds=rounds,
                                           seed=args.seed)
    rows = list(sweep.notes["scores"].items())
    print("crawler-comparison (perceived freshness)")
    print(format_table(["policy", "perceived freshness"], rows))


def _run_report(args: argparse.Namespace) -> None:
    from repro.analysis.report import write_report

    path = "REPORT.md"
    sections = write_report(path, quick=args.quick, seed=args.seed)
    passed = sum(section.passed for section in sections)
    print(f"wrote {path}: {passed}/{len(sections)} sections PASS")
    for section in sections:
        verdict = "PASS" if section.passed else "FAIL"
        print(f"  [{verdict}] {section.title} ({section.seconds:.1f}s)")


def _run_baseline_comparison(args: argparse.Namespace) -> None:
    _emit_sweep(sensitivity.baseline_comparison(seed=args.seed),
                args.plot)


def _run_freshness_age(args: argparse.Namespace) -> None:
    _emit_sweep(sensitivity.freshness_age_tradeoff(seed=args.seed),
                args.plot)


def _run_adaptive(args: argparse.Namespace) -> None:
    periods = 8 if args.quick else 15
    _emit_sweep(sensitivity.adaptive_convergence(n_periods=periods,
                                                 seed=args.seed),
                args.plot)


def _chaos_scenario_task(name: str, *, n_periods: int, warmup: int,
                         seed: int):
    """One full chaos scenario (module-level so workers can pickle
    it; the three arms run serially inside the worker)."""
    from repro.analysis.chaos import run_chaos

    return run_chaos(name, n_periods=n_periods, warmup=warmup,
                     seed=seed, jobs=1)


def _run_chaos(args: argparse.Namespace) -> None:
    import json
    from functools import partial

    from repro.analysis.chaos import (
        chaos_report_to_dict,
        format_chaos_report,
        run_chaos,
    )
    from repro.faults.scenarios import CHAOS_SCENARIOS
    from repro.parallel import parallel_map

    names = (list(CHAOS_SCENARIOS) if args.scenario == "all"
             else [args.scenario])
    n_periods = 24 if args.quick else args.periods
    warmup = min(4 if args.quick else 10, n_periods - 1)
    every = 2 if args.quick else 5
    if len(names) > 1:
        # Scenarios are independent, so ``--scenario all`` fans out
        # whole scenarios (coarser tasks than the three arms inside
        # one scenario, and there are more of them).
        reports = parallel_map(
            partial(_chaos_scenario_task, n_periods=n_periods,
                    warmup=warmup, seed=args.seed),
            names, jobs=args.jobs, label="parallel.chaos_scenarios")
    else:
        reports = [run_chaos(names[0], n_periods=n_periods,
                             warmup=warmup, seed=args.seed,
                             jobs=args.jobs)]
    for report in reports:
        print(format_chaos_report(report, every=every))
        print()
    if getattr(args, "report_json", None):
        path = Path(args.report_json)
        path.write_text(
            json.dumps([chaos_report_to_dict(report)
                        for report in reports], indent=2) + "\n",
            encoding="utf-8")
        print(f"(wrote {path})")


def _adapt_scenario_task(scenario_name: str | None, *, seed: int,
                         periods: int):
    """One adaptive-loop run (module-level so workers can pickle it).

    Returns:
        ``(title, reports)`` for the CLI table.
    """
    from repro.analysis.chaos import CHAOS_SETUP
    from repro.faults.scenarios import CHAOS_SCENARIOS
    from repro.runtime.manager import AdaptiveMirrorManager
    from repro.workloads.presets import build_catalog

    catalog = build_catalog(CHAOS_SETUP, seed=seed)
    kwargs: dict = {}
    title = "adaptive loop (fault-free)"
    if scenario_name is not None:
        kwargs = CHAOS_SCENARIOS[scenario_name].manager_kwargs(
            catalog.n_elements, float(periods))
        title = f"adaptive loop under chaos scenario {scenario_name!r}"
    manager = AdaptiveMirrorManager(
        catalog, CHAOS_SETUP.syncs_per_period,
        request_rate=12.0 * CHAOS_SETUP.n_objects,
        rng=np.random.default_rng(seed),
        replan_every=3, **kwargs)
    return title, manager.run(periods)


def _run_adapt(args: argparse.Namespace) -> None:
    from functools import partial

    from repro.faults.scenarios import CHAOS_SCENARIOS
    from repro.parallel import parallel_map

    scenarios: list[str | None]
    if args.scenario == "all":
        scenarios = [None, *CHAOS_SCENARIOS]
    else:
        scenarios = [args.scenario]
    periods = 12 if args.quick else args.periods
    tables = parallel_map(
        partial(_adapt_scenario_task, seed=args.seed,
                periods=periods),
        scenarios, jobs=args.jobs, label="parallel.adapt")
    for title, reports in tables:
        print(title)
        rows = [(r.period, "yes" if r.replanned else "",
                 f"{r.believed_pf:.4f}", f"{r.achieved_pf:.4f}",
                 f"{r.monitored_pf:.4f}", r.failed_polls, r.retries)
                for r in reports]
        print(format_table(
            ["period", "replanned", "believed", "achieved",
             "monitored", "failed", "retries"], rows))
        print()


_COMMANDS: dict[str, tuple[Callable[[argparse.Namespace], None], str]] = {
    "table1": (_run_table1, "Toy-example optimal sync frequencies"),
    "figure1": (_run_figure1, "Solution locus f(lambda) per p"),
    "figure2": (_run_figure2, "Alignment-option workload shapes"),
    "figure3": (_run_figure3, "PF vs theta: PF vs GF technique"),
    "figure5": (_run_figure5, "PF vs partitions, four partitioners"),
    "figure6": (_run_figure6, "Partitioner sensitivity to theta"),
    "figure7": (_run_figure7, "The big (Table 3) case"),
    "figure8": (_run_figure8, "k-means refinement improvement"),
    "figure9": (_run_figure9, "PF vs wall time with clustering"),
    "figure10": (_run_figure10, "Object-size-aware optimal schedules"),
    "figure11": (_run_figure11, "FBA vs FFA allocation"),
    "imperfect-knowledge": (_run_imperfect,
                            "Robustness to noisy change rates"),
    "mirror-selection": (_run_mirror_selection,
                         "Profile-driven mirror selection"),
    "policy-ablation": (_run_policy_ablation,
                        "Fixed-order vs Poisson sync policies"),
    "bandwidth-sensitivity": (_run_bandwidth_sensitivity,
                              "PF advantage across bandwidth ratios"),
    "dispersion-sensitivity": (_run_dispersion_sensitivity,
                               "PF across update-rate dispersion"),
    "scale-sensitivity": (_run_scale_sensitivity,
                          "PF invariance across database size"),
    "representative-ablation": (_run_representative_ablation,
                                "Mean vs median vs weighted reps"),
    "adaptive": (_run_adaptive,
                 "Observe/estimate/replan runtime convergence"),
    "baseline-comparison": (_run_baseline_comparison,
                            "PF/GF vs uniform/proportional policies"),
    "freshness-age": (_run_freshness_age,
                      "Perceived freshness vs perceived age"),
    "crawler-comparison": (_run_crawler,
                           "PF vs sampling crawler vs random polls"),
    "burstiness": (_run_burstiness,
                   "Poisson-planned schedules on bursty sources"),
    "adapt": (_run_adapt,
              "Adaptive-loop period table (optionally under chaos)"),
    "chaos": (_run_chaos,
              "Fault scenarios: blind vs degraded-mode replanning"),
    "report": (_run_report,
               "Run every experiment and write REPORT.md"),
}


def _run_obs(args: argparse.Namespace) -> int:
    from repro.obs import export

    if args.action == "diff":
        return _run_obs_diff(args)
    try:
        registry = export.read_jsonl(args.tape)
    except FileNotFoundError:
        print(f"repro obs: no tape at {args.tape!r} — run an experiment "
              "with --telemetry DIR first", file=sys.stderr)
        return 1
    if args.action == "prom":
        print(export.prometheus_text(registry), end="")
    elif args.action == "freshness":
        print(export.freshness_text(registry, now=args.now), end="")
    else:
        print(export.summary_text(registry))
    return 0


def _run_obs_diff(args: argparse.Namespace) -> int:
    from repro.obs import diff as obs_diff

    try:
        baseline = obs_diff.load_metrics(args.baseline)
        candidate = obs_diff.load_metrics(args.candidate)
    except (FileNotFoundError, ValueError) as error:
        print(f"repro obs diff: {error}", file=sys.stderr)
        return 2
    rows = obs_diff.diff_metrics(baseline, candidate,
                                 threshold=args.threshold)
    print(obs_diff.format_diff(rows, threshold=args.threshold),
          end="")
    regressed = any(row.regression for row in rows)
    if regressed and args.warn_only:
        print("(warn-only: not failing the run)")
    return 1 if regressed and not args.warn_only else 0


def _run_with_telemetry(runner: Callable[[argparse.Namespace], None],
                        args: argparse.Namespace,
                        sink: "Sink | None" = None) -> None:
    from repro.obs import export, registry as obs_registry

    directory = (Path(args.telemetry)
                 if args.telemetry is not None else None)
    if directory is not None:
        directory.mkdir(parents=True, exist_ok=True)
    with obs_registry.telemetry() as registry:
        if sink is not None:
            registry.sinks.append(sink)
        try:
            runner(args)
        finally:
            if sink is not None:
                sink.emit_registry(registry)
                sink.close()
                if sink.dropped or sink.send_errors:
                    print(f"(sink {args.sink}: {sink.sent} items "
                          f"sent, {sink.dropped} dropped, "
                          f"{sink.send_errors} transport errors)",
                          file=sys.stderr)
        if directory is not None:
            tape = directory / "telemetry.jsonl"
            prom = directory / "telemetry.prom"
            export.write_jsonl(registry, tape)
            prom.write_text(export.prometheus_text(registry),
                            encoding="utf-8")
            print()
            print(export.summary_text(registry))
            print(f"(wrote {tape} and {prom})")


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser.

    Returns:
        The configured :class:`argparse.ArgumentParser`.
    """
    parser = argparse.ArgumentParser(
        prog="repro-freshen",
        description="Reproduce the experiments of 'Scalable "
                    "Application-Aware Data Freshening' (ICDE 2003).")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        extra: dict = {}
        if name == "chaos":
            # The scenario table is generated from the registry, so
            # --help can never drift from the ChaosScenario entries.
            from repro.faults.scenarios import CHAOS_SCENARIOS

            width = max(len(key) for key in CHAOS_SCENARIOS)
            rows = "\n".join(
                f"  {key.ljust(width)}  {scenario.description}"
                for key, scenario in sorted(CHAOS_SCENARIOS.items()))
            extra = {
                "epilog": "scenarios:\n" + rows,
                "formatter_class":
                    argparse.RawDescriptionHelpFormatter,
            }
        sub = subparsers.add_parser(name, help=help_text, **extra)
        sub.add_argument("--seed", type=int, default=0,
                         help="workload seed (default 0)")
        sub.add_argument("--quick", action="store_true",
                         help="shrink grids/sizes for a fast run")
        sub.add_argument("--plot", action="store_true",
                         help="also render an ASCII chart")
        sub.add_argument("--svg", metavar="DIR", default=None,
                         help="also write an SVG chart into DIR")
        sub.add_argument("--telemetry", metavar="DIR", nargs="?",
                         const=".", default=None,
                         help="enable telemetry; write telemetry.jsonl"
                              " and telemetry.prom into DIR (default"
                              " current directory)")
        sub.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes for experiments that "
                              "fan out (0 = all usable CPUs; default 1 = "
                              "serial, bit-identical)")
        sub.add_argument("--sink", metavar="URL", default=None,
                         help="stream telemetry to a live collector "
                              "(statsd://host:port or "
                              "otlp://host[:port][/path]); implies "
                              "telemetry on, never blocks or fails "
                              "the run")
        if name in ("chaos", "adapt"):
            from repro.faults.scenarios import CHAOS_SCENARIOS

            choices = sorted(CHAOS_SCENARIOS)
            if name == "chaos":
                sub.add_argument(
                    "--scenario", choices=[*choices, "all"],
                    default="iid20",
                    help="fault scenario to run (default iid20; see "
                         "the scenario table below)")
                sub.add_argument(
                    "--periods", type=int, default=60,
                    help="periods per arm (default 60)")
                sub.add_argument(
                    "--report-json", metavar="PATH", default=None,
                    help="also write the ChaosReport series and "
                         "summary stats as JSON to PATH")
            else:
                sub.add_argument(
                    "--scenario", choices=[*choices, "all"],
                    default=None,
                    help="optional fault scenario for the loop "
                         "(default: fault-free; 'all' runs the "
                         "fault-free loop plus every scenario)")
                sub.add_argument(
                    "--periods", type=int, default=30,
                    help="periods to run (default 30)")
    obs_sub = subparsers.add_parser(
        "obs", help="Re-render a saved telemetry tape or diff two "
                    "telemetry artifacts")
    obs_actions = obs_sub.add_subparsers(dest="action", required=True)
    for action, help_text in (
            ("summary", "render the human summary table"),
            ("prom", "render the Prometheus text export"),
            ("freshness", "render the per-element staleness table")):
        action_sub = obs_actions.add_parser(action, help=help_text)
        action_sub.add_argument("--tape", metavar="PATH",
                                default="telemetry.jsonl",
                                help="JSONL tape written by "
                                     "--telemetry (default "
                                     "telemetry.jsonl)")
        if action == "freshness":
            action_sub.add_argument(
                "--now", type=float, default=None,
                help="evaluate staleness at this simulated-clock "
                     "time (default: the ledger's latest event)")
    diff_sub = obs_actions.add_parser(
        "diff", help="diff two telemetry tapes; exit 1 on regression")
    diff_sub.add_argument("baseline", help="reference JSONL tape")
    diff_sub.add_argument("candidate", help="JSONL tape under test")
    diff_sub.add_argument("--threshold", type=float, default=0.1,
                          metavar="FRACTION",
                          help="relative tolerance before a "
                               "directional change counts as a "
                               "regression (default 0.1 = 10%%)")
    diff_sub.add_argument("--warn-only", action="store_true",
                          help="print regressions but exit 0")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point.

    Args:
        argv: Argument vector (defaults to ``sys.argv[1:]``).

    Returns:
        Process exit code.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "obs":
        return _run_obs(args)
    runner, _ = _COMMANDS[args.command]
    sink = None
    if getattr(args, "sink", None) is not None:
        from repro.obs.sink import parse_sink_url

        try:
            sink = parse_sink_url(args.sink)
        except ValueError as error:
            print(f"repro --sink: {error}", file=sys.stderr)
            return 2
    if args.telemetry is not None or sink is not None:
        _run_with_telemetry(runner, args, sink)
    else:
        runner(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
