"""Tests for the CLI entry point."""

from __future__ import annotations

import json
import socket
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.obs.export import write_jsonl
from repro.obs.registry import MetricsRegistry


class TestParser:
    def test_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_rejects_unknown_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["figure4"])

    def test_parses_flags(self):
        args = build_parser().parse_args(
            ["figure3", "--seed", "7", "--quick", "--plot"])
        assert args.command == "figure3"
        assert args.seed == 7
        assert args.quick
        assert args.plot

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("table1", "figure1", "figure2", "figure3",
                        "figure5", "figure6", "figure7", "figure8",
                        "figure9", "figure10", "figure11",
                        "imperfect-knowledge", "mirror-selection",
                        "policy-ablation", "bandwidth-sensitivity",
                        "dispersion-sensitivity", "scale-sensitivity",
                        "representative-ablation", "adaptive",
                        "baseline-comparison", "freshness-age",
                        "burstiness", "report",
                        "crawler-comparison"):
            args = parser.parse_args([command])
            assert args.command == command


class TestExecution:
    def test_table1_output(self, capsys):
        assert main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "Table 1" in output
        assert "1.15" in output
        assert "1.67" in output

    def test_figure1_output(self, capsys):
        assert main(["figure1"]) == 0
        output = capsys.readouterr().out
        assert "figure1" in output
        assert "p=0.0333" in output

    def test_figure1_with_plot(self, capsys):
        assert main(["figure1", "--plot"]) == 0
        output = capsys.readouterr().out
        assert "legend:" in output

    def test_figure10_output(self, capsys):
        assert main(["figure10"]) == 0
        output = capsys.readouterr().out
        assert "figure10a" in output
        assert "perceived freshness" in output

    def test_freshness_age_output(self, capsys):
        assert main(["freshness-age"]) == 0
        output = capsys.readouterr().out
        assert "perceived age" in output
        assert "inf" in output

    def test_adaptive_quick_output(self, capsys):
        assert main(["adaptive", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "adaptive manager" in output
        assert "oracle" in output

    def test_adapt_quick_output(self, capsys):
        assert main(["adapt", "--quick"]) == 0
        output = capsys.readouterr().out
        assert "adaptive loop (fault-free)" in output
        assert "replanned" in output

    def test_adapt_all_fans_out_scenarios(self, capsys):
        from repro.faults.scenarios import CHAOS_SCENARIOS

        assert main(["adapt", "--quick", "--scenario", "all",
                     "--periods", "4"]) == 0
        output = capsys.readouterr().out
        assert "adaptive loop (fault-free)" in output
        for name in CHAOS_SCENARIOS:
            assert f"chaos scenario {name!r}" in output

    def test_adapt_parses_jobs_and_all(self):
        args = build_parser().parse_args(
            ["adapt", "--scenario", "all", "--jobs", "2"])
        assert args.scenario == "all"
        assert args.jobs == 2


class TestChaosCommand:
    def test_help_table_is_generated_from_the_registry(self, capsys):
        """The --help scenario table must list every registered
        scenario with its description, so it can never drift from
        the ChaosScenario entries."""
        from repro.faults.scenarios import CHAOS_SCENARIOS

        with pytest.raises(SystemExit):
            main(["chaos", "--help"])
        output = capsys.readouterr().out
        assert "scenarios:" in output
        for name, scenario in CHAOS_SCENARIOS.items():
            assert name in output
            assert scenario.description in output

    def test_parses_topology_scenarios_and_report_json(self):
        args = build_parser().parse_args(
            ["chaos", "--scenario", "relay-cascade", "--jobs", "4",
             "--report-json", "out.json"])
        assert args.scenario == "relay-cascade"
        assert args.jobs == 4
        assert args.report_json == "out.json"
        for name in ("herding", "partition"):
            assert build_parser().parse_args(
                ["chaos", "--scenario", name]).scenario == name

    def test_report_json_writes_the_report_list(self, capsys,
                                                tmp_path):
        path = tmp_path / "chaos.json"
        assert main(["chaos", "--quick", "--scenario",
                     "relay-cascade",
                     "--report-json", str(path)]) == 0
        output = capsys.readouterr().out
        assert "relay-cascade" in output
        assert f"(wrote {path})" in output
        payload = json.loads(path.read_text())
        assert isinstance(payload, list) and len(payload) == 1
        assert payload[0]["scenario"] == "relay-cascade"
        assert len(payload[0]["aware_pf"]) == payload[0]["n_periods"]
        assert payload[0]["recovery"] > 0.0


class TestTelemetry:
    def test_telemetry_flag_parses_with_and_without_directory(self):
        parser = build_parser()
        assert parser.parse_args(["table1"]).telemetry is None
        assert parser.parse_args(["table1", "--telemetry"]).telemetry == "."
        args = parser.parse_args(["table1", "--telemetry", "out"])
        assert args.telemetry == "out"

    def test_obs_subcommand_parses(self):
        args = build_parser().parse_args(
            ["obs", "prom", "--tape", "t.jsonl"])
        assert args.command == "obs"
        assert args.action == "prom"
        assert args.tape == "t.jsonl"

    def test_telemetry_run_writes_tape_and_prom(self, capsys, tmp_path):
        assert main(["table1", "--quick",
                     "--telemetry", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "Table 1" in output
        assert "telemetry summary" in output or "counters" in output
        tape = tmp_path / "telemetry.jsonl"
        prom = tmp_path / "telemetry.prom"
        assert tape.exists() and prom.exists()
        lines = [json.loads(line)
                 for line in tape.read_text().splitlines()]
        spans = [line for line in lines if line.get("kind") == "span"]
        assert any(line["path"].endswith("solver.solve_weighted")
                   for line in spans)
        assert "repro_solver_calls_total" in prom.read_text()

    def test_telemetry_sim_run_records_period_series(self, capsys,
                                                     tmp_path):
        assert main(["burstiness", "--quick",
                     "--telemetry", str(tmp_path)]) == 0
        lines = [json.loads(line) for line in
                 (tmp_path / "telemetry.jsonl").read_text().splitlines()]
        periods = [line for line in lines
                   if line.get("kind") == "sim.period"]
        assert periods
        assert all("budget_utilization" in line for line in periods)

    def test_obs_missing_tape_fails_cleanly(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.jsonl")
        assert main(["obs", "summary", "--tape", missing]) == 1
        captured = capsys.readouterr()
        assert "no tape at" in captured.err
        assert "--telemetry" in captured.err

    def test_obs_summary_round_trips_a_tape(self, capsys, tmp_path):
        assert main(["table1", "--quick",
                     "--telemetry", str(tmp_path)]) == 0
        capsys.readouterr()
        tape = str(tmp_path / "telemetry.jsonl")
        assert main(["obs", "summary", "--tape", tape]) == 0
        summary = capsys.readouterr().out
        assert "solver.calls" in summary
        assert main(["obs", "prom", "--tape", tape]) == 0
        prom = capsys.readouterr().out
        assert prom == (tmp_path / "telemetry.prom").read_text()


class TestObsFreshness:
    def test_freshness_table_from_a_sim_tape(self, capsys, tmp_path):
        assert main(["burstiness", "--quick",
                     "--telemetry", str(tmp_path)]) == 0
        capsys.readouterr()
        tape = str(tmp_path / "telemetry.jsonl")
        assert main(["obs", "freshness", "--tape", tape]) == 0
        output = capsys.readouterr().out
        assert "freshness overview" in output
        assert "staleness percentiles" in output
        assert "stalest elements" in output

    def test_freshness_accepts_explicit_now(self, capsys, tmp_path):
        assert main(["burstiness", "--quick",
                     "--telemetry", str(tmp_path)]) == 0
        capsys.readouterr()
        tape = str(tmp_path / "telemetry.jsonl")
        assert main(["obs", "freshness", "--tape", tape,
                     "--now", "1e9"]) == 0
        assert "1e+09" in capsys.readouterr().out

    def test_freshness_on_ledgerless_tape(self, capsys, tmp_path):
        assert main(["table1", "--quick",
                     "--telemetry", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["obs", "freshness", "--tape",
                     str(tmp_path / "telemetry.jsonl")]) == 0
        assert "ledger is empty" in capsys.readouterr().out


class TestObsDiff:
    """``repro obs diff`` gates telemetry tapes (acceptance criterion:
    a ≥20% injected freshness regression must exit non-zero)."""

    @staticmethod
    def _tape(path, *, counters=(), gauges=()):
        registry = MetricsRegistry()
        registry.counters.update(counters)
        registry.gauges.update(gauges)
        return str(write_jsonl(registry, path))

    def _tape_pair(self, tmp_path, scale: float):
        """Two tapes; the candidate's higher-is-better freshness gauge
        is the baseline's scaled by ``scale``."""
        counters = {"sim.runs": 4.0}
        return (self._tape(tmp_path / "base.jsonl", counters=counters,
                           gauges={"sim.monitored_perceived_freshness":
                                   0.8}),
                self._tape(tmp_path / "cand.jsonl", counters=counters,
                           gauges={"sim.monitored_perceived_freshness":
                                   0.8 * scale}))

    def test_identical_files_pass(self, capsys, tmp_path):
        base, _ = self._tape_pair(tmp_path, 1.0)
        assert main(["obs", "diff", base, base]) == 0
        output = capsys.readouterr().out
        assert "no changes" in output or "no regressions" in output

    def test_injected_regression_fails(self, capsys, tmp_path):
        base, cand = self._tape_pair(tmp_path, 0.7)
        assert main(["obs", "diff", base, cand]) == 1
        output = capsys.readouterr().out
        assert "REGRESSION" in output
        assert "sim.monitored_perceived_freshness" in output

    def test_warn_only_reports_but_passes(self, capsys, tmp_path):
        base, cand = self._tape_pair(tmp_path, 0.7)
        assert main(["obs", "diff", base, cand, "--warn-only"]) == 0
        output = capsys.readouterr().out
        assert "REGRESSION" in output
        assert "warn-only" in output

    def test_threshold_is_respected(self, tmp_path, capsys):
        # A 10% dip passes at --threshold 0.2 but fails at 0.05.
        base, cand = self._tape_pair(tmp_path, 0.9)
        assert main(["obs", "diff", base, cand,
                     "--threshold", "0.2"]) == 0
        capsys.readouterr()
        assert main(["obs", "diff", base, cand,
                     "--threshold", "0.05"]) == 1

    def test_tape_self_diff_passes(self, capsys, tmp_path):
        assert main(["burstiness", "--quick",
                     "--telemetry", str(tmp_path)]) == 0
        capsys.readouterr()
        tape = str(tmp_path / "telemetry.jsonl")
        assert main(["obs", "diff", tape, tape]) == 0

    def test_one_line_tape_is_a_tape(self, capsys, tmp_path):
        # A tape holding one counter is one JSON object; it must still
        # load as a tape, not be rejected as some other document.
        tape = self._tape(tmp_path / "one.jsonl",
                          counters={"sim.runs": 1.0})
        assert len(Path(tape).read_text().splitlines()) == 1
        assert main(["obs", "diff", tape, tape]) == 0
        assert "no changes" in capsys.readouterr().out

    def test_json_without_tape_records_exits_2(self, capsys, tmp_path):
        # A JSON object with no "kind" key is not a tape record; it
        # must not diff as an empty tape and pass the gate.
        base, _ = self._tape_pair(tmp_path, 1.0)
        other = tmp_path / "bench.json"
        other.write_text('{"benchmark": 1}\n')
        assert main(["obs", "diff", base, str(other)]) == 2
        error = capsys.readouterr().err
        assert "bench.json:1" in error
        assert "not a telemetry record" in error

    def test_pretty_printed_json_names_file_and_line(self, capsys,
                                                     tmp_path):
        base, _ = self._tape_pair(tmp_path, 1.0)
        pretty = tmp_path / "pretty.json"
        pretty.write_text('{\n  "kind": "metric"\n}\n')
        assert main(["obs", "diff", str(pretty), base]) == 2
        assert "pretty.json:1" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        base, _ = self._tape_pair(tmp_path, 1.0)
        missing = str(tmp_path / "nope.jsonl")
        assert main(["obs", "diff", base, missing]) == 2
        assert "nope.jsonl" in capsys.readouterr().err


class TestSinkFlag:
    def test_sink_flag_parses(self):
        args = build_parser().parse_args(
            ["table1", "--sink", "statsd://127.0.0.1:8125"])
        assert args.sink == "statsd://127.0.0.1:8125"
        assert build_parser().parse_args(["table1"]).sink is None

    def test_sink_streams_to_udp_listener(self, capsys):
        listener = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        listener.bind(("127.0.0.1", 0))
        listener.settimeout(2.0)
        port = listener.getsockname()[1]
        try:
            assert main(["table1", "--quick", "--sink",
                         f"statsd://127.0.0.1:{port}"]) == 0
            lines = []
            while not any(
                    line.startswith("repro.solver.calls:")
                    for line in lines):
                data, _ = listener.recvfrom(65536)
                lines.extend(data.decode("utf-8").splitlines())
        finally:
            listener.close()
        assert all("|c" in line or "|g" in line for line in lines)

    def test_dead_sink_never_fails_the_run(self, capsys):
        # Connection-refused OTLP collector: the run must still pass.
        assert main(["table1", "--quick", "--sink",
                     "otlp://127.0.0.1:1"]) == 0
        captured = capsys.readouterr()
        assert "Table 1" in captured.out
        assert "transport error" in captured.err

    def test_bad_sink_url_fails_cleanly(self, capsys):
        assert main(["table1", "--quick", "--sink",
                     "gopher://x"]) == 2
        assert "sink" in capsys.readouterr().err
