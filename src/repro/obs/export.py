"""freshtrace exporters: JSONL tape, Prometheus text, summary table.

Three consumers, three formats:

* :func:`write_jsonl` / :func:`read_jsonl` — the **event tape**: one
  JSON object per line, every tape event first (in append order),
  then one ``metric`` line per counter/gauge/histogram/span-total
  final value.  A tape round-trips: ``read_jsonl`` rebuilds a
  :class:`~repro.obs.registry.MetricsRegistry` whose exports are
  byte-identical to the live one's.
* :func:`prometheus_text` — the Prometheus text exposition format
  (``repro_`` prefix, counters suffixed ``_total``, histograms with
  cumulative ``_bucket{le=...}`` series, spans as summaries).
* :func:`summary_text` — the human table behind
  ``repro obs summary`` and the ``--telemetry`` epilogue.
* :func:`freshness_text` — the per-element staleness-percentile
  table behind ``repro obs freshness``, rendered from the
  registry's :class:`~repro.obs.ledger.FreshnessLedger`.

The tape also carries the freshness ledger (one ``metric`` line of
type ``ledger`` per entry) and, for merged registries, the
``worker`` origin tag on gauge lines, so merged-registry exports
round-trip exactly like single-process ones.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from repro.obs.ledger import FreshnessLedger
from repro.obs.registry import Histogram, MetricsRegistry

__all__ = [
    "freshness_text",
    "prometheus_text",
    "read_jsonl",
    "summary_text",
    "write_jsonl",
]

_PROM_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")


def _coerce(value: Any) -> Any:
    """JSON fallback: numpy scalars and other floatables become float."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


def write_jsonl(registry: MetricsRegistry, path: str | Path) -> Path:
    """Write a registry to a JSONL tape file.

    Args:
        registry: The registry to serialize.
        path: Destination file path.

    Returns:
        The path written, for chaining.
    """
    path = Path(path)
    lines: List[str] = []
    for record in registry.events:
        lines.append(json.dumps(record, default=_coerce))
    for name, value in sorted(registry.counters.items()):
        lines.append(json.dumps({"kind": "metric", "type": "counter",
                                 "name": name, "value": value}))
    for name, value in sorted(registry.gauges.items()):
        record = {"kind": "metric", "type": "gauge",
                  "name": name, "value": value}
        origin = registry.gauge_origins.get(name)
        if origin is not None:
            record["worker"] = origin
        lines.append(json.dumps(record))
    for name, histogram in sorted(registry.histograms.items()):
        lines.append(json.dumps(
            {"kind": "metric", "type": "histogram", "name": name,
             "buckets": list(histogram.buckets),
             "counts": list(histogram.counts),
             "total": histogram.total, "count": histogram.count}))
    for span_path, (count, total) in sorted(registry.span_totals.items()):
        lines.append(json.dumps(
            {"kind": "metric", "type": "span", "name": span_path,
             "count": count, "total_s": total}))
    for entry in registry.ledger.as_records():
        lines.append(json.dumps({"kind": "metric", "type": "ledger",
                                 **entry}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_jsonl(path: str | Path) -> MetricsRegistry:
    """Rebuild a registry from a JSONL tape.

    Tape events are replayed onto the event list verbatim; ``metric``
    lines restore the counter/gauge/histogram/span-total snapshots, so
    :func:`prometheus_text` and :func:`summary_text` render the same
    output from the reloaded registry as from the original.

    Args:
        path: A tape produced by :func:`write_jsonl`.

    Returns:
        The reconstructed registry.

    Raises:
        ValueError: Naming the file and line, when a line is not JSON
            or not a record (every tape line is a JSON object with a
            ``kind`` key).
    """
    registry = MetricsRegistry()
    ledger_records: List[Dict[str, Any]] = []
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record: Dict[str, Any] = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(
                f"{path}:{number}: not a telemetry tape line ({error})"
            ) from None
        if not isinstance(record, dict) or "kind" not in record:
            raise ValueError(
                f"{path}:{number}: not a telemetry record (a JSON object "
                "with a 'kind' key)")
        if record["kind"] != "metric":
            registry.events.append(record)
            continue
        kind = record.get("type")
        if kind == "ledger":
            ledger_records.append(record)
            continue
        name = record["name"]
        if kind == "counter":
            registry.counters[name] = float(record["value"])
        elif kind == "gauge":
            registry.gauges[name] = float(record["value"])
            if record.get("worker") is not None:
                registry.gauge_origins[name] = str(record["worker"])
        elif kind == "histogram":
            histogram = Histogram(record["buckets"])
            histogram.counts = [int(n) for n in record["counts"]]
            histogram.total = float(record["total"])
            histogram.count = int(record["count"])
            registry.histograms[name] = histogram
        elif kind == "span":
            registry.span_totals[name] = [float(record["count"]),
                                          float(record["total_s"])]
    if ledger_records:
        registry.ledger = FreshnessLedger.from_records(ledger_records)
    return registry


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

def _prom_name(name: str) -> str:
    return "repro_" + _PROM_SANITIZE.sub("_", name)


def _prom_number(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value) if isinstance(value, float) else str(value)


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render a registry in the Prometheus text exposition format.

    Counters are suffixed ``_total``, histograms emit cumulative
    ``_bucket{le="..."}`` series plus ``_sum``/``_count``, and span
    totals appear as ``repro_span_seconds`` summaries labelled by
    span path (seconds of monotonic wall time).
    """
    out: List[str] = []
    for name, value in sorted(registry.counters.items()):
        metric = _prom_name(name) + "_total"
        out.append(f"# TYPE {metric} counter")
        out.append(f"{metric} {_prom_number(value)}")
    for name, value in sorted(registry.gauges.items()):
        metric = _prom_name(name)
        out.append(f"# TYPE {metric} gauge")
        origin = registry.gauge_origins.get(name)
        if origin is not None:
            out.append(f'{metric}{{worker="{origin}"}} '
                       f"{_prom_number(value)}")
        else:
            out.append(f"{metric} {_prom_number(value)}")
    for name, histogram in sorted(registry.histograms.items()):
        metric = _prom_name(name)
        out.append(f"# TYPE {metric} histogram")
        for bound, cumulative in histogram.cumulative():
            out.append(f'{metric}_bucket{{le="{_prom_number(bound)}"}} '
                       f"{cumulative}")
        out.append(f"{metric}_sum {_prom_number(histogram.total)}")
        out.append(f"{metric}_count {histogram.count}")
    if registry.span_totals:
        out.append("# TYPE repro_span_seconds summary")
        for span_path, (count, total) in sorted(
                registry.span_totals.items()):
            out.append(f'repro_span_seconds_sum{{span="{span_path}"}} '
                       f"{_prom_number(total)}")
            out.append(f'repro_span_seconds_count{{span="{span_path}"}} '
                       f"{int(count)}")
    if registry.ledger:
        snapshot = registry.ledger.staleness_snapshot()
        out.append("# TYPE repro_freshness_refreshes_total counter")
        for record in registry.ledger.as_records():
            out.append(
                f'repro_freshness_refreshes_total'
                f'{{element="{record["element"]}"}} '
                f'{int(record["refreshes"])}')
        out.append("# TYPE repro_freshness_stale_seconds gauge")
        for label, seconds in snapshot:
            out.append(f'repro_freshness_stale_seconds'
                       f'{{element="{label}"}} '
                       f"{_prom_number(seconds)}")
    return "\n".join(out) + ("\n" if out else "")


# ---------------------------------------------------------------------------
# Human summary
# ---------------------------------------------------------------------------

def _format_table(headers: Sequence[str],
                  rows: Sequence[Sequence[Any]]) -> str:
    cells = [[str(cell) for cell in row] for row in rows]
    widths = [max(len(header), *(len(row[i]) for row in cells))
              if cells else len(header)
              for i, header in enumerate(headers)]
    def line(row: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width)
                         for cell, width in zip(row, widths)).rstrip()
    rule = "  ".join("-" * width for width in widths)
    return "\n".join([line(list(headers)), rule,
                      *(line(row) for row in cells)])


def summary_text(registry: MetricsRegistry) -> str:
    """Render the human summary table for a registry.

    Sections (each omitted when empty): counters, gauges, histograms
    (count/mean), spans (count, total and mean seconds of wall time),
    and event-tape kinds with their record counts.
    """
    sections: List[str] = []
    if registry.counters:
        rows = [(name, f"{value:g}")
                for name, value in sorted(registry.counters.items())]
        sections.append("counters\n"
                        + _format_table(["name", "total"], rows))
    if registry.gauges:
        rows = [(name, f"{value:.6g}")
                for name, value in sorted(registry.gauges.items())]
        sections.append("gauges\n"
                        + _format_table(["name", "value"], rows))
    if registry.histograms:
        rows = [(name, histogram.count, f"{histogram.mean:.3g}",
                 f"{histogram.total:g}")
                for name, histogram in sorted(
                    registry.histograms.items())]
        sections.append("histograms\n" + _format_table(
            ["name", "count", "mean", "sum"], rows))
    if registry.span_totals:
        span_rows: List[Tuple[str, int, str, str]] = []
        for span_path, (count, total) in sorted(
                registry.span_totals.items()):
            mean = total / count if count else 0.0
            span_rows.append((span_path, int(count), f"{total:.4f}",
                              f"{mean:.4f}"))
        sections.append("spans (wall seconds)\n" + _format_table(
            ["path", "count", "total_s", "mean_s"], span_rows))
    kinds: Dict[str, int] = {}
    for record in registry.events:
        kind = str(record.get("kind", "?"))
        kinds[kind] = kinds.get(kind, 0) + 1
    if kinds:
        rows = [(kind, count) for kind, count in sorted(kinds.items())]
        sections.append("event tape\n"
                        + _format_table(["kind", "records"], rows))
    if registry.ledger:
        snapshot = registry.ledger.staleness_snapshot()
        stale = sum(1 for _, seconds in snapshot if seconds > 0.0)
        sections.append("freshness ledger\n" + _format_table(
            ["elements", "stale now", "max stale"],
            [(len(snapshot), stale,
              f"{max(s for _, s in snapshot):g}" if snapshot
              else "0")]))
    if not sections:
        return "telemetry: registry is empty\n"
    return "\n\n".join(sections) + "\n"


# ---------------------------------------------------------------------------
# Freshness ledger table
# ---------------------------------------------------------------------------

def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    rank = max(int(math.ceil(q / 100.0 * len(sorted_values))), 1)
    return sorted_values[rank - 1]


def freshness_text(registry: MetricsRegistry,
                   now: float | None = None) -> str:
    """Render the per-element staleness table behind
    ``repro obs freshness``.

    Three sections: an overview (element count, how many are stale at
    ``now``, total refreshes/run-opening updates), the staleness
    percentiles across elements (p50/p90/p99/max, simulated clock
    units), and the ten stalest elements with their raw ledger state.

    Args:
        now: Evaluation time on the simulated clock; defaults to the
            latest event the ledger has seen.

    Returns:
        The rendered table, or a one-line notice when the registry's
        ledger is empty.
    """
    ledger = registry.ledger
    if not ledger:
        return ("freshness: ledger is empty "
                "(run with --telemetry, or load a tape that has "
                "ledger lines)\n")
    snapshot = ledger.staleness_snapshot(now)
    staleness = sorted(seconds for _, seconds in snapshot)
    stale_count = sum(1 for seconds in staleness if seconds > 0.0)
    refreshes = sum(entry.refreshes
                    for entry in ledger.entries.values())
    stales = sum(entry.stales for entry in ledger.entries.values())
    eval_at = now if now is not None else ledger.last_event_time()
    sections = ["freshness overview\n" + _format_table(
        ["elements", "stale now", "refreshes", "stale runs", "now"],
        [(len(snapshot), stale_count, refreshes, stales,
          f"{eval_at:g}" if eval_at is not None else "-")])]
    sections.append("staleness percentiles (clock units)\n"
                    + _format_table(
                        ["p50", "p90", "p99", "max"],
                        [tuple(f"{_percentile(staleness, q):g}"
                               for q in (50.0, 90.0, 99.0, 100.0))]))
    stalest = sorted(snapshot, key=lambda pair: -pair[1])[:10]
    rows = []
    for label, seconds in stalest:
        entry = ledger.entries[label]
        rows.append((
            label, f"{seconds:g}",
            "-" if entry.refreshed_at is None
            else f"{entry.refreshed_at:g}",
            "-" if entry.stale_since is None
            else f"{entry.stale_since:g}",
            entry.refreshes, entry.stales))
    sections.append("stalest elements\n" + _format_table(
        ["element", "stale_s", "refreshed_at", "stale_since",
         "refreshes", "stale_runs"], rows))
    return "\n\n".join(sections) + "\n"
