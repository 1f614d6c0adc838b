"""``repro obs diff``: run-to-run regression view for CI gating.

Compares two JSONL telemetry tapes written by ``--telemetry`` as flat
metric inventories, flags directional changes beyond a relative
threshold, and drives a non-zero exit code so a CI job can gate on
it.

Directionality is explicit: freshness gauges are *higher-is-better*
(a drop past the threshold is a regression); ledger staleness and
age are *lower-is-better*; everything else (event counts, bandwidth
totals) is informational and never fails the diff on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List

from repro.obs.export import _format_table, read_jsonl

__all__ = ["DiffRow", "diff_metrics", "format_diff", "load_metrics"]

#: Metric-name suffixes where a relative drop is a regression.
_HIGHER_BETTER = (
    "gauge.sim.monitored_perceived_freshness",
    "gauge.sim.monitored_general_freshness",
    "gauge.monitor.mean_time_freshness",
)

#: Metric-name suffixes where a relative rise is a regression.
_LOWER_BETTER = (
    "ledger.max_staleness",
    "gauge.monitor.mean_time_age",
)


@dataclass
class DiffRow:
    """One metric's baseline/candidate comparison.

    Attributes:
        name: Flattened metric name.
        baseline: Baseline value, or None if absent there.
        candidate: Candidate value, or None if absent there.
        change: Relative change ``(candidate − baseline) /
            |baseline|``, or None when undefined.
        regression: Whether the change crosses the threshold in the
            metric's bad direction.
    """

    name: str
    baseline: float | None
    candidate: float | None
    change: float | None
    regression: bool


def _direction(name: str) -> int:
    """+1 higher-is-better, −1 lower-is-better, 0 informational."""
    if any(name.endswith(suffix) for suffix in _HIGHER_BETTER):
        return 1
    if any(name.endswith(suffix) for suffix in _LOWER_BETTER):
        return -1
    return 0


def load_metrics(path: str | Path) -> Dict[str, float]:
    """Load one telemetry tape as a flat ``name -> value`` inventory:
    counters, gauges and a ledger summary (entry count, stale count
    and max staleness).

    Args:
        path: The JSONL tape to load.

    Returns:
        The flattened metric inventory.

    Raises:
        FileNotFoundError: When the tape does not exist.
        ValueError: When the file holds no telemetry records, or a
            line that is not one (the message names file and line).
    """
    registry = read_jsonl(path)
    if (not registry.counters and not registry.gauges
            and not registry.events and not registry.ledger):
        raise ValueError(f"{path} is not a telemetry tape")
    flat = {f"counter.{name}": float(value)
            for name, value in registry.counters.items()}
    flat.update({f"gauge.{name}": float(value)
                 for name, value in registry.gauges.items()})
    if registry.ledger:
        snapshot = registry.ledger.staleness_snapshot()
        flat["ledger.elements"] = float(len(snapshot))
        flat["ledger.stale_now"] = float(
            sum(1 for _, seconds in snapshot if seconds > 0.0))
        flat["ledger.max_staleness"] = float(
            max((seconds for _, seconds in snapshot), default=0.0))
    return flat


def diff_metrics(baseline: Dict[str, float],
                 candidate: Dict[str, float], *,
                 threshold: float = 0.1) -> List[DiffRow]:
    """Compare two metric inventories.

    Args:
        baseline: The reference inventory.
        candidate: The inventory under test.
        threshold: Relative tolerance before a directional metric's
            change counts as a regression (0.1 = 10%).

    Returns:
        One row per metric in either inventory, sorted with
        regressions first, then by name.
    """
    rows: List[DiffRow] = []
    for name in sorted(set(baseline) | set(candidate)):
        base = baseline.get(name)
        cand = candidate.get(name)
        change: float | None = None
        regression = False
        if base is not None and cand is not None and base:
            change = (cand - base) / abs(base)
            direction = _direction(name)
            if direction > 0:
                regression = change < -threshold
            elif direction < 0:
                regression = change > threshold
        elif base is not None and cand is None:
            # A directional metric vanishing from the candidate is a
            # regression too — a silently dropped gauge must not read
            # as a pass.
            regression = _direction(name) != 0
        rows.append(DiffRow(name=name, baseline=base, candidate=cand,
                            change=change, regression=regression))
    rows.sort(key=lambda row: (not row.regression, row.name))
    return rows


def format_diff(rows: List[DiffRow], *, threshold: float,
                only_changed: bool = True) -> str:
    """Render a diff as the CLI table.

    Args:
        rows: Output of :func:`diff_metrics`.
        threshold: The tolerance used, echoed in the header.
        only_changed: Hide rows whose relative change is below 1e-12
            (directional or not); regressions always show.

    Returns:
        The rendered table plus a one-line verdict.
    """
    shown = [row for row in rows
             if row.regression or not only_changed
             or row.change is None or abs(row.change) > 1e-12]
    cells = []
    for row in shown:
        cells.append((
            row.name,
            "-" if row.baseline is None else f"{row.baseline:g}",
            "-" if row.candidate is None else f"{row.candidate:g}",
            "-" if row.change is None else f"{row.change:+.1%}",
            "REGRESSION" if row.regression else "",
        ))
    n_regressions = sum(row.regression for row in rows)
    header = (f"obs diff ({len(rows)} metrics, threshold "
              f"{threshold:.0%})")
    if not cells:
        return header + "\nno changes\n"
    table = _format_table(
        ["metric", "baseline", "candidate", "change", "flag"], cells)
    verdict = (f"{n_regressions} regression(s) past the threshold"
               if n_regressions else "no regressions")
    return f"{header}\n{table}\n{verdict}\n"
