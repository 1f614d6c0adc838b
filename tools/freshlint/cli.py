"""freshlint command-line interface.

Exit codes follow the usual linter convention: 0 clean, 1 violations
found (or remaining after ``--fix``), 2 usage error.

Beyond the per-file rules, the CLI fronts two engines:

* ``--seedflow`` additionally runs the project-wide RNG-provenance
  rules (FL011-FL014) over the whole file set at once;
* ``--fix`` applies every machine-applicable remediation in place
  (``--diff`` shows the rewrites as a unified diff instead of
  writing them).

``--json FILE`` writes the findings as a machine-readable artifact
(``-`` for stdout) — used by the CI lint job.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from freshlint.autofix import fix_file, unified_diff
from freshlint.engine import (
    LintConfig,
    Violation,
    iter_python_files,
    run_paths,
)
from freshlint.rules import ALL_RULES
from freshlint.seedflow import SEEDFLOW_RULES, run_seedflow

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freshlint",
        description=("Domain-aware static analysis for the data-"
                     "freshening codebase (per-file rules FL001-FL010"
                     " and FL015, project-wide seedflow rules"
                     " FL011-FL014)."),
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint "
                             "(default: src)")
    parser.add_argument("--select", metavar="CODES", default="",
                        help="comma-separated rule codes to run "
                             "exclusively (e.g. FL001,FL013)")
    parser.add_argument("--ignore", metavar="CODES", default="",
                        help="comma-separated rule codes to skip")
    parser.add_argument("--seedflow", action="store_true",
                        help="also run the project-wide RNG-provenance"
                             " rules (FL011-FL014)")
    parser.add_argument("--fix", action="store_true",
                        help="apply machine-applicable fixes in place"
                             " (idempotent; exit 1 if violations "
                             "remain)")
    parser.add_argument("--diff", action="store_true",
                        help="with --fix semantics, print the rewrites"
                             " as a unified diff instead of writing")
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="write findings as a JSON artifact "
                             "('-' for stdout)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print every rule and exit")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the summary line")
    return parser


def _parse_codes(raw: str) -> tuple[str, ...]:
    return tuple(code.strip().upper() for code in raw.split(",")
                 if code.strip())


def _violations_payload(violations: Sequence[Violation]) -> str:
    return json.dumps(
        [{"code": v.code, "path": str(v.path), "line": v.line,
          "column": v.column, "message": v.message}
         for v in violations],
        indent=2) + "\n"


def _write_json(target: str, violations: Sequence[Violation]) -> None:
    payload = _violations_payload(violations)
    if target == "-":
        sys.stdout.write(payload)
    else:
        Path(target).write_text(payload, encoding="utf-8")


def _run_fixes(paths: Sequence[str], config: LintConfig, *,
               dry_run: bool) -> tuple[list[Violation], int]:
    """Fix every file under ``paths``; returns (remaining, applied)."""
    remaining: list[Violation] = []
    applied = 0
    for path in iter_python_files(paths):
        original = path.read_text(encoding="utf-8")
        report = fix_file(path, config, write=not dry_run)
        applied += report.applied
        remaining.extend(report.remaining)
        if dry_run and report.changed:
            sys.stdout.write(unified_diff(original, report.new_source,
                                          path))
    return remaining, applied


def main(argv: Sequence[str] | None = None) -> int:
    """Run the linter; returns the process exit code."""
    parser = _build_parser()
    options = parser.parse_args(argv)

    if options.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.code}  {rule.name:<28} {rule.summary}")
        for info in SEEDFLOW_RULES:
            print(f"{info.code}  {info.name:<28} {info.summary}")
        return 0

    known = {rule.code for rule in ALL_RULES}
    known |= {info.code for info in SEEDFLOW_RULES}
    select = _parse_codes(options.select)
    ignore = _parse_codes(options.ignore)
    unknown = (set(select) | set(ignore)) - known
    if unknown:
        parser.error(f"unknown rule code(s): {', '.join(sorted(unknown))}")
    if options.diff and not options.fix:
        parser.error("--diff requires --fix")

    config = LintConfig(select=select, ignore=ignore)

    applied = 0
    if options.fix:
        violations, applied = _run_fixes(options.paths, config,
                                         dry_run=options.diff)
    else:
        violations = run_paths(options.paths, config)
    if options.seedflow:
        violations = violations + run_seedflow(options.paths, config)
        violations.sort(key=lambda v: (str(v.path), v.line, v.column,
                                       v.code))

    for violation in violations:
        print(violation.render())
    if options.json is not None:
        _write_json(options.json, violations)
    if not options.quiet:
        noun = "violation" if len(violations) == 1 else "violations"
        status = f"freshlint: {len(violations)} {noun}"
        if options.fix:
            verb = "previewed" if options.diff else "applied"
            status += f" remaining, {applied} fix(es) {verb}"
        print(status, file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
