"""Lint engine: file discovery, pragma handling, and the lint loop.

The engine is rule-agnostic.  It parses each Python file once into a
:class:`ModuleContext` (source, AST, import-alias map, path-derived
scope flags) and hands the context to every active rule.  Violations
are filtered through ``# freshlint: disable=...`` pragmas before being
reported.

Pragma forms (codes comma-separated, ``FL000`` disables everything):

* line-level — suppresses findings reported *on that line*::

      risky_line()  # freshlint: disable=FL001

* file-level — suppresses a rule for the whole file; put it on its own
  line anywhere in the file (conventionally near the top)::

      # freshlint: disable-file=FL005
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from freshlint.autofix import Fix
    from freshlint.rules import Rule

__all__ = [
    "LintConfig",
    "ModuleContext",
    "Violation",
    "filter_suppressed",
    "iter_python_files",
    "lint_file",
    "parse_module",
    "run_paths",
]

_PRAGMA_RE = re.compile(
    r"#\s*freshlint:\s*(?P<kind>disable(?:-file)?)\s*=\s*"
    r"(?P<codes>FL\d{3}(?:\s*,\s*FL\d{3})*)",
)

#: Pseudo-code accepted in pragmas that matches every rule.
WILDCARD_CODE = "FL000"

_SKIP_DIR_NAMES = {"__pycache__", ".git", ".venv", "node_modules",
                   "build", "dist", ".eggs"}


@dataclass(frozen=True)
class Violation:
    """One finding: a rule fired at a source location.

    ``fix`` optionally carries a machine-applicable remediation (see
    :mod:`freshlint.autofix`); it never participates in equality or
    hashing, so findings compare by location and message alone.
    """

    code: str
    path: Path
    line: int
    column: int
    message: str
    fix: "Fix | None" = field(default=None, compare=False)

    def render(self) -> str:
        """``path:line:col: CODE message`` (editor-clickable)."""
        return (f"{self.path}:{self.line}:{self.column}: "
                f"{self.code} {self.message}")


@dataclass(frozen=True)
class LintConfig:
    """Scope knobs shared by the rules.

    Path globs are matched against the file path relative to the
    repository root (POSIX separators); absolute fallbacks are matched
    against the full path so the linter also works on files outside
    the tree (e.g. pytest ``tmp_path`` fixtures).
    """

    #: Files allowed to create entry-point randomness (argless
    #: ``default_rng()``) and to ``print``.
    entry_point_globs: tuple[str, ...] = (
        "examples/*.py",
        "benchmarks/*.py",
        "tools/*",
        "tools/**/*.py",
        "src/repro/cli.py",
        "src/repro/__main__.py",
    )
    #: Test files: exempt from FL002/FL004/FL007 (tests legitimately
    #: pin exact floats and print diagnostics).
    test_globs: tuple[str, ...] = (
        "tests/*", "tests/**/*", "*/test_*.py", "test_*.py",
        "*/conftest.py", "conftest.py",
    )
    #: Library code: FL004 (units) and FL007 (print) apply here.
    library_globs: tuple[str, ...] = ("src/repro/*", "src/repro/**/*")
    #: Solver paths: FL005 (no ndarray-param mutation) and the strict
    #: half of FL006 (no broad/swallowed except) apply here.
    solver_globs: tuple[str, ...] = (
        "src/repro/core/*.py",
        "src/repro/numerics/*.py",
    )
    #: Clock-disciplined paths: FL009 bans wall-clock reads
    #: (``time.time()``, argless ``datetime.now()``) here — simulated
    #: time and monotonic interval timers only.
    clock_globs: tuple[str, ...] = (
        "src/repro/core/*.py",
        "src/repro/numerics/*.py",
        "src/repro/sim/*.py",
        "src/repro/faults/*.py",
        # The relay-tree modules are named explicitly on top of the
        # faults/ directory glob: hop ledgers and outage windows run
        # purely on simulated time, and that guarantee must survive
        # any future narrowing of the directory-wide entry.
        "src/repro/faults/topology.py",
        "src/repro/faults/correlated.py",
        # Likewise the replay kernels and the event-tape layout: the
        # fastpath rewinds and replays RNG streams against simulated
        # clocks only, so these stay pinned even if the sim/ glob is
        # ever narrowed.
        "src/repro/sim/fastpath.py",
        "src/repro/sim/events.py",
    )
    #: Vectorized-kernel modules: FL014 (dtype discipline, uint64-view
    #: bit-identity comparisons) applies here.  The event-tape module
    #: is pinned alongside the kernels because the structure-of-arrays
    #: layout (float64/int32/int8) is part of the kernel contract.
    kernel_globs: tuple[str, ...] = (
        "src/repro/sim/fastpath.py",
        "src/repro/sim/events.py",
    )
    #: Replay paths: FL015 requires every ``argsort`` to be stable,
    #: since bit-identity with the reference loop rests on tie order.
    replay_globs: tuple[str, ...] = (
        "src/repro/sim/*.py",
        "src/repro/faults/*.py",
        "src/repro/runtime/*.py",
        "src/repro/core/scheduler.py",
    )
    select: tuple[str, ...] = ()
    ignore: tuple[str, ...] = ()


def _match_any(relative: str, full: str, globs: Sequence[str]) -> bool:
    return any(fnmatch(relative, g) or fnmatch(full, g) for g in globs)


@dataclass
class ModuleContext:
    """Everything a rule needs to know about one parsed module."""

    path: Path
    relative_path: str
    source: str
    tree: ast.Module
    config: LintConfig
    lines: Sequence[str] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = tuple(self.source.splitlines())

    @property
    def is_entry_point(self) -> bool:
        """True for scripts allowed ambient randomness and printing."""
        return _match_any(self.relative_path, str(self.path),
                          self.config.entry_point_globs)

    @property
    def is_test(self) -> bool:
        """True for pytest files (exempt from FL002/FL004/FL007)."""
        return _match_any(self.relative_path, str(self.path),
                          self.config.test_globs)

    @property
    def is_library(self) -> bool:
        """True for importable library modules under ``src/repro``."""
        return _match_any(self.relative_path, str(self.path),
                          self.config.library_globs)

    @property
    def is_solver_path(self) -> bool:
        """True for the numeric core (``core/`` and ``numerics/``)."""
        return _match_any(self.relative_path, str(self.path),
                          self.config.solver_globs)

    @property
    def is_clock_path(self) -> bool:
        """True where wall-clock reads are banned (FL009)."""
        return _match_any(self.relative_path, str(self.path),
                          self.config.clock_globs)

    @property
    def is_kernel_path(self) -> bool:
        """True for vectorized-kernel modules (FL014 scope)."""
        return _match_any(self.relative_path, str(self.path),
                          self.config.kernel_globs)

    @property
    def is_replay_path(self) -> bool:
        """True where every argsort must be stable (FL015 scope)."""
        return _match_any(self.relative_path, str(self.path),
                          self.config.replay_globs)

    @property
    def is_package_init(self) -> bool:
        """True for package ``__init__.py`` files."""
        return self.path.name == "__init__.py"

    def import_aliases(self) -> Mapping[str, str]:
        """Map of local name -> fully dotted origin for module imports.

        ``import numpy as np`` yields ``{"np": "numpy"}``;
        ``from numpy.random import default_rng as rng`` yields
        ``{"rng": "numpy.random.default_rng"}``.  Only module-level
        and function-level imports reachable by :func:`ast.walk` are
        recorded; later bindings win, which is close enough for lint
        purposes.
        """
        aliases: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for name in node.names:
                    local = name.asname or name.name.split(".")[0]
                    aliases[local] = name.name if name.asname else local
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue  # relative imports never reach numpy
                for name in node.names:
                    if name.name == "*":
                        continue
                    local = name.asname or name.name
                    aliases[local] = f"{node.module}.{name.name}"
        return aliases

    def resolve_call_target(self, func: ast.expr) -> str | None:
        """Dotted origin of a call target, through import aliases.

        ``np.random.seed`` resolves to ``"numpy.random.seed"`` when
        ``np`` aliases ``numpy``; a bare ``default_rng`` imported from
        ``numpy.random`` resolves to ``"numpy.random.default_rng"``.
        Returns None for calls on non-name roots (attributes of call
        results, subscripts, ...).
        """
        parts: list[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        aliases = self.import_aliases()
        root = aliases.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))


def _parse_pragmas(lines: Sequence[str]) -> tuple[dict[int, set[str]],
                                                  set[str]]:
    """Extract (line-level, file-level) pragma suppressions."""
    per_line: dict[int, set[str]] = {}
    per_file: set[str] = set()
    for lineno, line in enumerate(lines, start=1):
        match = _PRAGMA_RE.search(line)
        if match is None:
            continue
        codes = {c.strip() for c in match.group("codes").split(",")}
        if match.group("kind") == "disable-file":
            per_file |= codes
        else:
            per_line.setdefault(lineno, set()).update(codes)
    return per_line, per_file


def _suppressed(violation: Violation, per_line: Mapping[int, set[str]],
                per_file: set[str]) -> bool:
    def hit(codes: set[str]) -> bool:
        return violation.code in codes or WILDCARD_CODE in codes

    if hit(per_file):
        return True
    line_codes = per_line.get(violation.line)
    return line_codes is not None and hit(line_codes)


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Yield ``*.py`` files under the given files/directories, sorted."""
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if any(part in _SKIP_DIR_NAMES for part in candidate.parts):
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate


def _relative_to_root(path: Path, root: Path | None) -> str:
    base = root if root is not None else Path.cwd()
    try:
        return path.resolve().relative_to(base.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _active_rules(config: LintConfig) -> "list[Rule]":
    from freshlint.rules import ALL_RULES

    rules = list(ALL_RULES)
    if config.select:
        rules = [r for r in rules if r.code in config.select]
    if config.ignore:
        rules = [r for r in rules if r.code not in config.ignore]
    return rules


def parse_module(path: str | Path, config: LintConfig | None = None, *,
                 root: Path | None = None,
                 source: str | None = None) -> ModuleContext | Violation:
    """Parse one file into a :class:`ModuleContext`.

    Returns the context, or an ``FL999`` :class:`Violation` when the
    file does not parse.  ``source`` overrides the on-disk content
    (the autofix engine re-lints rewritten text without writing it).
    """
    config = config or LintConfig()
    path = Path(path)
    if source is None:
        source = path.read_text(encoding="utf-8")
    relative = _relative_to_root(path, root)
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return Violation(code="FL999", path=path,
                         line=error.lineno or 1,
                         column=(error.offset or 1) - 1,
                         message=f"syntax error: {error.msg}")
    return ModuleContext(path=path, relative_path=relative,
                         source=source, tree=tree, config=config)


def filter_suppressed(violations: Iterable[Violation],
                      lines: Sequence[str]) -> list[Violation]:
    """Drop violations silenced by ``# freshlint: disable`` pragmas."""
    per_line, per_file = _parse_pragmas(lines)
    return [v for v in violations
            if not _suppressed(v, per_line, per_file)]


def lint_file(path: str | Path, config: LintConfig | None = None, *,
              root: Path | None = None,
              source: str | None = None) -> list[Violation]:
    """Lint a single file; syntax errors surface as an FL999 finding."""
    config = config or LintConfig()
    context = parse_module(path, config, root=root, source=source)
    if isinstance(context, Violation):
        return [context]
    violations = filter_suppressed(
        (v for rule in _active_rules(config) for v in rule.check(context)),
        context.lines)
    violations.sort(key=lambda v: (v.line, v.column, v.code))
    return violations


def run_paths(paths: Iterable[str | Path],
              config: LintConfig | None = None, *,
              root: Path | None = None) -> list[Violation]:
    """Lint every Python file under ``paths``; the programmatic API."""
    config = config or LintConfig()
    violations: list[Violation] = []
    for path in iter_python_files(paths):
        violations.extend(lint_file(path, config, root=root))
    return violations
