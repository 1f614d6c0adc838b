"""Tier-1 static-analysis gate.

This module is the enforcement point for freshlint: the repository
tree must lint clean, and the gate must demonstrably *fail* when a
violation is introduced (negative tests seed FL001/FL003 violations
into a scratch tree shaped like ``src/`` and assert they are caught).

ruff and mypy are exercised when installed (the CI image installs
them via the ``lint`` extra); locally they are optional and the tests
skip rather than fail, keeping tier-1 runnable on the bare toolchain.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from freshlint import run_paths, run_seedflow

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "freshlint"

#: The paths the linter must keep clean (mirrors CI and the docs).
LINTED_PATHS = ("src", "examples", "benchmarks", "tools")


def _lint_repo() -> list:
    paths = [REPO_ROOT / p for p in LINTED_PATHS if (REPO_ROOT / p).exists()]
    return run_paths(paths, root=REPO_ROOT)


# ---------------------------------------------------------------------------
# positive gate: the tree is clean


def test_repository_tree_is_freshlint_clean() -> None:
    violations = _lint_repo()
    rendered = "\n".join(v.render() for v in violations)
    assert not violations, f"freshlint violations:\n{rendered}"


def test_linted_paths_exist() -> None:
    # Guard against the gate silently passing because a path vanished.
    for path in ("src", "examples", "benchmarks", "tools"):
        assert (REPO_ROOT / path).is_dir(), f"missing linted path {path}/"


def test_module_invocation_is_clean() -> None:
    """``python -m freshlint`` (the documented entry point) exits 0."""
    env_path = str(REPO_ROOT / "tools")
    result = subprocess.run(
        [sys.executable, "-m", "freshlint", *LINTED_PATHS, "--quiet"],
        cwd=REPO_ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": env_path},
    )
    assert result.returncode == 0, result.stdout + result.stderr


# ---------------------------------------------------------------------------
# negative gate: seeded violations are caught


def _seed_tree(base: Path, relative: str, fixture: str) -> Path:
    """Copy a bad fixture into a src/-shaped scratch tree.

    The scratch root must come from ``tmp_path_factory.mktemp`` with a
    neutral name: pytest's per-test ``tmp_path`` embeds the test name
    (``test_...``), which the linter's full-path test-glob fallback
    would match, exempting the seeded file from test-scoped rules.
    """
    destination = base / relative
    destination.parent.mkdir(parents=True, exist_ok=True)
    shutil.copy(FIXTURES / fixture, destination)
    return base


def test_gate_catches_seeded_fl001_violation(
        tmp_path_factory: pytest.TempPathFactory) -> None:
    root = _seed_tree(tmp_path_factory.mktemp("seeded_tree"),
                      "src/repro/numerics/streams.py",
                      "bad_fl001_legacy_rng.py")
    violations = run_paths([root / "src"], root=root)
    assert {"FL001"} == {v.code for v in violations}
    assert len(violations) == 4


def test_gate_catches_seeded_fl003_violation(
        tmp_path_factory: pytest.TempPathFactory) -> None:
    root = _seed_tree(tmp_path_factory.mktemp("seeded_tree"),
                      "src/repro/workloads/__init__.py",
                      "bad_fl003_pkg/__init__.py")
    violations = run_paths([root / "src"], root=root)
    assert "FL003" in {v.code for v in violations}


def test_gate_catches_seeded_mutation_in_solver_path(
        tmp_path_factory: pytest.TempPathFactory) -> None:
    root = _seed_tree(tmp_path_factory.mktemp("seeded_tree"),
                      "src/repro/core/mutate.py",
                      "bad_fl005_mutation.py")
    violations = run_paths([root / "src"], root=root)
    assert "FL005" in {v.code for v in violations}


def test_gate_catches_seeded_import_cycle(
        tmp_path_factory: pytest.TempPathFactory) -> None:
    root = tmp_path_factory.mktemp("seeded_tree")
    package = root / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text('"""Seeded pkg."""\n',
                                         encoding="utf-8")
    (package / "first.py").write_text(
        '"""Half a cycle."""\nfrom repro import second\n',
        encoding="utf-8")
    (package / "second.py").write_text(
        '"""Other half."""\nfrom repro import first\n',
        encoding="utf-8")
    violations = run_paths([root / "src"], root=root)
    assert "FL008" in {v.code for v in violations}


def test_gate_catches_seeded_wall_clock_in_sim_path(
        tmp_path_factory: pytest.TempPathFactory) -> None:
    root = _seed_tree(tmp_path_factory.mktemp("seeded_tree"),
                      "src/repro/sim/clocked.py",
                      "bad_fl009_wall_clock.py")
    violations = run_paths([root / "src"], root=root)
    assert "FL009" in {v.code for v in violations}


@pytest.mark.parametrize("module", ["topology.py", "correlated.py"])
def test_gate_catches_wall_clock_in_relay_tree_modules(
        tmp_path_factory: pytest.TempPathFactory,
        module: str) -> None:
    """Hop ledgers and outage windows run on simulated time only:
    a wall-clock read seeded into either relay-tree module must
    trip FL009 under the default (unwidened) config."""
    root = _seed_tree(tmp_path_factory.mktemp("seeded_tree"),
                      f"src/repro/faults/{module}",
                      "bad_fl009_wall_clock.py")
    violations = run_paths([root / "src"], root=root)
    assert "FL009" in {v.code for v in violations}


@pytest.mark.parametrize("module", ["topology.py", "correlated.py"])
def test_relay_tree_modules_sit_in_the_strict_scopes(
        module: str) -> None:
    """The real topology modules match the default clock and library
    globs — both the faults/ directory glob and their explicit
    entries — so FL009 and the seedflow FL011 gate cover them."""
    from freshlint import parse_module

    context = parse_module(
        REPO_ROOT / "src" / "repro" / "faults" / module,
        root=REPO_ROOT)
    assert context.is_clock_path
    assert context.is_library


@pytest.mark.parametrize("module", ["fastpath.py", "events.py"])
def test_kernel_modules_sit_in_the_strict_scopes(
        module: str) -> None:
    """The replay kernel and the event-tape layout are pinned into
    both the FL009 clock scope (explicit entries on top of the sim/
    glob) and the FL014 kernel-dtype scope, so wall-clock reads and
    dtype indiscipline trip the gate under the default config."""
    from freshlint import parse_module

    context = parse_module(
        REPO_ROOT / "src" / "repro" / "sim" / module,
        root=REPO_ROOT)
    assert context.is_clock_path
    assert context.is_kernel_path
    assert context.is_library


@pytest.mark.parametrize("relative", [
    "src/repro/sim/grouping.py", "src/repro/faults/grouping.py",
    "src/repro/runtime/grouping.py", "src/repro/core/scheduler.py"])
def test_gate_catches_unstable_argsort_on_replay_paths(
        tmp_path_factory: pytest.TempPathFactory, relative: str) -> None:
    """An argsort without kind="stable" seeded into any replay-path
    module trips FL015 under the default (unwidened) config."""
    root = _seed_tree(tmp_path_factory.mktemp("seeded_tree"), relative,
                      "bad_fl015_unstable_argsort.py")
    violations = run_paths([root / "src"], root=root)
    assert "FL015" in {v.code for v in violations}


def test_gate_catches_dtype_indiscipline_in_events_module(
        tmp_path_factory: pytest.TempPathFactory) -> None:
    """FL014 must police the tape layout, not just the kernels:
    loose-dtype code seeded into the events module trips the gate
    under the default (unwidened) config."""
    root = _seed_tree(tmp_path_factory.mktemp("seeded_tree"),
                      "src/repro/sim/events.py",
                      "bad_fl014_loose_dtypes.py")
    violations = run_seedflow([root / "src"], root=root)
    assert "FL014" in {v.code for v in violations}


# ---------------------------------------------------------------------------
# seedflow: project-wide RNG-provenance gate


def test_repository_tree_is_seedflow_clean() -> None:
    paths = [REPO_ROOT / p for p in LINTED_PATHS
             if (REPO_ROOT / p).exists()]
    violations = run_seedflow(paths, root=REPO_ROOT)
    rendered = "\n".join(v.render() for v in violations)
    assert not violations, f"seedflow violations:\n{rendered}"


def test_seedflow_cli_invocation_is_clean() -> None:
    """``python -m freshlint --seedflow`` (the CI step) exits 0."""
    env_path = str(REPO_ROOT / "tools")
    result = subprocess.run(
        [sys.executable, "-m", "freshlint", *LINTED_PATHS,
         "--seedflow", "--quiet"],
        cwd=REPO_ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": env_path},
    )
    assert result.returncode == 0, result.stdout + result.stderr


def test_gate_catches_seeded_non_crn_rng(
        tmp_path_factory: pytest.TempPathFactory) -> None:
    root = _seed_tree(tmp_path_factory.mktemp("seeded_tree"),
                      "src/repro/analysis/raw_seed.py",
                      "bad_fl011_raw_seed.py")
    violations = run_seedflow([root / "src"], root=root)
    assert {"FL011"} == {v.code for v in violations}


def test_gate_catches_seeded_rng_pool_crossing(
        tmp_path_factory: pytest.TempPathFactory) -> None:
    root = _seed_tree(tmp_path_factory.mktemp("seeded_tree"),
                      "src/repro/analysis/pool_rng.py",
                      "bad_fl012_rng_to_pool.py")
    violations = run_seedflow([root / "src"], root=root)
    assert "FL012" in {v.code for v in violations}


def test_kernel_pair_annotations_are_registered() -> None:
    """The fastpath kernels must stay paired with their references."""
    from freshlint import build_project

    project = build_project([REPO_ROOT / "src" / "repro"],
                            root=REPO_ROOT)
    paired = {pair.kernel: pair.reference for pair in project.pairs}
    assert paired.get("repro.sim.fastpath.replay_fastpath") == \
        "repro.sim.simulation.Simulation.run"
    assert paired.get("repro.sim.fastpath.StreamingReplay.feed") \
        == "repro.sim.simulation.Simulation.run"
    assert paired.get("repro.sim.fastpath.replay_window_tapes") == \
        "repro.sim.simulation.Simulation.run"
    assert paired.get("repro.sim.fastpath.resolve_iid_faults") == \
        "repro.faults.channel.SyncChannel.sync"
    assert paired.get("repro.sim.fastpath.resolve_ge_faults") == \
        "repro.faults.channel.SyncChannel.sync"
    assert paired.get("repro.sim.fastpath._resolve_on_pool") == \
        "repro.faults.channel.SyncChannel.sync"


def test_bad_fixtures_are_not_in_the_linted_tree() -> None:
    """The seeded-violation fixtures must never be linted by the gate."""
    linted = {v.path.resolve() for v in _lint_repo()}
    assert not any(FIXTURES in p.parents for p in linted)
    # And structurally: fixtures live under tests/, which is not linted.
    assert FIXTURES.is_relative_to(REPO_ROOT / "tests")


# ---------------------------------------------------------------------------
# ruff / mypy (optional locally, mandatory in CI)


def _tool_missing(tool: str) -> bool:
    return shutil.which(tool) is None


@pytest.mark.skipif(_tool_missing("ruff"),
                    reason="ruff not installed (CI installs the lint extra)")
def test_ruff_is_clean() -> None:
    result = subprocess.run(
        ["ruff", "check", "src", "tools", "examples", "benchmarks",
         "tests"],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.skipif(_tool_missing("mypy"),
                    reason="mypy not installed (CI installs the lint extra)")
def test_mypy_is_clean() -> None:
    result = subprocess.run(
        ["mypy", "src/repro", "tools/freshlint"],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr


# ---------------------------------------------------------------------------
# pragma hygiene


def test_every_pragma_in_the_tree_is_documented() -> None:
    """Each ``freshlint: disable`` pragma must carry a justification.

    Convention (docs/STATIC_ANALYSIS.md): the pragma line or the line
    above it must contain a prose comment explaining *why* — a bare
    suppression is itself a violation of the policy.
    """
    import io
    import tokenize

    pragma_re = re.compile(r"freshlint:\s*disable")
    offenders: list[str] = []
    for rel in LINTED_PATHS:
        base = REPO_ROOT / rel
        if not base.exists():
            continue
        for path in sorted(base.rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            lines = source.splitlines()
            # Tokenize so pragma *examples* inside docstrings (STRING
            # tokens, e.g. in tools/freshlint/engine.py) don't count.
            comment_lines = [
                tok.start[0]
                for tok in tokenize.generate_tokens(
                    io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT
                and pragma_re.search(tok.string)
            ]
            for lineno in comment_lines:
                line = lines[lineno - 1]
                match = pragma_re.search(line)
                tail = line[match.end():] if match else ""
                # justification after the codes on the same line...
                justified = "--" in tail or "#" in tail
                # ...or a comment line directly above.
                if not justified and lineno > 1:
                    justified = lines[lineno - 2].lstrip().startswith("#")
                if not justified:
                    offenders.append(f"{path}:{lineno}")
    assert not offenders, (
        "undocumented freshlint pragmas (add a reason):\n"
        + "\n".join(offenders))
