"""Unit tests for the freshlint rules, pragmas, and CLI.

Each rule is exercised against deliberate good/bad fixtures under
``tests/fixtures/freshlint/``.  Fixtures are linted with a widened
:class:`LintConfig` that treats every file as library + solver-path
code (and nothing as a test or entry point) so the path-scoped rules
fire regardless of where the checkout lives on disk.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from freshlint import LintConfig, lint_file, run_paths
from freshlint.cli import main as freshlint_main
from freshlint.rules import ALL_RULES, rule_by_code

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "freshlint"

#: Everything is in scope; nothing is excused as a test/entry point.
STRICT = LintConfig(entry_point_globs=(), test_globs=(),
                    library_globs=("*",), solver_globs=("*",),
                    clock_globs=("*",), replay_globs=("*",))


def codes_in(path: Path, config: LintConfig = STRICT) -> list[str]:
    return [v.code for v in lint_file(path, config, root=REPO_ROOT)]


# ---------------------------------------------------------------------------
# rule registry sanity


def test_registry_codes_are_unique_and_sorted() -> None:
    codes = [rule.code for rule in ALL_RULES]
    assert codes == sorted(set(codes))
    assert codes == ["FL001", "FL002", "FL003", "FL004", "FL005",
                     "FL006", "FL007", "FL008", "FL009", "FL010",
                     "FL015"]


def test_rule_by_code_round_trips() -> None:
    for rule in ALL_RULES:
        assert rule_by_code(rule.code) is rule
    with pytest.raises(KeyError):
        rule_by_code("FL998")


# ---------------------------------------------------------------------------
# FL001 — randomness discipline


def test_fl001_flags_legacy_and_unseeded_rng() -> None:
    codes = codes_in(FIXTURES / "bad_fl001_legacy_rng.py")
    assert codes.count("FL001") == 4
    assert set(codes) == {"FL001"}


def test_fl001_clean_on_seeded_generator_style() -> None:
    assert "FL001" not in codes_in(FIXTURES / "good_fl001_seeded_rng.py")


def test_fl001_allows_argless_default_rng_in_entry_points() -> None:
    entry = LintConfig(entry_point_globs=("*",), test_globs=(),
                       library_globs=("*",), solver_globs=("*",))
    codes = codes_in(FIXTURES / "bad_fl001_legacy_rng.py", entry)
    # np.random.seed / rand stay banned; argless default_rng is allowed.
    assert codes.count("FL001") == 3


# ---------------------------------------------------------------------------
# FL002 — float equality


def test_fl002_flags_nonzero_float_equality() -> None:
    codes = codes_in(FIXTURES / "bad_fl002_float_eq.py")
    assert codes.count("FL002") == 3


def test_fl002_permits_zero_sentinels_and_isclose() -> None:
    assert "FL002" not in codes_in(FIXTURES / "good_fl002_tolerant.py")


def test_fl002_exempts_test_files() -> None:
    as_test = LintConfig(entry_point_globs=(), test_globs=("*",),
                         library_globs=("*",), solver_globs=("*",))
    assert "FL002" not in codes_in(FIXTURES / "bad_fl002_float_eq.py",
                                   as_test)


# ---------------------------------------------------------------------------
# FL003 — __all__ vs re-exports


def test_fl003_flags_drifted_all() -> None:
    codes = codes_in(FIXTURES / "bad_fl003_pkg" / "__init__.py")
    # duplicate entry + phantom export + missing "join"
    assert codes.count("FL003") == 3


def test_fl003_clean_when_all_matches() -> None:
    path = FIXTURES / "good_fl003_pkg" / "__init__.py"
    assert codes_in(path) == []


def test_fl003_only_applies_to_package_inits() -> None:
    # The same drifted content in a plain module is out of scope.
    assert "FL003" not in codes_in(FIXTURES / "bad_fl001_legacy_rng.py")


# ---------------------------------------------------------------------------
# FL004 — units in docstrings


def test_fl004_flags_missing_units_and_missing_docstring() -> None:
    codes = codes_in(FIXTURES / "bad_fl004_units.py")
    # schedule(): docstring never states units; rescale(): no
    # docstring at all.  One finding per offending function.
    assert codes.count("FL004") == 2


def test_fl004_clean_with_units_and_private_helpers() -> None:
    assert codes_in(FIXTURES / "good_fl004_units.py") == []


def test_fl004_scoped_to_library_code() -> None:
    outside = LintConfig(entry_point_globs=(), test_globs=(),
                         library_globs=(), solver_globs=("*",))
    assert "FL004" not in codes_in(FIXTURES / "bad_fl004_units.py",
                                   outside)


# ---------------------------------------------------------------------------
# FL005 — ndarray parameter mutation


def test_fl005_flags_inplace_mutation_including_asarray_alias() -> None:
    codes = codes_in(FIXTURES / "bad_fl005_mutation.py")
    assert codes.count("FL005") == 5


def test_fl005_clean_when_copies_launder() -> None:
    assert codes_in(FIXTURES / "good_fl005_copies.py") == []


def test_fl005_scoped_to_solver_paths() -> None:
    outside = LintConfig(entry_point_globs=(), test_globs=(),
                         library_globs=("*",), solver_globs=())
    codes = codes_in(FIXTURES / "bad_fl005_mutation.py", outside)
    assert "FL005" not in codes


# ---------------------------------------------------------------------------
# FL006 — exception discipline


def test_fl006_flags_bare_broad_and_swallowed() -> None:
    codes = codes_in(FIXTURES / "bad_fl006_exceptions.py")
    assert codes.count("FL006") == 3


def test_fl006_clean_on_typed_observable_handlers() -> None:
    assert codes_in(FIXTURES / "good_fl006_exceptions.py") == []


def test_fl006_bare_except_flagged_even_outside_solver_paths() -> None:
    outside = LintConfig(entry_point_globs=(), test_globs=(),
                         library_globs=("*",), solver_globs=())
    codes = codes_in(FIXTURES / "bad_fl006_exceptions.py", outside)
    # Only the bare except survives; broad/swallowed are solver-scoped.
    assert codes.count("FL006") == 1


# ---------------------------------------------------------------------------
# FL007 — print in library code


def test_fl007_flags_library_print() -> None:
    assert codes_in(FIXTURES / "bad_fl007_print.py") == ["FL007"]


def test_fl007_allows_entry_point_print() -> None:
    entry = LintConfig(entry_point_globs=("*",), test_globs=(),
                       library_globs=("*",), solver_globs=("*",))
    assert codes_in(FIXTURES / "bad_fl007_print.py", entry) == []


# ---------------------------------------------------------------------------
# FL008 — import cycles


def test_fl008_flags_both_halves_of_a_cycle() -> None:
    alpha = codes_in(FIXTURES / "bad_fl008_pkg" / "alpha.py")
    beta = codes_in(FIXTURES / "bad_fl008_pkg" / "beta.py")
    assert alpha.count("FL008") == 1
    assert beta.count("FL008") == 1


def test_fl008_names_the_cycle_in_the_message() -> None:
    path = FIXTURES / "bad_fl008_pkg" / "alpha.py"
    violations = [v for v in lint_file(path, STRICT, root=REPO_ROOT)
                  if v.code == "FL008"]
    assert "bad_fl008_pkg.alpha -> bad_fl008_pkg.beta" \
        in violations[0].message


def test_fl008_clean_with_deferred_and_type_checking_imports() -> None:
    for name in ("alpha.py", "beta.py", "__init__.py"):
        assert codes_in(FIXTURES / "good_fl008_pkg" / name) == []


def test_fl008_ignores_loose_modules() -> None:
    # Not in a package: no graph to build, even with imports present.
    assert "FL008" not in codes_in(FIXTURES / "bad_fl001_legacy_rng.py")


# ---------------------------------------------------------------------------
# FL009 — wall-clock reads


def test_fl009_flags_every_wall_clock_spelling() -> None:
    codes = codes_in(FIXTURES / "bad_fl009_wall_clock.py")
    # time.time(), aliased time(), argless datetime.now(), date.today()
    assert codes.count("FL009") == 4


def test_fl009_clean_on_monotonic_and_injected_time() -> None:
    assert codes_in(FIXTURES / "good_fl009_monotonic.py") == []


def test_fl009_scoped_to_clock_paths() -> None:
    outside = LintConfig(entry_point_globs=(), test_globs=(),
                         library_globs=("*",), solver_globs=("*",),
                         clock_globs=())
    assert "FL009" not in codes_in(FIXTURES / "bad_fl009_wall_clock.py",
                                   outside)


# ---------------------------------------------------------------------------
# FL010 — retry/backoff discipline


def test_fl010_flags_sleeps_and_rngless_retry_loop() -> None:
    codes = codes_in(FIXTURES / "bad_fl010_sleep_loop.py")
    # two time.sleep() calls + the rng-less retry function
    assert codes.count("FL010") == 3
    assert set(codes) == {"FL010"}


def test_fl010_clean_on_injected_backoff() -> None:
    assert codes_in(FIXTURES / "good_fl010_injected_backoff.py") == []


def test_fl010_exempts_tests_and_entry_points() -> None:
    exempt = LintConfig(entry_point_globs=("*",), test_globs=(),
                        library_globs=("*",), solver_globs=("*",))
    assert "FL010" not in codes_in(FIXTURES / "bad_fl010_sleep_loop.py",
                                   exempt)


# ---------------------------------------------------------------------------
# FL015 — stable argsorts on replay paths


def test_fl015_flags_every_unstable_argsort() -> None:
    codes = codes_in(FIXTURES / "bad_fl015_unstable_argsort.py")
    # default kind, explicit quicksort method call, imported kind=None
    assert codes.count("FL015") == 3
    assert set(codes) == {"FL015"}


def test_fl015_clean_on_stable_kind_and_radix_helper() -> None:
    assert codes_in(FIXTURES / "good_fl015_stable_argsort.py") == []


def test_fl015_scoped_to_replay_paths() -> None:
    outside = LintConfig(entry_point_globs=(), test_globs=(),
                         library_globs=("*",), solver_globs=("*",),
                         replay_globs=())
    assert "FL015" not in codes_in(
        FIXTURES / "bad_fl015_unstable_argsort.py", outside)


# ---------------------------------------------------------------------------
# pragmas, select/ignore, syntax errors


def test_pragmas_suppress_line_and_file_scoped_findings() -> None:
    assert codes_in(FIXTURES / "pragma_suppressed.py") == []


def test_select_and_ignore_narrow_the_rule_set() -> None:
    bad = FIXTURES / "bad_fl001_legacy_rng.py"
    only_fl002 = LintConfig(entry_point_globs=(), test_globs=(),
                            library_globs=("*",), solver_globs=("*",),
                            select=("FL002",))
    assert codes_in(bad, only_fl002) == []
    no_fl001 = LintConfig(entry_point_globs=(), test_globs=(),
                          library_globs=("*",), solver_globs=("*",),
                          ignore=("FL001",))
    assert codes_in(bad, no_fl001) == []


def test_syntax_error_reports_fl999(tmp_path: Path) -> None:
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n", encoding="utf-8")
    codes = [v.code for v in lint_file(broken)]
    assert codes == ["FL999"]


def test_run_paths_walks_directories() -> None:
    violations = run_paths([FIXTURES], STRICT, root=REPO_ROOT)
    assert {v.code for v in violations} >= {"FL001", "FL002", "FL003",
                                            "FL004", "FL005", "FL006",
                                            "FL007", "FL008", "FL009",
                                            "FL010", "FL015"}


# ---------------------------------------------------------------------------
# CLI


def test_cli_exit_codes_and_output(capsys: pytest.CaptureFixture) -> None:
    clean = str(FIXTURES / "good_fl002_tolerant.py")
    assert freshlint_main([clean, "--quiet"]) == 0

    bad = str(FIXTURES / "bad_fl007_print.py")
    # Default config: fixture path matches tests/** so FL007 is exempt
    # and the file is clean under the shipped scoping.
    assert freshlint_main([bad, "--quiet"]) == 0
    capsys.readouterr()

    broken = str(FIXTURES / "bad_fl001_legacy_rng.py")
    assert freshlint_main([broken, "--quiet"]) == 1
    out = capsys.readouterr().out
    assert "FL001" in out


def test_cli_list_rules(capsys: pytest.CaptureFixture) -> None:
    assert freshlint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ALL_RULES:
        assert rule.code in out


def test_cli_rejects_unknown_codes() -> None:
    with pytest.raises(SystemExit) as excinfo:
        freshlint_main(["--select", "FL998", str(FIXTURES)])
    assert excinfo.value.code == 2
