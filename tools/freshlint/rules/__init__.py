"""Rule registry: every freshlint rule, in code order."""

from __future__ import annotations

from freshlint.rules.base import Rule
from freshlint.rules.fl001_rng import UnseededRandomness
from freshlint.rules.fl002_float_eq import FloatEqualityComparison
from freshlint.rules.fl003_all_exports import AllMatchesReexports
from freshlint.rules.fl004_units import UnitsInDocstring
from freshlint.rules.fl005_ndarray_mutation import NdarrayParamMutation
from freshlint.rules.fl006_exceptions import ExceptionDiscipline
from freshlint.rules.fl007_print import NoPrintInLibrary
from freshlint.rules.fl008_import_cycles import ImportCycles
from freshlint.rules.fl009_wall_clock import WallClockRead
from freshlint.rules.fl010_retry_discipline import RetryDiscipline
from freshlint.rules.fl015_stable_argsort import StableArgsort

__all__ = [
    "ALL_RULES",
    "AllMatchesReexports",
    "ExceptionDiscipline",
    "FloatEqualityComparison",
    "ImportCycles",
    "NdarrayParamMutation",
    "NoPrintInLibrary",
    "RetryDiscipline",
    "Rule",
    "StableArgsort",
    "UnitsInDocstring",
    "UnseededRandomness",
    "WallClockRead",
    "rule_by_code",
]

ALL_RULES: tuple[Rule, ...] = (
    UnseededRandomness(),
    FloatEqualityComparison(),
    AllMatchesReexports(),
    UnitsInDocstring(),
    NdarrayParamMutation(),
    ExceptionDiscipline(),
    NoPrintInLibrary(),
    ImportCycles(),
    WallClockRead(),
    RetryDiscipline(),
    StableArgsort(),
)


def rule_by_code(code: str) -> Rule:
    """Look up a rule instance by its ``FLxxx`` code."""
    for rule in ALL_RULES:
        if rule.code == code:
            return rule
    raise KeyError(f"no freshlint rule with code {code!r}")
