"""FL015 — every argsort on the replay paths is stable.

The vectorized replay routes are bit-identical to the per-event
reference loop only because every reordering they make has a defined
tie order.  ``np.argsort`` without ``kind="stable"`` is an introsort
whose order among equal keys is implementation-defined, and numpy
dispatches it to SIMD kernels chosen per CPU: the same tape could
group differently on two hosts, and bit-identity would break on some
machines only.  The planner's partition labels are in the same
position: they decide every plan the engines replay, so a CPU-dependent
tie order there would make the plan itself differ between hosts.  On
the simulator, fault, runtime and scheduler paths, in the planner's
partitioning and in the shared time sort, every ``argsort`` call
(function or method) must therefore pass ``kind="stable"`` by
keyword, or go through the stable helpers
(``repro.numerics.sorting.stable_time_sort`` and
``stable_element_sort``), which sort unique (key, position) int64
keys with ``ndarray.sort()`` and are not ``argsort`` calls
themselves.
"""

from __future__ import annotations

import ast
from typing import Iterator

from freshlint.engine import ModuleContext, Violation
from freshlint.rules.base import Rule

__all__ = ["StableArgsort"]


def _is_argsort(context: ModuleContext, func: ast.expr) -> bool:
    if isinstance(func, ast.Attribute):
        return func.attr == "argsort"
    return context.resolve_call_target(func) == "numpy.argsort"


def _passes_stable(call: ast.Call) -> bool:
    return any(keyword.arg == "kind"
               and isinstance(keyword.value, ast.Constant)
               and keyword.value.value == "stable"
               for keyword in call.keywords)


class StableArgsort(Rule):
    """Flag argsort calls without ``kind="stable"`` on replay paths."""

    code = "FL015"
    name = "stable-argsort"
    summary = 'argsort on replay paths must pass kind="stable"'

    def check(self, context: ModuleContext) -> Iterator[Violation]:
        if not context.is_replay_path or context.is_test:
            return
        for node in ast.walk(context.tree):
            if (isinstance(node, ast.Call)
                    and _is_argsort(context, node.func)
                    and not _passes_stable(node)):
                yield self.violation(
                    context, node,
                    'argsort without kind="stable" has an '
                    "implementation-defined tie order that can differ "
                    "between CPUs; pass kind=\"stable\" or use a "
                    "stable helper")
