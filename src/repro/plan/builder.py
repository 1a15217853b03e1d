"""Building and canonicalizing logical plans.

:func:`node_from_operation` translates one executable filter or group-by
operation (:mod:`repro.explore.operations`) into its plan node, and
:func:`canonicalize` reduces a raw plan to the normal form whose
fingerprint keys the execution caches:

1. **Duplicate-filter merging** — filters are idempotent (a predicate's
   row mask is deterministic), so identical predicates within one adjacent
   filter run collapse to one.
2. **Filter commutation** — adjacent filters AND-commute (each row's mask
   bit depends only on that row), so every maximal run of adjacent filters
   is sorted by signature.  Group-by nodes are commutation barriers: they
   change the schema and row identity, so filters never move across them.

Canonical plans are closed under prefixes — cutting a canonical plan after
any node yields a canonical plan — which is what lets incremental
(per-step) execution cache every intermediate view under a canonical
prefix key.
"""

from __future__ import annotations

from typing import Sequence

from repro.explore.operations import FilterOperation, GroupAggOperation, Operation

from .nodes import FilterNode, GroupNode, LogicalPlan, PlanNode


def node_from_operation(operation: Operation) -> PlanNode:
    """The plan node mirroring a filter or group-by *operation* (signatures match)."""
    if isinstance(operation, FilterOperation):
        return FilterNode(attr=operation.attr, op=operation.op, term=operation.term)
    if isinstance(operation, GroupAggOperation):
        return GroupNode(
            group_attr=operation.group_attr,
            agg_func=operation.agg_func,
            agg_attr=operation.agg_attr,
        )
    raise ValueError(f"cannot plan operation {operation!r}")


def canonicalize(plan: LogicalPlan) -> LogicalPlan:
    """Reduce *plan* to its canonical normal form (see the module docstring)."""
    steps = plan.steps
    out: list[PlanNode] = []
    i = 0
    while i < len(steps):
        if not isinstance(steps[i], FilterNode):
            out.append(steps[i])
            i += 1
            continue
        j = i
        while j < len(steps) and isinstance(steps[j], FilterNode):
            j += 1
        out.extend(_sorted_unique_filters(steps[i:j]))
        i = j
    return LogicalPlan(tuple(out))


def _sorted_unique_filters(run: Sequence[PlanNode]) -> list[PlanNode]:
    """One adjacent filter run, sorted by signature with duplicates merged."""
    ordered = sorted(run, key=lambda node: node.signature())
    unique: list[PlanNode] = [ordered[0]]
    for node in ordered[1:]:
        if node.signature() != unique[-1].signature():
            unique.append(node)
    return unique
