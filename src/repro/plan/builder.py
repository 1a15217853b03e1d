"""Building and canonicalizing logical plans.

The builders translate between the executable operation vocabulary
(:mod:`repro.explore.operations`) and the plan AST, and
:func:`canonicalize` reduces a raw plan to the normal form whose
fingerprint keys the execution caches:

1. **Back resolution** — ``BackNode`` steps are resolved by replaying the
   pipeline as a stack (push filter/group, pop on back, clamped at the
   base), so ``filter → back`` pairs vanish and only the net pipeline
   remains.  Root nodes are no-ops and are dropped.
2. **Duplicate-filter merging** — filters are idempotent (a predicate's
   row mask is deterministic), so identical predicates within one adjacent
   filter run collapse to one.
3. **Filter commutation** — adjacent filters AND-commute (each row's mask
   bit depends only on that row), so every maximal run of adjacent filters
   is sorted by signature.  Group-by nodes are commutation barriers: they
   change the schema and row identity, so filters never move across them.

Canonical plans are closed under prefixes — cutting a canonical plan after
any node yields a canonical plan — which is what lets incremental
(per-step) execution cache every intermediate view under a canonical
prefix key.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.explore.operations import (
    BackOperation,
    FilterOperation,
    GroupAggOperation,
    Operation,
    RootOperation,
)

from .nodes import BackNode, FilterNode, GroupNode, LogicalPlan, PlanNode, RootNode

#: The empty (root-only) plan every session starts from.
EMPTY_PLAN = LogicalPlan(())


def node_from_operation(operation: Operation) -> PlanNode:
    """The plan node mirroring *operation* (signatures match exactly)."""
    if isinstance(operation, FilterOperation):
        return FilterNode(attr=operation.attr, op=operation.op, term=operation.term)
    if isinstance(operation, GroupAggOperation):
        return GroupNode(
            group_attr=operation.group_attr,
            agg_func=operation.agg_func,
            agg_attr=operation.agg_attr,
        )
    if isinstance(operation, BackOperation):
        return BackNode(steps=operation.steps)
    if isinstance(operation, RootOperation):
        return RootNode()
    raise ValueError(f"cannot plan operation {operation!r}")


def operation_from_node(node: PlanNode) -> Operation:
    """The executable operation mirroring *node*."""
    if isinstance(node, FilterNode):
        return FilterOperation(attr=node.attr, op=node.op, term=node.term)
    if isinstance(node, GroupNode):
        return GroupAggOperation(
            group_attr=node.group_attr, agg_func=node.agg_func, agg_attr=node.agg_attr
        )
    if isinstance(node, BackNode):
        return BackOperation(steps=node.steps)
    if isinstance(node, RootNode):
        return RootOperation()
    raise ValueError(f"cannot convert plan node {node!r} to an operation")


def plan_from_operations(operations: Iterable[Operation]) -> LogicalPlan:
    """The raw (uncanonicalized) plan of a flat operation list (backs included)."""
    return LogicalPlan(tuple(node_from_operation(operation) for operation in operations))


def canonicalize(plan: LogicalPlan) -> LogicalPlan:
    """Reduce *plan* to its canonical normal form (see the module docstring)."""
    # 1. Resolve backs by stack replay; drop root no-ops.
    stack: list[PlanNode] = []
    for node in plan.steps:
        if isinstance(node, BackNode):
            for _ in range(max(1, node.steps)):
                if not stack:
                    break
                stack.pop()
        elif isinstance(node, RootNode):
            continue
        else:
            stack.append(node)
    # 2 + 3. Sort each maximal adjacent filter run and merge duplicates.
    out: list[PlanNode] = []
    i = 0
    while i < len(stack):
        if not isinstance(stack[i], FilterNode):
            out.append(stack[i])
            i += 1
            continue
        j = i
        while j < len(stack) and isinstance(stack[j], FilterNode):
            j += 1
        out.extend(_sorted_unique_filters(stack[i:j]))
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
