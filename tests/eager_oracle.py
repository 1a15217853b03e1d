"""The eager per-operation reference the plan path is tested against.

Production code executes every operation as one step extending a canonical
logical plan (:meth:`QueryExecutor.execute_step`).
This module replays operation lists the naive way instead: one operation at
a time against the current view, straight through the ``DataTable`` kernels
(``DataTable.filter(Predicate(...))`` and ``DataTable.groupby_agg(...)``),
with no plans, no canonicalization and no cache.  Back operations move up a
stack of views, clamped at the base, exactly like
:meth:`ExplorationSession.go_back`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dataframe.errors import DataFrameError
from repro.dataframe.expressions import Predicate
from repro.dataframe.table import DataTable
from repro.explore.executor import ExecutionError
from repro.explore.operations import (
    BackOperation,
    FilterOperation,
    GroupAggOperation,
    Operation,
    RootOperation,
)
from repro.plan import LogicalPlan, node_from_operation


def eager_apply(view: DataTable, operation: Operation) -> DataTable:
    """Run one query *operation* on *view*; failures raise :class:`ExecutionError`."""
    try:
        if isinstance(operation, FilterOperation):
            return view.filter(Predicate(operation.attr, operation.op, operation.term))
        if isinstance(operation, GroupAggOperation):
            return view.groupby_agg(
                operation.group_attr, operation.agg_func, operation.agg_attr
            )
    except DataFrameError as exc:
        raise ExecutionError(str(exc)) from exc
    raise ExecutionError(f"cannot execute operation of kind {operation.kind!r}")


@dataclass
class EagerReplay:
    """The outcome of :func:`eager_replay`."""

    #: The current view after the last operation.
    view: DataTable
    #: ``(operation index, result view)`` of every executed query operation,
    #: in execution order (the order of a session's ``query_nodes()``).
    steps: list[tuple[int, DataTable]] = field(default_factory=list)


def eager_replay(table: DataTable, operations: list[Operation]) -> EagerReplay:
    """Replay *operations* (backs included) one at a time from *table*."""
    stack = [table]
    replay = EagerReplay(view=table)
    for index, operation in enumerate(operations):
        if isinstance(operation, BackOperation):
            for _ in range(max(1, operation.steps)):
                if len(stack) > 1:
                    stack.pop()
        elif not isinstance(operation, RootOperation):
            stack.append(eager_apply(stack[-1], operation))
            replay.steps.append((index, stack[-1]))
        replay.view = stack[-1]
    return replay


def plan_from(operations: list[Operation]) -> LogicalPlan:
    """The raw (uncanonicalized) plan of a filter/group-by operation list."""
    return LogicalPlan(tuple(node_from_operation(operation) for operation in operations))


def run_one(executor, view: DataTable, operation: Operation) -> DataTable:
    """Execute one operation on *view* through the plan path, *view* as the base."""
    return executor.execute_step(view, LogicalPlan(()), view, operation)[0]


def same_view(a: DataTable, b: DataTable) -> bool:
    """Bit-identity: equal columns, equal records and equal fingerprints."""
    return (
        a.columns == b.columns
        and a.to_records() == b.to_records()
        and a.fingerprint() == b.fingerprint()
    )


def first_divergence(operations: list[Operation], pairs) -> str | None:
    """Name the first ``(operation index, expected, actual)`` triple that differs.

    Returns ``None`` when every pair is bit-identical, else a message naming
    the diverging operation index, its signature and both views' shapes.
    """
    for index, expected, actual in pairs:
        if not same_view(expected, actual):
            return (
                f"first divergence at operation {index} "
                f"{list(operations[index].signature())}: eager gave "
                f"{len(expected)} rows x {expected.columns}, plan path gave "
                f"{len(actual)} rows x {actual.columns}"
            )
    return None
