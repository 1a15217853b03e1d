"""Logical query plans: canonical form, fingerprints and builders.

The plan subsystem gives exploration pipelines a semantic identity:
operation lists build a :class:`LogicalPlan`, :func:`canonicalize` reduces
commuted/duplicated/undone orderings to one normal form, and the canonical
plan's :meth:`~LogicalPlan.fingerprint` keys results across every cache
tier (memory LRU, sqlite disk tier, result store).  Execution on top of
plans lives in :meth:`repro.explore.executor.QueryExecutor.execute_plan`,
which fuses filter chains and filter→group-by pipelines into single
vectorised passes.
"""

from .builder import (
    EMPTY_PLAN,
    canonicalize,
    node_from_operation,
    operation_from_node,
    plan_from_operations,
)
from .nodes import (
    BackNode,
    FilterNode,
    GroupNode,
    LogicalPlan,
    PlanNode,
    RootNode,
    plan_of,
)

__all__ = [
    "BackNode",
    "EMPTY_PLAN",
    "FilterNode",
    "GroupNode",
    "LogicalPlan",
    "PlanNode",
    "RootNode",
    "canonicalize",
    "node_from_operation",
    "operation_from_node",
    "plan_from_operations",
    "plan_of",
]
