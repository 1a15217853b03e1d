"""Logical query plans: canonical form, fingerprints and builders.

The plan subsystem gives exploration pipelines a semantic identity.
:meth:`repro.explore.executor.QueryExecutor.execute_step` extends a
session node's :class:`LogicalPlan` by the node built from one filter or
group-by operation (:func:`node_from_operation`), :func:`canonicalize`
reduces commuted and duplicated filter orderings to one normal form, and
the canonical plan's :meth:`~LogicalPlan.fingerprint` keys results in the
:class:`~repro.explore.cache.ExecutionCache`.
"""

from .builder import canonicalize, node_from_operation
from .nodes import FilterNode, GroupNode, LogicalPlan, PlanNode

__all__ = [
    "FilterNode",
    "GroupNode",
    "LogicalPlan",
    "PlanNode",
    "canonicalize",
    "node_from_operation",
]
