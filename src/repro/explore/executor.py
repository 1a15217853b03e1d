"""Execution of parametric query operations against :class:`DataTable` views.

Every operation executes as a canonical logical plan:

* :meth:`QueryExecutor.execute_step` is the incremental path the
  exploration environments, session replays, baselines and every served
  request use: one operation extends the canonical plan of the current
  view, runs once against that view, and its result is memoised under the
  new plan's semantic ``(base, canonical plan)`` key, so commuted or
  duplicated pipelines share one cache entry;
* :meth:`QueryExecutor.execute_plan` runs a whole
  :class:`~repro.plan.nodes.LogicalPlan` in *fused segments* (adjacent
  filters AND-combine their vectorised masks; a filter run feeding a
  group-by pushes the combined mask straight into the group-by
  factorisation).  Served traffic never takes this path, so its
  ``fusion_count`` stays 0 there; fusion serves direct callers such as
  ``benchmarks/bench_planner.py`` and ``examples/plan_cache.py``.

Both paths are bit-identical to applying ``DataTable.filter`` /
``DataTable.groupby_agg`` one operation at a time; that per-operation
replay lives in ``tests/`` as the reference the property suite compares
against.
"""

from __future__ import annotations

from repro.dataframe.aggregates import numeric_only
from repro.dataframe.errors import DataFrameError
from repro.dataframe.expressions import Predicate, combine_and
from repro.dataframe.table import DataTable
from repro.plan import (
    FilterNode,
    GroupNode,
    LogicalPlan,
    canonicalize,
    node_from_operation,
)

from .cache import ExecutionCache
from .operations import (
    FilterOperation,
    GroupAggOperation,
    Operation,
    RootOperation,
)


class ExecutionError(Exception):
    """An operation could not be executed against the given view."""


class QueryExecutor:
    """Executes filter and group-and-aggregate operations on table views.

    The executor is strict: operations referencing columns that are missing
    from the view (including the aggregate attribute of a group-by) raise
    :class:`ExecutionError`, which the environment translates into an
    invalid-action penalty.  No silent parameter substitution happens.

    Validity is checked *statically*: :meth:`can_execute` inspects only the
    view's schema (column presence and dtypes) and never runs the query, so
    it is safe to call per candidate action on the hot path.  For batched,
    per-head masking see :meth:`repro.explore.action_space.ActionSpace.valid_mask`.

    When constructed with an :class:`~repro.explore.cache.ExecutionCache`,
    successful results are memoised by ``(base fingerprint, canonical plan
    fingerprint)``, which is order-insensitive, and repeated executions
    return the cached immutable view.  Runtime failures are memoised too
    (negative caching, per ``(view, operation)``): an operation that passed
    the static check but raised :class:`ExecutionError` re-raises from the
    cache on repeats instead of re-executing from scratch.
    """

    def __init__(self, cache: ExecutionCache | None = None):
        self.cache = cache

    # -- plan execution ------------------------------------------------------------------
    def execute_step(
        self,
        base: DataTable,
        plan: LogicalPlan,
        view: DataTable,
        operation: Operation,
    ) -> tuple[DataTable, LogicalPlan]:
        """Execute one operation as a plan extension (the incremental hot path).

        *plan* is the canonical plan that produced *view* from *base*; the
        returned pair is ``(result view, canonical plan of the result)``.
        The lookup is semantic — if any previously executed pipeline
        canonicalizes to the same extended plan (commuted filters, repeated
        predicates, undone steps), its view is returned without executing —
        and a miss costs exactly one operation against *view*.  Runtime
        failures go to the per-``(view, operation)`` negative cache.
        """
        if isinstance(operation, RootOperation):
            return view, plan
        if not isinstance(operation, (FilterOperation, GroupAggOperation)):
            raise ExecutionError(f"cannot execute operation of kind {operation.kind!r}")
        new_plan = canonicalize(plan.extend(node_from_operation(operation)))
        if self.cache is not None:
            failure = self.cache.get_error(view, operation)
            if failure is not None:
                raise ExecutionError(failure)
            cached = self.cache.get_plan(base, new_plan)
            if cached is not None:
                return cached, new_plan
        run = (
            self._execute_filter
            if isinstance(operation, FilterOperation)
            else self._execute_group
        )
        try:
            result = run(view, operation)
        except ExecutionError as exc:
            if self.cache is not None:
                self.cache.put_error(view, operation, str(exc))
            raise
        if self.cache is not None:
            self.cache.put_plan(base, new_plan, result)
        return result, new_plan

    def execute_plan(self, base: DataTable, plan: LogicalPlan) -> DataTable:
        """Execute *plan* against *base* with fused segments.

        The plan is canonicalized first, so back steps are resolved and
        equivalent pipelines share both their cache entries and their
        execution.  Execution walks the canonical plan in segments:

        * a maximal run of adjacent filters computes every predicate mask
          on the segment's input view and materialises **one** filtered
          view from the AND-combined mask;
        * when the run feeds a group-by, the combined mask goes straight
          into :meth:`DataTable.groupby_agg` (``where=``) and *no*
          intermediate view is materialised at all.

        Each materialised prefix is cached under its canonical-plan key, so
        later pipelines sharing a prefix resume from it.  Results are
        bit-identical to executing each operation in sequence.
        """
        canonical = canonicalize(plan)
        steps = canonical.steps
        if not steps:
            return base
        if self.cache is not None:
            cached = self.cache.get_plan(base, canonical)
            if cached is not None:
                return cached
        view = base
        i = 0
        while i < len(steps):
            node = steps[i]
            if isinstance(node, FilterNode):
                j = i
                while j < len(steps) and isinstance(steps[j], FilterNode):
                    j += 1
                mask = self._fused_filter_mask(view, steps[i:j])
                fused = j - i
                if j < len(steps) and isinstance(steps[j], GroupNode):
                    view = self._run_group_node(view, steps[j], where=mask)
                    j += 1
                    fused += 1
                else:
                    view = view.filter_rows(mask)
                i = j
                if fused >= 2 and self.cache is not None:
                    self.cache.record_fusion()
            elif isinstance(node, GroupNode):
                view = self._run_group_node(view, node)
                i += 1
            else:
                raise ExecutionError(
                    f"cannot execute plan node of kind {node.kind!r}"
                )
            if self.cache is not None:
                self.cache.put_plan(base, LogicalPlan(steps[:i]), view)
        return view

    def _fused_filter_mask(self, view: DataTable, run) -> "object":
        """The AND-combined row mask of an adjacent filter run over *view*."""
        masks = []
        for node in run:
            if node.attr not in view:
                raise ExecutionError(
                    f"filter attribute {node.attr!r} not in view columns {view.columns}"
                )
            try:
                predicate = Predicate(node.attr, node.op, node.term)
                masks.append(predicate.mask(view.column(node.attr)))
            except DataFrameError as exc:
                raise ExecutionError(str(exc)) from exc
        return combine_and(masks)

    def _run_group_node(self, view: DataTable, node: GroupNode, where=None) -> DataTable:
        if node.group_attr not in view:
            raise ExecutionError(
                f"group attribute {node.group_attr!r} not in view columns {view.columns}"
            )
        if node.agg_attr not in view:
            raise ExecutionError(
                f"aggregate attribute {node.agg_attr!r} not in view columns "
                f"{view.columns}"
            )
        try:
            return view.groupby_agg(
                node.group_attr, node.agg_func, node.agg_attr, where=where
            )
        except DataFrameError as exc:
            raise ExecutionError(str(exc)) from exc

    # -- per-operation kernels ------------------------------------------------------------
    def _execute_filter(self, view: DataTable, operation: FilterOperation) -> DataTable:
        if operation.attr not in view:
            raise ExecutionError(
                f"filter attribute {operation.attr!r} not in view columns {view.columns}"
            )
        try:
            predicate = Predicate(operation.attr, operation.op, operation.term)
            return view.filter(predicate)
        except DataFrameError as exc:
            raise ExecutionError(str(exc)) from exc

    def _execute_group(self, view: DataTable, operation: GroupAggOperation) -> DataTable:
        if operation.group_attr not in view:
            raise ExecutionError(
                f"group attribute {operation.group_attr!r} not in view columns {view.columns}"
            )
        if operation.agg_attr not in view:
            raise ExecutionError(
                f"aggregate attribute {operation.agg_attr!r} not in view columns "
                f"{view.columns}"
            )
        try:
            return view.groupby_agg(
                operation.group_attr, operation.agg_func, operation.agg_attr
            )
        except DataFrameError as exc:
            raise ExecutionError(str(exc)) from exc

    def can_execute(self, view: DataTable, operation: Operation) -> bool:
        """True when :meth:`execute_step` would succeed, decided from the schema only.

        This never runs the operation: filters need their attribute in the
        view; group-bys need both attributes present and a numeric aggregate
        column for numeric-only functions.  Back operations are not
        executable (the environment handles them without the executor).
        """
        if isinstance(operation, RootOperation):
            return True
        if isinstance(operation, FilterOperation):
            return operation.attr in view
        if isinstance(operation, GroupAggOperation):
            if operation.group_attr not in view or operation.agg_attr not in view:
                return False
            if numeric_only(operation.agg_func) and not view.column(operation.agg_attr).is_numeric:
                return False
            return True
        return False
