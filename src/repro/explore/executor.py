"""Execution of parametric query operations against :class:`DataTable` views.

Every operation executes one way, through :meth:`QueryExecutor.execute_step`:
the exploration environments, session replays, baselines and every served
request extend the canonical plan of the current view by one operation,
run that operation once against the view, and memoise its result under the
new plan's semantic ``(base, canonical plan)`` key, so commuted or
duplicated pipelines share one cache entry.  The cache also memoises each
extension, so a repeated (plan, operation) step skips canonicalising and
hashing.

The result is bit-identical to applying ``DataTable.filter`` /
``DataTable.groupby_agg`` one operation at a time; that per-operation
replay lives in ``tests/`` as the reference the property suite compares
against.
"""

from __future__ import annotations

from repro.dataframe.aggregates import numeric_only
from repro.dataframe.errors import DataFrameError
from repro.dataframe.expressions import Predicate
from repro.dataframe.table import DataTable
from repro.plan import LogicalPlan, canonicalize, node_from_operation

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
        signature = operation.signature()

        def extend() -> LogicalPlan:
            return canonicalize(plan.extend(node_from_operation(operation)))

        if self.cache is None:
            new_plan = extend()
        else:
            failure = self.cache.get_error(view, signature)
            if failure is not None:
                raise ExecutionError(failure)
            new_plan = self.cache.extension(plan, signature, extend)
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
                self.cache.put_error(view, signature, str(exc))
            raise
        if self.cache is not None:
            self.cache.put_plan(base, new_plan, result)
        return result, new_plan

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
