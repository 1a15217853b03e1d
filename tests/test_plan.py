"""Tests for the lazy query planner: canonical plans, fused execution, plan caching."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eager_oracle import eager_replay, first_divergence, same_view
from repro.dataframe.column import Column
from repro.dataframe.table import DataTable
from repro.datasets import load_dataset
from repro.explore.action_space import ActionChoice
from repro.explore.cache import PLAN_KEY_TAG, ExecutionCache
from repro.explore.environment import ExplorationEnvironment
from repro.explore.executor import ExecutionError, QueryExecutor
from repro.explore.operations import (
    BackOperation,
    FilterOperation,
    GroupAggOperation,
    Operation,
    RootOperation,
    operation_from_signature,
)
from repro.explore.session import session_from_operations
from repro.plan import (
    BackNode,
    FilterNode,
    GroupNode,
    LogicalPlan,
    RootNode,
    canonicalize,
    node_from_operation,
    operation_from_node,
    plan_from_operations,
    plan_of,
)


@pytest.fixture()
def flights():
    return load_dataset("flights", num_rows=300)


def toy_table() -> DataTable:
    """Small table covering nulls and an object-backed mixed-type column."""
    return DataTable(
        [
            Column.from_raw("cat", ["a", "b", "a", "c", "b", "a", "c", "a"]),
            Column.from_raw("num", [1, 7, 2, None, 5, 2, 9, 4]),
            Column.from_raw("mixed", [1, "two", None, 3.5, "four", 1, "two", None]),
        ],
        name="toy",
    )


F_CAT_A = FilterOperation("cat", "eq", "a")
F_CAT_NEQ_B = FilterOperation("cat", "neq", "b")
F_NUM_GT = FilterOperation("num", "gt", 2)
F_NUM_LE = FilterOperation("num", "le", 5)
G_COUNT = GroupAggOperation("cat", "count", "cat")
G_MEAN = GroupAggOperation("cat", "mean", "num")
G_NUNIQUE = GroupAggOperation("cat", "nunique", "mixed")


class TestPlanNodes:
    def test_node_signatures_match_operations(self):
        pairs = [
            (FilterNode("cat", "eq", "a"), F_CAT_A),
            (GroupNode("cat", "count", "cat"), G_COUNT),
            (BackNode(2), BackOperation(2)),
            (RootNode(), RootOperation()),
        ]
        for node, operation in pairs:
            assert node.signature() == operation.signature()

    def test_filter_node_normalises_operator_aliases(self):
        assert FilterNode("cat", "==", "a") == FilterNode("cat", "eq", "a")
        assert plan_of([FilterNode("cat", "==", "a")]).fingerprint() == plan_of(
            [FilterNode("cat", "eq", "a")]
        ).fingerprint()

    def test_group_node_normalises_aggregate_aliases(self):
        assert GroupNode("cat", "avg", "num") == GroupNode("cat", "mean", "num")

    def test_fingerprint_is_stable_and_discriminating(self):
        plan = plan_of([FilterNode("cat", "eq", "a"), GroupNode("cat", "count", "cat")])
        same = plan_of([FilterNode("cat", "eq", "a"), GroupNode("cat", "count", "cat")])
        other = plan_of([FilterNode("cat", "eq", "b"), GroupNode("cat", "count", "cat")])
        assert plan.fingerprint() == same.fingerprint()
        assert plan.fingerprint() != other.fingerprint()
        # Length-prefixed encoding: field boundaries cannot be confused.
        left = plan_of([FilterNode("cat", "eq", "ab")])
        right = plan_of([FilterNode("cat", "eq", "a")])
        assert left.fingerprint() != right.fingerprint()

    def test_fingerprint_not_part_of_equality(self):
        plan = plan_of([FilterNode("cat", "eq", "a")])
        fresh = plan_of([FilterNode("cat", "eq", "a")])
        plan.fingerprint()  # memoises into the instance dict
        assert plan == fresh
        assert hash(plan) == hash(fresh)

    def test_node_operation_round_trip(self):
        for operation in (F_CAT_A, G_MEAN, BackOperation(3), RootOperation()):
            assert operation_from_node(node_from_operation(operation)) == operation

    def test_unknown_conversions_raise(self):
        with pytest.raises(ValueError):
            node_from_operation(object())
        with pytest.raises(ValueError):
            operation_from_node(object())


class TestCanonicalize:
    def test_commuted_adjacent_filters_share_canonical_form(self):
        forward = plan_from_operations([F_CAT_A, F_NUM_GT])
        reversed_ = plan_from_operations([F_NUM_GT, F_CAT_A])
        assert canonicalize(forward) == canonicalize(reversed_)
        assert canonicalize(forward).fingerprint() == canonicalize(reversed_).fingerprint()

    def test_duplicate_predicates_merge(self):
        noisy = plan_from_operations([F_CAT_A, F_NUM_GT, F_CAT_A])
        clean = plan_from_operations([F_CAT_A, F_NUM_GT])
        assert canonicalize(noisy) == canonicalize(clean)

    def test_group_nodes_are_commute_barriers(self):
        left = plan_from_operations([F_CAT_A, G_COUNT, F_NUM_GT])
        right = plan_from_operations([F_NUM_GT, G_COUNT, F_CAT_A])
        assert canonicalize(left) != canonicalize(right)

    def test_back_pairs_prune(self):
        undone = plan_from_operations([F_CAT_A, F_NUM_GT, BackOperation(1), G_COUNT])
        direct = plan_from_operations([F_CAT_A, G_COUNT])
        assert canonicalize(undone) == canonicalize(direct)

    def test_back_clamps_at_root(self):
        overshoot = plan_from_operations([F_CAT_A, BackOperation(9), F_NUM_GT])
        assert canonicalize(overshoot) == canonicalize(plan_from_operations([F_NUM_GT]))

    def test_canonicalize_is_idempotent(self):
        plan = plan_from_operations([F_NUM_GT, F_CAT_A, BackOperation(1), F_NUM_LE, G_MEAN])
        once = canonicalize(plan)
        assert canonicalize(once) == once

    def test_prefixes_of_canonical_plans_are_canonical(self):
        plan = canonicalize(
            plan_from_operations([F_NUM_GT, F_CAT_A, G_COUNT, F_NUM_LE])
        )
        for cut in range(len(plan) + 1):
            prefix = LogicalPlan(plan.steps[:cut])
            assert canonicalize(prefix) == prefix


class TestFusedExecution:
    AGGS = ["count", "sum", "mean", "min", "max", "nunique"]

    def _eager(self, table, operations):
        return eager_replay(table, operations).view

    def test_fused_filter_group_bit_identical_across_aggregates(self, flights):
        executor = QueryExecutor(cache=ExecutionCache())
        for agg in self.AGGS:
            operations = [
                FilterOperation("distance", "gt", 300),
                FilterOperation("airline", "neq", "AA"),
                GroupAggOperation("airline", agg, "departure_delay"),
            ]
            fused = executor.execute_plan(flights, plan_from_operations(operations))
            eager = self._eager(flights, operations)
            assert fused == eager
            assert fused.fingerprint() == eager.fingerprint()

    def test_fused_trailing_filter_chain_bit_identical(self, flights):
        operations = [
            FilterOperation("distance", "gt", 300),
            FilterOperation("airline", "neq", "AA"),
            FilterOperation("month", "le", 9),
        ]
        executor = QueryExecutor(cache=ExecutionCache())
        fused = executor.execute_plan(flights, plan_from_operations(operations))
        eager = self._eager(flights, operations)
        assert fused == eager
        assert fused.fingerprint() == eager.fingerprint()

    def test_fused_empty_selection_matches_eager(self, flights):
        operations = [
            FilterOperation("distance", "gt", 10**9),
            GroupAggOperation("airline", "count", "airline"),
        ]
        executor = QueryExecutor(cache=ExecutionCache())
        fused = executor.execute_plan(flights, plan_from_operations(operations))
        eager = self._eager(flights, operations)
        assert fused == eager
        assert len(fused) == 0

    def test_fusion_counter_increments(self, flights):
        cache = ExecutionCache()
        executor = QueryExecutor(cache=cache)
        operations = [
            FilterOperation("distance", "gt", 300),
            GroupAggOperation("airline", "count", "airline"),
        ]
        executor.execute_plan(flights, plan_from_operations(operations))
        assert cache.stats.fusion_count == 1
        assert cache.describe()["fusion_count"] == 1

    def test_plan_with_missing_column_raises_execution_error(self, flights):
        executor = QueryExecutor(cache=ExecutionCache())
        plan = plan_from_operations(
            [GroupAggOperation("airline", "count", "airline"), FilterOperation("distance", "gt", 1)]
        )
        with pytest.raises(ExecutionError):
            executor.execute_plan(flights, plan)


OPERATION_VOCAB = [
    F_CAT_A,
    F_CAT_NEQ_B,
    F_NUM_GT,
    F_NUM_LE,
    FilterOperation("mixed", "eq", "two"),
    G_COUNT,
    G_MEAN,
    G_NUNIQUE,
    GroupAggOperation("num", "count", "num"),
    BackOperation(1),
    BackOperation(2),
]


class TestPlanEagerEquivalence:
    """Property: the plan paths are value-identical to the eager reference.

    The reference is ``tests/eager_oracle.py``: each operation applied on its
    own with the ``DataTable`` kernels.  A mismatch names the first
    diverging operation index.
    """

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.sampled_from(OPERATION_VOCAB), min_size=1, max_size=8))
    def test_execute_plan_matches_eager_replay(self, operations):
        table = toy_table()
        try:
            reference = eager_replay(table, operations).view
        except ExecutionError:
            # The eager replay failed mid-chain.  The lazy path only fails
            # when the failing operation survives canonicalization (a later
            # back step may legitimately discard it), so assert raise-parity
            # on back-free chains only.
            if not any(isinstance(op, BackOperation) for op in operations):
                with pytest.raises(ExecutionError):
                    QueryExecutor(cache=ExecutionCache()).execute_plan(
                        table, plan_from_operations(operations)
                    )
            return

        def fused(prefix):
            return QueryExecutor(cache=ExecutionCache()).execute_plan(
                table, plan_from_operations(prefix)
            )

        if not same_view(reference, fused(operations)):
            # Locate the first prefix whose fused result leaves the reference.
            prefixes = [operations[: k + 1] for k in range(len(operations))]
            message = first_divergence(
                operations,
                (
                    (k, eager_replay(table, prefix).view, fused(prefix))
                    for k, prefix in enumerate(prefixes)
                ),
            )
            pytest.fail(message or "final views differ")

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(OPERATION_VOCAB), min_size=1, max_size=8))
    def test_incremental_step_path_matches_eager_replay(self, operations):
        table = toy_table()
        try:
            eager = eager_replay(table, operations)
        except ExecutionError:
            eager = None
        try:
            planned = session_from_operations(table, operations, cache=ExecutionCache())
        except ExecutionError:
            planned = None
        # The step path executes exactly the operations the eager path does
        # (no laziness), so raise-parity holds unconditionally here.
        assert (eager is None) == (planned is None)
        if eager is None:
            return
        planned_nodes = planned.query_nodes()
        assert len(eager.steps) == len(planned_nodes)
        message = first_divergence(
            operations,
            (
                (index, view, node.view)
                for (index, view), node in zip(eager.steps, planned_nodes)
            ),
        )
        assert message is None, message
        for node in planned_nodes:
            assert node.plan == canonicalize(
                node.parent.plan.extend(node_from_operation(node.operation))
            )


class TestPlanCacheSharing:
    COMMUTED = (
        [FilterOperation("airline", "eq", "AA"), FilterOperation("distance", "gt", 500)],
        [FilterOperation("distance", "gt", 500), FilterOperation("airline", "eq", "AA")],
    )

    def test_commuted_filters_share_memory_entry(self, flights):
        cache = ExecutionCache()
        executor = QueryExecutor(cache=cache)
        forward, reversed_ = self.COMMUTED
        first = executor.execute_plan(flights, plan_from_operations(forward))
        assert cache.stats.plan_hits == 0
        second = executor.execute_plan(flights, plan_from_operations(reversed_))
        assert cache.stats.plan_hits == 1
        assert second is first  # one shared entry, not a re-execution
        key_a = ExecutionCache.plan_key_for(
            flights, canonicalize(plan_from_operations(forward))
        )
        key_b = ExecutionCache.plan_key_for(
            flights, canonicalize(plan_from_operations(reversed_))
        )
        assert key_a == key_b
        assert key_a[1][0] == PLAN_KEY_TAG
        assert len(cache) == cache.describe()["plan_entries"] > 0

    def test_commuted_filters_share_disk_entry(self, flights, tmp_path):
        db_path = tmp_path / "plan_cache.sqlite"
        forward, reversed_ = self.COMMUTED
        cold = ExecutionCache(disk=db_path)
        first = QueryExecutor(cache=cold).execute_plan(
            flights, plan_from_operations(forward)
        )
        cold.close()  # flushes the write-behind buffer

        warm = ExecutionCache(disk=db_path)
        second = QueryExecutor(cache=warm).execute_plan(
            flights, plan_from_operations(reversed_)
        )
        summary = warm.describe()
        assert summary["disk_hits"] >= 1
        assert summary["plan_hits"] >= 1
        assert second == first
        assert second.fingerprint() == first.fingerprint()
        warm.close()

    def test_commuted_replays_share_entry_through_step_path(self, flights):
        cache = ExecutionCache()
        forward, reversed_ = self.COMMUTED
        a = session_from_operations(flights, forward, cache=cache)
        entries_after_first = len(cache)
        b = session_from_operations(flights, reversed_, cache=cache)
        assert cache.stats.plan_hits >= 1
        # The combined two-filter view is shared; only the differing
        # single-filter prefix is added by the second replay.
        assert len(cache) == entries_after_first + 1
        assert a.current.view == b.current.view

    def test_environments_share_plan_entries_for_commuted_episodes(self, flights):
        cache = ExecutionCache()
        env_a = ExplorationEnvironment(flights, episode_length=2, cache=cache)
        env_b = ExplorationEnvironment(flights, episode_length=2, cache=cache)
        first = ActionChoice(action_type=1, filter_attr=0)  # 1 == "filter"
        second = ActionChoice(action_type=1, filter_attr=1)
        env_a.reset()
        assert all(env_a.step(choice).info["valid"] for choice in (first, second))
        hits_before = cache.stats.plan_hits
        env_b.reset()
        assert all(env_b.step(choice).info["valid"] for choice in (second, first))
        assert cache.stats.plan_hits >= hits_before + 1
        assert env_a.session.current.view == env_b.session.current.view

    def test_snapshot_counters_has_plan_fields(self):
        cache = ExecutionCache()
        counters = cache.snapshot_counters()
        assert len(counters) == 5


class TestOperationSignatureRoundTrip:
    CASES: list[Operation] = [
        RootOperation(),
        RootOperation(dataset_name="flights"),
        FilterOperation("airline", "eq", "AA"),
        FilterOperation("distance", ">=", 500),
        GroupAggOperation("airline", "avg", "departure_delay"),
        GroupAggOperation("month", "count", "month"),
        BackOperation(),
        BackOperation(steps=3),
    ]

    def test_every_operation_round_trips_through_its_signature(self):
        for operation in self.CASES:
            restored = operation_from_signature(operation.signature())
            assert restored.signature() == operation.signature()
            assert restored.kind == operation.kind

    def test_signatures_are_hashable_and_stable(self):
        for operation in self.CASES:
            signature = operation.signature()
            assert hash(signature) == hash(operation.signature())
            assert {signature: 1}[operation.signature()] == 1
            assert all(isinstance(field, str) for field in signature)

    def test_back_signature_strict_arity(self):
        assert operation_from_signature(["B"]) == BackOperation()
        assert operation_from_signature(["B", "2"]) == BackOperation(2)
        with pytest.raises(ValueError):
            operation_from_signature(["B", "2", "extra"])
        with pytest.raises(ValueError):
            operation_from_signature(["B", "two"])

    def test_filter_and_group_arity_errors(self):
        with pytest.raises(ValueError):
            operation_from_signature(["F", "airline", "eq"])
        with pytest.raises(ValueError):
            operation_from_signature(["G", "airline", "count", "airline", "extra"])
        with pytest.raises(ValueError):
            operation_from_signature(["Z", "nope"])
        with pytest.raises(ValueError):
            operation_from_signature([])


class TestSessionPlanThreading:
    def test_session_nodes_carry_canonical_plans(self, flights):
        operations = [
            FilterOperation("airline", "eq", "AA"),
            FilterOperation("distance", "gt", 500),
            BackOperation(1),
            GroupAggOperation("month", "count", "month"),
        ]
        session = session_from_operations(flights, operations, cache=ExecutionCache())
        assert session.root.plan == LogicalPlan(())
        leaf = session.current
        assert leaf.plan == canonicalize(plan_from_operations(operations))
