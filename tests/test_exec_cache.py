"""Tests for the memoized execution subsystem and the exploration-loop bugfixes.

Covers the :class:`ExecutionCache` (hit/miss/eviction, fingerprint stability,
replay equivalence), the static ``can_execute`` / ``valid_mask`` validity
checks, policy-level action masking, and regressions for the three bugfixes
shipped alongside the cache (invalid-step accounting, mixed-type sorts,
strict group-aggregate execution).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eager_oracle import eager_apply, plan_from, run_one
from repro.dataframe import DataTable
from repro.dataframe.column import Column
from repro.dataframe.expressions import FILTER_OPERATORS, Predicate
from repro.explore import (
    ActionChoice,
    ActionSpace,
    BackOperation,
    ExecutionCache,
    ExecutionError,
    ExplorationEnvironment,
    FilterOperation,
    GroupAggOperation,
    QueryExecutor,
    RootOperation,
    session_from_operations,
)


class TestFingerprint:
    def test_equal_tables_share_fingerprint(self):
        a = DataTable({"x": [1, 2, 3], "y": ["a", "b", "c"]}, name="t")
        b = DataTable({"x": [1, 2, 3], "y": ["a", "b", "c"]}, name="t")
        assert a is not b
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_is_stable_across_calls(self, small_table):
        assert small_table.fingerprint() is small_table.fingerprint()

    def test_different_values_change_fingerprint(self):
        a = DataTable({"x": [1, 2, 3]})
        b = DataTable({"x": [1, 2, 4]})
        assert a.fingerprint() != b.fingerprint()

    def test_different_dtype_changes_fingerprint(self):
        ints = DataTable({"x": [1, 2]})
        floats = DataTable({"x": [1.0, 2.0]})
        assert ints.fingerprint() != floats.fingerprint()

    def test_derived_views_fingerprint_independently(self, small_table):
        filtered = small_table.filter(Predicate("country", "eq", "India"))
        assert filtered.fingerprint() != small_table.fingerprint()

    def test_hash_colliding_values_do_not_alias(self):
        # CPython's hash(-1) == hash(-2); a hash-based fingerprint would
        # alias these views and serve cached results for the wrong table.
        a = DataTable({"x": [-1]})
        b = DataTable({"x": [-2]})
        assert a.fingerprint() != b.fingerprint()
        cache = ExecutionCache()
        executor = QueryExecutor(cache=cache)
        op = FilterOperation("x", "le", -2)
        assert len(run_one(executor, a, op)) == 0
        assert len(run_one(executor, b, op)) == 1


class TestExecutionCache:
    def test_miss_then_hit_returns_same_object(self, small_table):
        cache = ExecutionCache()
        executor = QueryExecutor(cache=cache)
        op = FilterOperation("country", "eq", "India")
        first = run_one(executor, small_table, op)
        second = run_one(executor, small_table, op)
        assert first is second
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_hit_across_equal_views(self, small_table):
        cache = ExecutionCache()
        executor = QueryExecutor(cache=cache)
        op = GroupAggOperation("type", "count", "type")
        twin = DataTable(small_table.to_columns(), name=small_table.name)
        first = run_one(executor, small_table, op)
        second = run_one(executor, twin, op)
        assert first is second
        assert cache.stats.hit_rate == 0.5

    def test_cached_result_identical_to_uncached(self, small_table):
        cached = QueryExecutor(cache=ExecutionCache())
        for op in (
            FilterOperation("country", "eq", "India"),
            FilterOperation("duration", "gt", 90),
            GroupAggOperation("type", "count", "type"),
            GroupAggOperation("country", "mean", "duration"),
        ):
            run_one(cached, small_table, op)  # prime
            hit = run_one(cached, small_table, op)
            fresh = eager_apply(small_table, op)
            assert hit == fresh
            assert hit.to_records() == fresh.to_records()

    def test_lru_eviction(self, small_table):
        cache = ExecutionCache(max_entries=2)
        executor = QueryExecutor(cache=cache)
        ops = [
            FilterOperation("country", "eq", term) for term in ("India", "US", "UK")
        ]
        for op in ops:
            run_one(executor, small_table, op)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The oldest entry (India) was evicted; re-executing misses again.
        run_one(executor, small_table, ops[0])
        assert cache.stats.hits == 0

    def test_failures_are_not_cached(self, small_table):
        cache = ExecutionCache()
        executor = QueryExecutor(cache=cache)
        with pytest.raises(ExecutionError):
            run_one(executor, small_table, FilterOperation("nope", "eq", "x"))
        assert len(cache) == 0

    def test_root_operation_bypasses_cache(self, small_table):
        cache = ExecutionCache()
        executor = QueryExecutor(cache=cache)
        assert run_one(executor, small_table, RootOperation()) is small_table
        assert cache.stats.lookups == 0

    def test_clear_resets_entries_and_stats(self, small_table):
        cache = ExecutionCache()
        executor = QueryExecutor(cache=cache)
        op = FilterOperation("country", "eq", "US")
        run_one(executor, small_table, op)
        run_one(executor, small_table, op)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.lookups == 0

    def test_invalid_max_entries_rejected(self):
        with pytest.raises(ValueError):
            ExecutionCache(max_entries=0)

    def test_flush_and_close_are_noops_without_disk(self, small_table):
        cache = ExecutionCache()
        executor = QueryExecutor(cache=cache)
        first = run_one(executor, small_table, FilterOperation("country", "eq", "US"))
        assert cache.flush() == 0
        cache.close()
        assert "tiers" not in cache.describe()
        again = run_one(executor, small_table, FilterOperation("country", "eq", "US"))
        assert again is first  # still serving after close()


class TestRowBudgetBounding:
    def test_cached_rows_tracked(self, small_table):
        cache = ExecutionCache()
        executor = QueryExecutor(cache=cache)
        india = run_one(executor, small_table, FilterOperation("country", "eq", "India"))
        grouped = run_one(executor, small_table, GroupAggOperation("type", "count", "type"))
        assert cache.cached_rows == len(india) + len(grouped)

    def test_eviction_triggers_on_row_budget(self, small_table):
        # Entry count stays far below max_entries; only the row budget binds.
        cache = ExecutionCache(max_entries=100, max_cached_rows=8)
        executor = QueryExecutor(cache=cache)
        ops = [
            FilterOperation("country", "eq", "India"),   # 3 rows
            FilterOperation("country", "eq", "US"),      # 3 rows
            FilterOperation("country", "eq", "UK"),      # 2 rows
            FilterOperation("type", "eq", "Movie"),      # 4 rows
        ]
        for op in ops:
            run_one(executor, small_table, op)
        assert cache.stats.evictions > 0
        assert cache.cached_rows <= 8
        # Oldest (India) was evicted to make room; re-executing misses again.
        run_one(executor, small_table, ops[0])
        assert cache.stats.hits == 0

    def test_single_oversized_entry_is_kept(self, small_table):
        cache = ExecutionCache(max_entries=100, max_cached_rows=2)
        executor = QueryExecutor(cache=cache)
        big = run_one(executor, small_table, FilterOperation("type", "eq", "Movie"))
        assert len(big) > 2
        assert len(cache) == 1  # most recent entry survives even over budget
        assert run_one(executor, small_table, FilterOperation("type", "eq", "Movie")) is big

    def test_replacing_an_entry_does_not_double_count(self, small_table):
        cache = ExecutionCache(max_cached_rows=100)
        executor = QueryExecutor(cache=cache)
        op = FilterOperation("country", "eq", "India")
        result = run_one(executor, small_table, op)
        plan = plan_from([op])
        cache.put_plan(small_table, plan, result)  # idempotent re-put
        assert cache.cached_rows == len(result)

    def test_clear_resets_row_accounting(self, small_table):
        cache = ExecutionCache(max_cached_rows=100)
        executor = QueryExecutor(cache=cache)
        run_one(executor, small_table, FilterOperation("country", "eq", "India"))
        cache.clear()
        assert cache.cached_rows == 0

    def test_invalid_row_budget_rejected(self):
        with pytest.raises(ValueError):
            ExecutionCache(max_cached_rows=0)

    def test_describe_reports_occupancy(self, small_table):
        cache = ExecutionCache(max_entries=10, max_cached_rows=50)
        executor = QueryExecutor(cache=cache)
        run_one(executor, small_table, FilterOperation("country", "eq", "India"))
        summary = cache.describe()
        assert summary["entries"] == 1
        assert summary["cached_rows"] == cache.cached_rows
        assert summary["max_entries"] == 10
        assert summary["max_cached_rows"] == 50


REPLAY_OPS = [
    FilterOperation("country", "eq", "India"),
    GroupAggOperation("type", "count", "type"),
    BackOperation(2),
    FilterOperation("country", "neq", "India"),
    GroupAggOperation("rating", "count", "rating"),
]


class TestReplayEquivalence:
    def test_cached_replay_matches_uncached(self, small_table):
        cache = ExecutionCache()
        uncached = session_from_operations(small_table, REPLAY_OPS)
        cached_first = session_from_operations(small_table, REPLAY_OPS, cache=cache)
        cached_second = session_from_operations(small_table, REPLAY_OPS, cache=cache)
        assert cache.stats.hits > 0  # the second replay was served from cache
        for session in (cached_first, cached_second):
            assert session.describe() == uncached.describe()
            for node, expected in zip(session.query_nodes(), uncached.query_nodes()):
                assert node.signature() == expected.signature()
                assert node.view == expected.view
                assert node.view.to_records() == expected.view.to_records()

    def test_environment_rollouts_identical_with_and_without_cache(self, small_table):
        choices = [
            ActionChoice(action_type=1, filter_attr=0, filter_op=0, filter_term=1),
            ActionChoice(action_type=2, group_attr=1, agg_func=0),
            ActionChoice(action_type=0),
        ]
        plain = ExplorationEnvironment(small_table, episode_length=3, enable_cache=False)
        cached = ExplorationEnvironment(small_table, episode_length=3)
        session_plain, reward_plain = plain.rollout(choices)
        session_cached, reward_cached = cached.rollout(choices)
        session_cached_2, reward_cached_2 = cached.rollout(choices)
        assert reward_plain == pytest.approx(reward_cached)
        assert reward_cached == pytest.approx(reward_cached_2)
        assert session_plain.describe() == session_cached.describe()
        for a, b in zip(session_plain.query_nodes(), session_cached_2.query_nodes()):
            assert a.view == b.view


class TestStaticValidity:
    def test_can_execute_matches_execution_outcome(self, small_table):
        """Schema-only can_execute agrees with actually running the operation."""
        executor = QueryExecutor()
        grouped = run_one(executor, 
            small_table, GroupAggOperation("type", "count", "type")
        )
        space = ActionSpace(small_table)
        for view in (small_table, grouped):
            for op in space.enumerate_operations():
                static = executor.can_execute(view, op)
                try:
                    run_one(executor, view, op)
                except ExecutionError:
                    ran = False
                else:
                    ran = True
                assert static == ran, f"{op} on {view.columns}"

    def test_can_execute_never_runs_the_query(self, small_table, monkeypatch):
        executor = QueryExecutor()
        monkeypatch.setattr(
            DataTable,
            "filter",
            lambda *a, **k: pytest.fail("can_execute executed a filter"),
        )
        monkeypatch.setattr(
            DataTable,
            "groupby_agg",
            lambda *a, **k: pytest.fail("can_execute executed a group-by"),
        )
        assert executor.can_execute(small_table, FilterOperation("country", "eq", "x"))
        assert executor.can_execute(
            small_table, GroupAggOperation("type", "mean", "duration")
        )

    def test_back_is_not_executable(self, small_table):
        assert not QueryExecutor().can_execute(small_table, BackOperation())

    def test_valid_mask_on_raw_dataset(self, small_table):
        space = ActionSpace(small_table)
        masks = space.valid_mask(small_table)
        assert set(masks) == set(space.head_sizes())
        for head, size in space.head_sizes().items():
            assert len(masks[head]) == size
        assert masks["action_type"].all()
        assert masks["filter_attr"].all()

    def test_valid_mask_on_grouped_view(self, small_table):
        space = ActionSpace(small_table)
        grouped = small_table.groupby_agg("type", "count")
        masks = space.valid_mask(grouped)
        expected_attrs = [attr in grouped for attr in space.attributes]
        assert masks["filter_attr"].tolist() == expected_attrs
        # "duration" (the only numeric agg attribute) is gone, so numeric-only
        # aggregations are masked while count survives via the group key.
        assert not masks["agg_attr"].any()
        funcs = dict(zip(space.agg_functions, masks["agg_func"].tolist()))
        assert funcs["count"] is True
        assert funcs["sum"] is False and funcs["mean"] is False

    def test_valid_mask_agrees_with_can_execute(self, small_table):
        space = ActionSpace(small_table)
        executor = QueryExecutor()
        view = small_table.groupby_agg("type", "count")
        masks = space.valid_mask(view)
        for attr_index, attr in enumerate(space.attributes):
            op = FilterOperation(attr, "eq", space.term_for(attr, 0))
            assert bool(masks["filter_attr"][attr_index]) == executor.can_execute(view, op)


class _MaskedEnvironment:
    """Stands in for an environment whose validity masks are *masks*."""

    def __init__(self, masks):
        self.masks = masks

    def head_mask(self, head):
        return self.masks.get(head)


class TestPolicyMasking:
    def _policy(self, mask_invalid_actions=True):
        from repro.rl import CategoricalPolicy, MultiHeadPolicyNetwork

        network = MultiHeadPolicyNetwork(
            observation_size=4, head_sizes={"a": 3, "b": 2}, hidden_sizes=(8,), seed=0
        )
        return CategoricalPolicy(
            network,
            rng=np.random.default_rng(0),
            mask_invalid_actions=mask_invalid_actions,
        )

    def test_masked_choices_get_zero_probability(self):
        env = _MaskedEnvironment({"a": np.array([True, False, True])})
        distribution = self._policy().action_distribution(np.zeros(4), env)
        assert distribution["a"][1] == 0.0
        assert distribution["a"].sum() == pytest.approx(1.0)
        # Without the flag the environment's masks are not folded in.
        unmasked = self._policy(False).action_distribution(np.zeros(4), env)
        assert unmasked["a"][1] > 0.0

    def test_masked_choices_never_sampled(self):
        policy = self._policy()
        env = _MaskedEnvironment({"a": np.array([False, True, False])})
        for _ in range(50):
            assert policy.act(np.zeros(4), env).indices["a"] == 1

    def test_short_mask_is_padded(self):
        # A 2-entry mask on a 3-entry head: the extra entry stays valid.
        env = _MaskedEnvironment({"a": np.array([False, True])})
        distribution = self._policy().action_distribution(np.zeros(4), env)
        assert distribution["a"][0] == 0.0
        assert distribution["a"][2] > 0.0

    def test_degenerate_masks_are_ignored(self):
        env = _MaskedEnvironment({"a": np.array([False, False, False])})
        distribution = self._policy().action_distribution(np.zeros(4), env)
        assert distribution["a"].sum() == pytest.approx(1.0)
        assert (distribution["a"] > 0).all()

    def test_gradient_update_reuses_sampling_masks(self):
        policy = self._policy()
        env = _MaskedEnvironment({"a": np.array([True, False, True])})
        decision = policy.act(np.zeros(4), env)
        policy.zero_grad()
        # Must not raise and must reproduce the masked distribution.
        policy.accumulate_gradient(decision, advantage=1.0, value_target=0.0)

    def test_environment_head_mask_hook(self, small_table):
        env = ExplorationEnvironment(small_table, episode_length=2)
        env.reset()
        mask = env.head_mask("filter_attr")
        assert mask is not None and mask.all()
        assert env.head_mask("no_such_head") is None
        # Masks are memoised per session node.
        assert env.action_masks() is env.action_masks()


class TestInvalidStepAccounting:
    def test_note_invalid_step_is_public(self, small_table):
        from repro.explore import ExplorationSession

        session = ExplorationSession(small_table)
        session.note_invalid_step()
        assert session.steps_taken == 1
        assert session.operations == []
        assert session.num_queries() == 0

    def test_environment_counts_invalid_steps_via_public_api(self, small_table):
        env = ExplorationEnvironment(small_table, episode_length=2)
        env.reset()
        env.step(ActionChoice(action_type=2, group_attr=0, agg_func=0))
        # The grouped view lost the numeric column: a mean aggregation is now
        # statically invalid and must consume a step without adding a node.
        mean_index = env.action_space.agg_functions.index("mean")
        queries_before = env.session.num_queries()
        result = env.step(ActionChoice(action_type=2, group_attr=0, agg_func=mean_index))
        assert result.info["valid"] is False
        assert result.reward < 0
        assert env.session.num_queries() == queries_before
        assert env.session.steps_taken == 2


class TestSortByMixedTypes:
    def _mixed_table(self) -> DataTable:
        # Bypass dtype coercion the same way internal columnar paths can:
        # a "str" column carrying raw ints and strings from an adapter.
        col = Column.__new__(Column)
        col.name = "m"
        col.dtype = "str"
        col._values = (3, "b", 1, None, "a", 2)
        return DataTable([col])

    def test_mixed_column_sorts_without_error(self):
        table = self._mixed_table()
        ordered = [row["m"] for row in table.sort_by("m").rows()]
        # Numbers first (ascending), then strings, nulls last.
        assert ordered == [1, 2, 3, "a", "b", None]

    def test_mixed_column_sorts_descending(self):
        table = self._mixed_table()
        ordered = [row["m"] for row in table.sort_by("m", descending=True).rows()]
        assert ordered == ["b", "a", 3, 2, 1, None]

    def test_plain_numeric_sort_unchanged(self, small_table):
        ordered = [
            row["duration"] for row in small_table.sort_by("duration").rows()
        ]
        assert ordered == sorted(ordered)


class TestStrictGroupExecution:
    def test_missing_agg_attr_raises(self, small_table):
        executor = QueryExecutor()
        grouped = run_one(executor, 
            small_table, GroupAggOperation("type", "count", "type")
        )
        with pytest.raises(ExecutionError, match="aggregate attribute"):
            run_one(executor, grouped, GroupAggOperation("type", "sum", "duration"))

    def test_missing_agg_attr_is_invalid_not_substituted(self, small_table):
        executor = QueryExecutor()
        grouped = run_one(executor, 
            small_table, GroupAggOperation("type", "count", "type")
        )
        assert not executor.can_execute(
            grouped, GroupAggOperation("type", "sum", "duration")
        )

    def test_count_over_group_key_keeps_bare_name(self, small_table):
        result = small_table.groupby_agg("type", "count")
        assert result.columns == ["type", "count"]

    def test_count_over_other_column_gets_explicit_name(self, small_table):
        result = small_table.groupby_agg("type", "count", "country")
        assert result.columns == ["type", "count_country"]

    def test_group_index_reused_across_aggregations(self, small_table):
        by_count = small_table.groupby_agg("type", "count")
        by_mean = small_table.groupby_agg("type", "mean", "duration")
        assert set(by_count.column("type").values) == set(
            by_mean.column("type").values
        )
        assert "type" in small_table._group_rows  # one grouping pass, memoised


class TestPredicateMaskFastPath:
    @pytest.mark.parametrize("op", FILTER_OPERATORS)
    def test_mask_matches_per_cell_evaluate(self, op):
        column = Column("x", ["10", "25", "", "apple", "Apricot", "30.5", None])
        for term in ("2", 25, "ap", "10", "e"):
            predicate = Predicate("x", op, term)
            assert list(predicate.mask(column)) == [
                predicate.evaluate(value) for value in column
            ]

    @pytest.mark.parametrize("op", FILTER_OPERATORS)
    def test_mask_matches_on_numeric_columns(self, op):
        column = Column("x", [1, 5, None, 30, -2])
        for term in (5, "5", "abc", 2.5):
            predicate = Predicate("x", op, term)
            assert list(predicate.mask(column)) == [
                predicate.evaluate(value) for value in column
            ]

    def test_nulls_never_match(self):
        column = Column("x", [None, None])
        assert list(Predicate("x", "neq", "z").mask(column)) == [False, False]

    @given(
        st.lists(
            st.one_of(
                st.none(),
                st.integers(min_value=-100, max_value=100),
                st.floats(allow_nan=False, allow_infinity=False, width=16),
                st.text(alphabet="abc015. -", max_size=6),
            ),
            max_size=12,
        ),
        st.sampled_from(FILTER_OPERATORS),
        st.one_of(st.integers(-5, 5), st.text(alphabet="abc015.", max_size=4)),
    )
    def test_mask_equals_per_cell_evaluate_property(self, values, op, term):
        """The columnar fast path is exactly evaluate() applied per cell."""
        column = Column("x", values)
        predicate = Predicate("x", op, term)
        assert list(predicate.mask(column)) == [
            predicate.evaluate(value) for value in column
        ]

    @pytest.mark.parametrize("op", FILTER_OPERATORS)
    def test_mask_matches_on_dtype_bypassed_mixed_column(self, op):
        # A str-dtype column carrying raw ints (as external adapters can
        # produce): mask must dispatch on the cell type, like evaluate().
        column = Column.__new__(Column)
        column.name = "m"
        column.dtype = "str"
        column._values = (3, "b", 1, None, "3.0", 2.5)
        for term in (3.0, "3", "b", 2):
            predicate = Predicate("m", op, term)
            assert list(predicate.mask(column)) == [
                predicate.evaluate(value) for value in column
            ]
