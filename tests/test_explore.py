"""Tests for the exploration model: operations, sessions, executor, rewards, environment."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eager_oracle import run_one
import repro
from repro.dataframe import DataTable
from repro.explore import (
    ActionChoice,
    ActionSpace,
    BackOperation,
    ExecutionError,
    ExplorationEnvironment,
    ExplorationSession,
    FilterOperation,
    GenericExplorationReward,
    GroupAggOperation,
    QueryExecutor,
    RootOperation,
    conciseness,
    filter_interestingness,
    kl_divergence,
    operation_from_signature,
    result_distance,
    session_diversity,
    session_from_operations,
)


class TestOperations:
    def test_filter_signature(self):
        op = FilterOperation("country", "=", "India")
        assert op.signature() == ("F", "country", "eq", "India")
        assert "country" in op.describe()

    def test_group_signature_and_alias(self):
        op = GroupAggOperation("type", "CNT", "type")
        assert op.signature() == ("G", "type", "count", "type")

    def test_root_and_back(self):
        assert RootOperation().signature() == ("ROOT",)
        assert BackOperation(2).signature() == ("B", "2")

    def test_from_signature_roundtrip(self):
        op = operation_from_signature(["F", "country", "eq", "India"])
        assert isinstance(op, FilterOperation)
        op = operation_from_signature(["G", "type", "count", "type"])
        assert isinstance(op, GroupAggOperation)

    def test_from_signature_invalid(self):
        with pytest.raises(ValueError):
            operation_from_signature(["Z", "x"])
        with pytest.raises(ValueError):
            operation_from_signature(["F", "a"])


class TestExecutor:
    def test_filter_execution(self, small_table):
        executor = QueryExecutor()
        result = run_one(executor, small_table, FilterOperation("country", "eq", "India"))
        assert len(result) == 3

    def test_group_execution(self, small_table):
        executor = QueryExecutor()
        result = run_one(executor, small_table, GroupAggOperation("type", "count", "type"))
        assert set(result.columns) == {"type", "count"}

    def test_missing_column_raises(self, small_table):
        executor = QueryExecutor()
        with pytest.raises(ExecutionError):
            run_one(executor, small_table, FilterOperation("nope", "eq", "x"))

    def test_mean_on_string_column_raises(self, small_table):
        executor = QueryExecutor()
        with pytest.raises(ExecutionError):
            run_one(executor, small_table, GroupAggOperation("type", "mean", "country"))

    def test_can_execute(self, small_table):
        executor = QueryExecutor()
        assert executor.can_execute(small_table, FilterOperation("country", "eq", "India"))
        assert not executor.can_execute(small_table, FilterOperation("nope", "eq", "x"))


class TestSession:
    def test_session_tree_structure(self, compliant_session):
        assert compliant_session.num_queries() == 4
        tree = compliant_session.to_tree()
        assert tree.size() == 5
        assert len(tree.children) == 2

    def test_back_moves_cursor(self, small_table):
        session = ExplorationSession(small_table)
        executor = QueryExecutor()
        op = FilterOperation("country", "eq", "India")
        session.apply(op, executor)
        assert session.current.depth() == 1
        session.go_back()
        assert session.current is session.root

    def test_back_at_root_is_safe(self, small_table):
        session = ExplorationSession(small_table)
        session.go_back(3)
        assert session.current is session.root

    def test_steps_include_backs(self, compliant_session):
        assert compliant_session.steps_taken == 5  # 4 queries + 1 back action

    def test_describe_mentions_operations(self, compliant_session):
        text = compliant_session.describe()
        assert "FILTER country = India" in text
        assert "GROUP-BY type" in text

    def test_replay_from_operations_matches(self, small_table):
        ops = [FilterOperation("country", "eq", "US"), GroupAggOperation("type", "count", "type")]
        session = session_from_operations(small_table, ops)
        assert session.num_queries() == 2
        assert session.query_nodes()[1].parent is session.query_nodes()[0]


class TestInterestingnessAndDiversity:
    def test_kl_divergence_zero_for_identical(self):
        assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.0, abs=1e-9)

    def test_kl_divergence_positive_for_different(self):
        assert kl_divergence([0.9, 0.1], [0.5, 0.5]) > 0

    def test_kl_mismatched_support_raises(self):
        with pytest.raises(ValueError):
            kl_divergence([1.0], [0.5, 0.5])

    def test_filter_interestingness_zero_for_identity(self, small_table):
        assert filter_interestingness(small_table, small_table) == 0.0

    def test_filter_interestingness_positive_for_skewed_subset(self, small_table):
        india = small_table.filter_rows(
            [c == "India" for c in small_table.column("country")]
        )
        assert filter_interestingness(small_table, india) > 0.0

    def test_filter_interestingness_empty_result(self, small_table):
        empty = small_table.filter_rows([False] * len(small_table))
        assert filter_interestingness(small_table, empty) == 0.0

    def test_conciseness_single_group_is_zero(self):
        assert conciseness(DataTable({"k": ["a"], "count": [10]})) == 0.0

    def test_conciseness_prefers_few_groups(self):
        few = DataTable({"k": ["a", "b", "c"], "count": [10, 6, 3]})
        many = DataTable({"k": [f"v{i}" for i in range(60)], "count": [1] * 60})
        assert conciseness(few) > conciseness(many)

    def test_result_distance_bounds(self, small_table):
        assert result_distance(small_table, small_table) == pytest.approx(0.0, abs=0.05)
        other = DataTable({"x": [1, 2, 3]})
        assert result_distance(small_table, other) > 0.5

    def test_session_diversity_no_previous(self, small_table):
        assert session_diversity(small_table, []) == 1.0

    def test_session_score_independent_of_hash_seed(self):
        # Sessions whose shared-column overlaps sum to different last bits
        # when the columns are visited in string-set order.
        script = (
            "from repro.datasets import load_dataset\n"
            "from repro.explore import FilterOperation as F, GenericExplorationReward, "
            "session_from_operations\n"
            "for name, ops in (\n"
            "    ('flights', [F('month', 'eq', 8), F('airline', 'eq', 'F9')]),\n"
            "    ('playstore', [F('category', 'eq', 'ART_AND_DESIGN'), F('rating', 'eq', 4.7)]),\n"
            "):\n"
            "    session = session_from_operations(load_dataset(name, num_rows=300), ops)\n"
            "    print(GenericExplorationReward().session_score(session).hex())\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        outputs = set()
        for hash_seed in ("1", "2", "3"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=hash_seed,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            )
            outputs.add(
                subprocess.run(
                    [sys.executable, "-c", script],
                    capture_output=True,
                    text=True,
                    check=True,
                    env=env,
                ).stdout
            )
        assert len(outputs) == 1


class TestActionSpaceAndEnvironment:
    def test_head_sizes_cover_all_heads(self, small_table):
        space = ActionSpace(small_table)
        sizes = space.head_sizes()
        assert set(sizes) == {
            "action_type",
            "filter_attr",
            "filter_op",
            "filter_term",
            "group_attr",
            "agg_func",
            "agg_attr",
        }
        assert all(size >= 1 for size in sizes.values())

    def test_decode_filter_and_group(self, small_table):
        space = ActionSpace(small_table)
        op = space.decode(ActionChoice(action_type=1, filter_attr=0, filter_op=0, filter_term=0))
        assert isinstance(op, FilterOperation)
        op = space.decode(ActionChoice(action_type=2, group_attr=0, agg_func=0, agg_attr=0))
        assert isinstance(op, GroupAggOperation)
        op = space.decode(ActionChoice(action_type=0))
        assert isinstance(op, BackOperation)

    def test_count_agg_uses_group_attr(self, small_table):
        space = ActionSpace(small_table)
        index = space.agg_functions.index("count")
        op = space.decode(ActionChoice(action_type=2, group_attr=0, agg_func=index, agg_attr=0))
        assert op.agg_attr == op.group_attr

    def test_terms_derived_per_attribute(self, small_table):
        space = ActionSpace(small_table)
        assert "India" in space.terms["country"]
        assert space.index_of_term("country", "India") is not None
        assert space.index_of_term("country", "Narnia") is None

    def test_environment_episode_lifecycle(self, small_table):
        env = ExplorationEnvironment(small_table, episode_length=3)
        observation = env.reset()
        assert len(observation) == env.observation_size()
        total_steps = 0
        done = False
        while not done:
            result = env.step(ActionChoice(action_type=2))
            done = result.done
            total_steps += 1
        assert total_steps == 3
        with pytest.raises(RuntimeError):
            env.step(ActionChoice(action_type=2))

    def test_environment_invalid_action_penalty(self, small_table):
        env = ExplorationEnvironment(small_table, episode_length=2)
        env.reset()
        # Filtering on a term slot always works, so force an invalid group: mean of a
        # string column cannot happen via decode; instead check invalid flag wiring by
        # using an empty-result filter which is valid but penalised less.
        result = env.step(ActionChoice(action_type=1, filter_attr=0, filter_op=0, filter_term=5))
        assert isinstance(result.reward, float)

    def test_environment_rollout(self, small_table):
        env = ExplorationEnvironment(small_table, episode_length=3)
        session, total = env.rollout(
            [ActionChoice(action_type=1), ActionChoice(action_type=2), ActionChoice(action_type=0)]
        )
        assert session.steps_taken == 3

    def test_session_score_positive_for_good_session(self, compliant_session):
        scorer = GenericExplorationReward()
        assert scorer.session_score(compliant_session) > 0

    def test_observation_memoised_per_view(self, small_table):
        env = ExplorationEnvironment(small_table, episode_length=4)
        first = env.reset()
        assert len(env._view_feature_memo) == 1  # root view featurised once
        env.step(ActionChoice(action_type=1, filter_attr=0, filter_op=0, filter_term=0))
        assert len(env._view_feature_memo) == 2
        # A fresh episode revisits the same views: no new memo entries, and
        # the observation is identical to the first episode's.
        second = env.reset()
        assert len(env._view_feature_memo) == 2
        assert np.array_equal(first, second)

    def test_observation_progress_features_still_change_per_step(self, small_table):
        env = ExplorationEnvironment(small_table, episode_length=4)
        env.reset()
        before = env.observe()
        result = env.step(ActionChoice(action_type=0))  # back at root: same view
        after = result.observation
        # View features (indices 0-1 and 4+) match; progress (2-3) moved on.
        assert np.array_equal(before[:2], after[:2])
        assert np.array_equal(before[4:], after[4:])
        assert before[3] != after[3]


@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=20),
)
def test_property_decode_never_fails(action_type, a, b):
    table = DataTable(
        {"c": ["x", "y", "z", "x"], "n": [1, 2, 3, 4]}
    )
    space = ActionSpace(table)
    choice = ActionChoice(
        action_type=action_type, filter_attr=a, filter_op=b, filter_term=a,
        group_attr=b, agg_func=a, agg_attr=b,
    )
    operation = space.decode(choice)
    assert operation.kind in ("F", "G", "B")
