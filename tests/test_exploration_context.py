"""Tests for the engine-wide exploration context.

Every request of a :class:`LinxEngine` draws its action space, generic-reward
scorer, LDX matcher and decision memo from one
:class:`SharedExplorationContext`.  The load-bearing property: pooling is
pure, so whatever ran before — other specifications, other datasets, a
wholesale clear at the entry budget — a request's result equals a fresh
engine's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.generator import generate_benchmark
from repro.cdrl import CdrlConfig, LinxCdrlAgent
from repro.cdrl import context as context_module
from repro.cdrl.context import SharedExplorationContext
from repro.datasets import load_dataset
from repro.engine import ExploreRequest, LinxEngine
from repro.ldx.parser import parse_ldx
from repro.tregex import build_tree

LDX = "ROOT CHILDREN <A1>\nA1 LIKE [G,.*]"


def _playstore_requests(meta_goals, seed=3, episodes=6):
    benchmark = generate_benchmark()
    requests = []
    for meta_goal in meta_goals:
        instance = next(
            i for i in benchmark.by_meta_goal(meta_goal) if i.dataset == "playstore"
        )
        requests.append(
            ExploreRequest(
                goal=instance.goal,
                dataset=instance.dataset,
                num_rows=120,
                ldx_text=instance.ldx_text,
                seed=seed,
                episodes=episodes,
            )
        )
    return requests


def _fresh_result(request, config):
    engine = LinxEngine(cdrl_config=config)
    try:
        return engine.explore(request)
    finally:
        engine.close()


def _live_entries(shared: SharedExplorationContext) -> int:
    return sum(len(memo) for memo in list(shared._memos.values()))


class TestOneContextPerEngine:
    def test_interleaved_requests_equal_fresh_engines(self):
        """Playstore meta-goal 2's specification extends the action space.

        One unbatched engine serves meta-goals 2 → 1 → 2 on the same
        dataset; each result equals a fresh engine's, and the second
        meta-goal-2 request reuses the first one's pools.
        """
        config = CdrlConfig(episodes=6)
        requests = _playstore_requests([2, 1, 2])
        expected = [_fresh_result(request, config) for request in requests]
        engine = LinxEngine(cdrl_config=config)
        try:
            actual = []
            for request in requests:
                actual.append(engine.explore(request))
                if len(actual) == 2:
                    pools = engine.exploration_context.describe()
            after = engine.exploration_context.describe()
        finally:
            engine.close()
        assert actual == expected
        assert pools["action_spaces"] == pools["decision_memos"] == 2
        assert after["action_spaces"] == after["decision_memos"] == 2

    def test_text_and_parsed_query_share_pools(self):
        table = load_dataset("netflix", num_rows=60)
        shared = SharedExplorationContext()
        config = CdrlConfig(episodes=2)
        from_text = LinxCdrlAgent(table, LDX + "\n", config=config, shared=shared)
        from_query = LinxCdrlAgent(table, parse_ldx(LDX), config=config, shared=shared)
        assert from_text.action_space is from_query.action_space
        assert from_text._generic_reward is from_query._generic_reward
        assert from_text.matcher is from_query.matcher
        assert from_text.policy._decision_memo is from_query.policy._decision_memo
        counts = shared.describe()
        assert counts["action_spaces"] == counts["decision_memos"] == 1
        assert counts["matchers"] == counts["scorers"] == 1

    def test_environments_share_the_pooled_feature_memo(self):
        """Every environment of every agent on one dataset, batched rollout
        siblings included, reads and fills one view-feature memo."""
        table = load_dataset("netflix", num_rows=60)
        shared = SharedExplorationContext()
        first = LinxCdrlAgent(table, LDX, config=CdrlConfig(episodes=2), shared=shared)
        second = LinxCdrlAgent(
            table, LDX, config=CdrlConfig(episodes=2, num_envs=3), shared=shared
        )
        memo = shared.view_feature_memo(table)
        environments = [first.environment, *second.trainer.environments]
        assert all(env._view_feature_memo is memo for env in environments)
        first.run()
        assert memo
        filled = dict(memo)
        second.run()
        assert all(memo[key] is value for key, value in filled.items())

    def test_agent_without_engine_makes_a_private_context(self):
        table = load_dataset("netflix", num_rows=60)
        config = CdrlConfig(episodes=2)
        first = LinxCdrlAgent(table, LDX, config=config)
        second = LinxCdrlAgent(table, LDX, config=config)
        assert first.shared is not second.shared
        assert first.action_space is not second.action_space

    def test_memoised_rows_are_read_only(self):
        table = load_dataset("netflix", num_rows=60)
        agent = LinxCdrlAgent(table, LDX, config=CdrlConfig(episodes=2))
        agent.run()
        memo = agent.policy._decision_memo
        guidance = agent.policy._guidance_memo
        folds = agent.action_space.fold_memo
        assert memo and guidance and folds
        agent.environment.reset()
        biases = agent.policy.decision_biases(agent.environment)
        assert any(value is biases for value in memo.values())
        for value in [*memo.values(), *guidance.values()]:
            assert not value.row.flags.writeable
            assert not value.folded.flags.writeable
        for masked in folds.values():
            assert not masked.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            biases.row[0] += 1.0
        with pytest.raises(ValueError, match="read-only"):
            biases.folded[:] = True


class TestEntryBudget:
    def test_budget_bounds_entries_and_clears_stay_pure(self, monkeypatch):
        """Drive one engine well past a small budget.

        After every request the charged count and the entries actually held
        stay within the budget, the context has cleared at least once, and
        every result still equals a fresh engine's.
        """
        config = CdrlConfig(episodes=6)
        requests = _playstore_requests([2, 1, 2, 1], seed=5)
        expected = [_fresh_result(request, config) for request in requests]
        budget = 150
        monkeypatch.setattr(context_module, "MAX_POOLED_ENTRIES", budget)
        engine = LinxEngine(cdrl_config=config)
        shared = engine.exploration_context
        try:
            for request, fresh in zip(requests, expected):
                assert engine.explore(request) == fresh
                described = shared.describe()
                assert described["max_entries"] == budget
                assert _live_entries(shared) <= described["entries"] <= budget
        finally:
            engine.close()
        assert shared.describe()["clears"] >= 2

    def test_clear_empties_memos_held_by_running_requests(self, monkeypatch):
        monkeypatch.setattr(context_module, "MAX_POOLED_ENTRIES", 4)
        shared = SharedExplorationContext()
        query = parse_ldx(LDX)
        table = load_dataset("netflix", num_rows=60)
        held = shared.matcher(query)
        assert held.verify_structure(build_tree(("ROOT", [("G", "a", "count", "b")])))
        assert not held.verify_structure(build_tree(("ROOT", [])))
        assert shared.describe()["entries"] == 3  # the pool and two tree shapes
        other = shared.decision_memo(query, table, True)
        assert shared.describe()["entries"] == 4
        # The budget is full: the next new key clears everything first.
        other["c"] = np.zeros(1)
        assert held._shapes == {} and list(other) == ["c"]
        described = shared.describe()
        assert described["clears"] == 1
        assert described["entries"] == 1
        assert described["matchers"] == described["decision_memos"] == 0
        # A fresh pool after the clear is a new object; the old one stays
        # usable for the request still holding it.
        assert shared.matcher(query) is not held
        assert held.verify(build_tree(("ROOT", [("G", "a", "count", "b")])))
        assert _live_entries(shared) <= shared.describe()["entries"]

    def test_view_summaries_are_charged_and_cleared(self, monkeypatch):
        """The scorer's per-view distance summaries count against the budget,
        and a wholesale clear empties them with every other memo."""
        shared = SharedExplorationContext()
        table = load_dataset("netflix", num_rows=60)
        scorer = shared.scorer(table)
        assert any(memo is scorer._summary_memo for memo in shared._memos.values())
        a, b, c = table.head(5), table.head(7), table.head(9)
        expected = scorer._view_distance(a, b)
        # The scorer pool, two summaries and one distance.
        assert shared.describe()["entries"] == 4
        assert set(scorer._summary_memo) == {a.fingerprint(), b.fingerprint()}
        monkeypatch.setattr(context_module, "MAX_POOLED_ENTRIES", 4)
        # ``c``'s summary is the next new key and the budget is full, so
        # every memo is emptied before it is stored.
        scorer._view_distance(a, c)
        assert shared.describe()["clears"] == 1
        assert list(scorer._summary_memo) == [c.fingerprint()]
        assert list(scorer._distance_memo) == [
            tuple(sorted((a.fingerprint(), c.fingerprint())))
        ]
        # Recomputed after the clear, the distance is unchanged.
        assert scorer._view_distance(a, b) == expected

    def test_guidance_rows_and_folds_are_charged_and_cleared(self, monkeypatch):
        """The pooled composed rows and mask folds count against the budget,
        and a wholesale clear empties them with every other memo."""
        shared = SharedExplorationContext()
        table = load_dataset("netflix", num_rows=60)
        agent = LinxCdrlAgent(table, LDX, config=CdrlConfig(episodes=1), shared=shared)
        policy, environment = agent.policy, agent.environment
        guidance, folds = policy._guidance_memo, agent.action_space.fold_memo
        for memo in (guidance, folds):
            assert any(pooled is memo for pooled in shared._memos.values())
        environment.reset()
        sizes = len(guidance), len(folds)
        entries, live = shared.describe()["entries"], _live_entries(shared)
        expected = policy.decision_biases(environment)
        assert (len(guidance), len(folds)) == (sizes[0] + 1, sizes[1] + 1)
        # Every new key of the miss (row, guidance row, fold, masks, shape) is charged.
        assert shared.describe()["entries"] - entries == _live_entries(shared) - live >= 2
        monkeypatch.setattr(context_module, "MAX_POOLED_ENTRIES", shared.describe()["entries"])
        shared._charge()
        assert shared.describe()["clears"] == 1
        assert not guidance and not folds
        # Recomputed after the clear, the row is unchanged.
        again = policy.decision_biases(environment)
        assert again is not expected
        assert again.row.tobytes() == expected.row.tobytes()
        assert again.folded.tolist() == expected.folded.tolist()

    def test_matcher_shapes_are_charged_and_a_mid_run_clear_stays_pure(self, monkeypatch):
        """The pooled matcher's shape entries count against the budget, and a
        request during which the budget clears equals a fresh engine's."""
        config = CdrlConfig(episodes=6)
        first = _playstore_requests([1], seed=3)[0]
        second = _playstore_requests([1], seed=4)[0]
        expected = _fresh_result(second, config)
        engine = LinxEngine(cdrl_config=config)
        shared = engine.exploration_context
        try:
            engine.explore(first)
            query = parse_ldx(first.ldx_text)
            matcher = shared.matcher(query)
            assert matcher._shapes
            assert any(memo is matcher._shapes for memo in shared._memos.values())
            entries = shared.describe()["entries"]
            # A tree shape no session of the request built: one more entry.
            matcher.verify(build_tree(("ROOT", [("F",)] * 9)))
            assert shared.describe()["entries"] == entries + 1
            # The budget is now full: the second request clears it mid-run.
            monkeypatch.setattr(context_module, "MAX_POOLED_ENTRIES", entries + 1)
            served = engine.explore(second)
        finally:
            engine.close()
        assert shared.describe()["clears"] >= 1
        assert shared.matcher(query) is not matcher
        assert served == expected
