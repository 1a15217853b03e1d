"""Tests for the CDRL engine: compliance rewards, snippets, spec-aware policy, agent."""

from __future__ import annotations

import pytest

from repro.cdrl import (
    CdrlConfig,
    ComplianceRewardConfig,
    ComplianceRewardStrategy,
    LinxCdrlAgent,
    SNIPPET_ACTION_INDEX,
    SNIPPET_HEAD,
    SnippetLibrary,
    SpecificationAwarePolicy,
    VARIANT_NAMES,
    derive_snippets,
    end_of_session_reward,
    variant_config,
)
from repro.explore import ActionSpace
from repro.ldx import parse_ldx, verify
from repro.rl.trainer import TrainerConfig


class TestEndOfSessionReward:
    def test_fully_compliant_gets_high_reward(self, compliant_session, comparison_query):
        config = ComplianceRewardConfig()
        reward = end_of_session_reward(compliant_session, comparison_query, config)
        assert reward == config.full_compliance_reward

    def test_structural_violation_is_penalised(self, noncompliant_session, comparison_query):
        config = ComplianceRewardConfig()
        reward = end_of_session_reward(noncompliant_session, comparison_query, config)
        assert reward < 0

    def test_graded_beats_binary_for_partial_sessions(
        self, noncompliant_session, comparison_query
    ):
        config = ComplianceRewardConfig()
        graded = end_of_session_reward(
            noncompliant_session, comparison_query, config, graded=True
        )
        binary = end_of_session_reward(
            noncompliant_session, comparison_query, config, graded=False
        )
        assert graded > binary

    def test_structure_only_session_gets_operational_credit(
        self, small_table, comparison_query
    ):
        from repro.explore import (
            BackOperation,
            FilterOperation,
            GroupAggOperation,
            session_from_operations,
        )

        session = session_from_operations(
            small_table,
            [
                FilterOperation("type", "eq", "Movie"),
                GroupAggOperation("rating", "count", "rating"),
                BackOperation(2),
                FilterOperation("type", "neq", "Movie"),
                GroupAggOperation("rating", "count", "rating"),
            ],
        )
        config = ComplianceRewardConfig()
        reward = end_of_session_reward(session, comparison_query, config)
        assert 0 <= reward < config.full_compliance_reward


class TestComplianceStrategy:
    def test_strategy_summary(self, small_table, comparison_query, compliant_session):
        strategy = ComplianceRewardStrategy(comparison_query, episode_length=6)
        tree = compliant_session.to_tree()
        assert strategy.matcher.verify(tree) is True
        assert strategy.matcher.verify_structure(tree) is True
        assert strategy.matcher.operational_match_ratio(tree) == 1.0

    def test_episode_end_reward_sign(self, comparison_query, compliant_session, noncompliant_session):
        strategy = ComplianceRewardStrategy(comparison_query, episode_length=6)
        assert strategy.on_episode_end(compliant_session) > 0
        assert strategy.on_episode_end(noncompliant_session) < strategy.on_episode_end(
            compliant_session
        )


class TestSnippets:
    def test_snippets_derived_per_operational_spec(self, comparison_query):
        snippets = derive_snippets(comparison_query)
        assert len(snippets) == 4
        kinds = {snippet.kind for snippet in snippets}
        assert kinds == {"F", "G"}

    def test_filter_snippet_fixed_and_free_fields(self, comparison_query):
        snippets = derive_snippets(comparison_query)
        filter_snippets = [s for s in snippets if s.kind == "F"]
        assert all(s.fixed["attr"] == "country" for s in filter_snippets)
        assert all("term" in s.free for s in filter_snippets)

    def test_disjunction_expands_to_multiple_snippets(self):
        query = parse_ldx("ROOT CHILDREN <A>\nA LIKE [G,country,SUM|AVG,.*]")
        snippets = derive_snippets(query)
        assert {s.fixed["agg_func"] for s in snippets} == {"SUM", "AVG"}

    def test_library_extends_vocabulary(self, small_table):
        query = parse_ldx("ROOT CHILDREN <A>\nA LIKE [F,country,eq,Narnia]")
        space = ActionSpace(small_table)
        library = SnippetLibrary(query, space)
        assert space.index_of_term("country", "Narnia") is not None
        choice = library.to_action_choice(0, {})
        operation = space.decode(choice)
        assert operation.signature() == ("F", "country", "eq", "Narnia")

    def test_library_example_operations_match_specs(self, small_table, comparison_query):
        space = ActionSpace(small_table)
        library = SnippetLibrary(comparison_query, space)
        operations = [library.example_operation(i) for i in range(len(library))]
        assert any(op.signature()[0] == "F" and op.signature()[2] == "eq" for op in operations)
        assert any(op.signature()[0] == "G" for op in operations)


class TestSpecAwarePolicy:
    def test_head_layout_includes_snippet_heads(self, small_table, comparison_query):
        space = ActionSpace(small_table)
        policy = SpecificationAwarePolicy(10, space, comparison_query, hidden_sizes=(8,))
        assert SNIPPET_HEAD in policy.network.head_sizes
        assert policy.network.head_sizes["action_type"] == 4

    def test_snippet_action_biased_up(self, small_table, comparison_query):
        import numpy as np

        space = ActionSpace(small_table)
        policy = SpecificationAwarePolicy(10, space, comparison_query, hidden_sizes=(8,))
        distribution = policy.action_distribution(np.zeros(10))
        assert distribution["action_type"][SNIPPET_ACTION_INDEX] > 1.0 / 4.0

    def test_indices_to_choice_snippet_path(self, small_table, comparison_query):
        space = ActionSpace(small_table)
        policy = SpecificationAwarePolicy(10, space, comparison_query, hidden_sizes=(8,))
        choice = policy.indices_to_choice({"action_type": SNIPPET_ACTION_INDEX, SNIPPET_HEAD: 0})
        operation = space.decode(choice)
        assert operation.signature()[0] in ("F", "G")

    def test_indices_to_choice_plain_path(self, small_table, comparison_query):
        space = ActionSpace(small_table)
        policy = SpecificationAwarePolicy(10, space, comparison_query, hidden_sizes=(8,))
        choice = policy.indices_to_choice({"action_type": 0})
        assert space.decode(choice).kind == "B"


class TestAgentAndAblation:
    def test_agent_with_guidance_produces_compliant_session(self, small_table):
        ldx = (
            "ROOT CHILDREN <B1,B2>\n"
            "B1 LIKE [F,country,eq,(?<X>.*)] and CHILDREN {C1}\n"
            "C1 LIKE [G,(?<Y>.*),count,.*]\n"
            "B2 LIKE [F,country,neq,(?<X>.*)] and CHILDREN {C2}\n"
            "C2 LIKE [G,(?<Y>.*),count,.*]\n"
        )
        agent = LinxCdrlAgent(small_table, ldx, config=CdrlConfig(episodes=40, seed=2))
        result = agent.run()
        assert result.fully_compliant
        assert verify(result.session.to_tree(), agent.query)
        assert result.session.num_queries() >= 4

    def test_agent_keeps_every_nested_trainer_setting(self, small_table, comparison_query):
        nested = TrainerConfig(
            learning_rate=0.01,
            entropy_coefficient=0.1,
            value_coefficient=0.1,
            batch_episodes=4,
            reward_scale=2.0,
            discount=0.9,
            greedy_eval_every=5,
            elite_episodes=0,
            episodes=999,
            seed=99,
        )
        config = CdrlConfig(episodes=7, seed=4, trainer=nested)
        agent = LinxCdrlAgent(small_table, comparison_query, config=config)
        # Episodes and seed come from the CDRL config; every other
        # trainer hyper-parameter is taken from ``config.trainer`` as given.
        assert agent.trainer.config == TrainerConfig(
            learning_rate=0.01,
            entropy_coefficient=0.1,
            value_coefficient=0.1,
            batch_episodes=4,
            reward_scale=2.0,
            discount=0.9,
            greedy_eval_every=5,
            elite_episodes=0,
            episodes=7,
            seed=4,
        )

    def test_agent_episode_length_covers_specification(self, small_table, comparison_query):
        agent = LinxCdrlAgent(small_table, comparison_query, config=CdrlConfig(episodes=1))
        assert agent.episode_length >= comparison_query.minimal_session_steps()

    def test_variant_configs_flags(self):
        binary = variant_config("Binary Reward Only")
        assert not binary.graded_eos_reward
        assert not binary.immediate_reward
        assert not binary.specification_aware_network
        full = variant_config("LINX-CDRL (Full)")
        assert full.graded_eos_reward and full.immediate_reward
        assert full.specification_aware_network
        without_nn = variant_config("W/O Spec. Aware NN")
        assert without_nn.immediate_reward and not without_nn.specification_aware_network

    def test_unknown_variant_raises(self):
        with pytest.raises(ValueError):
            variant_config("Mystery Variant")

    def test_variant_names_match_table4(self):
        assert VARIANT_NAMES == (
            "Binary Reward Only",
            "Binary+Imm. Reward",
            "W/O Spec. Aware NN",
            "LINX-CDRL (Full)",
        )
