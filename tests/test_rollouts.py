"""Tests for batched lock-step rollouts (repro.explore.rollouts).

The load-bearing property is *bit-identity*: a K-environment batched rollout
must reproduce K one-at-a-time rollouts exactly — same actions, same
rewards, same observations, same log-probabilities — at equal seeds.  That
holds because per-episode RNG streams derive from ``(seed, episode_index)``
and the policy's batched kernels are row-bit-identical to the
single-observation ones.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.atena import AtenaAgent, AtenaConfig
from repro.cdrl.agent import CdrlConfig, LinxCdrlAgent
from repro.cdrl.spec_network import build_basic_policy
from repro.datasets import load_dataset
from repro.explore.cache import ExecutionCache
from repro.explore.environment import ExplorationEnvironment
from repro.explore.action_space import ActionSpace, choice_from_index_map
from repro.explore.rollouts import VectorEnvironment, collect_rollouts, env_rng
from repro.rl.trainer import PolicyGradientTrainer, TrainerConfig
from rollout_oracle import collect_sequential_rollouts

LDX = "ROOT CHILDREN <A1,A2>\nA1 LIKE [F,.*]\nA2 LIKE [G,.*]"


@pytest.fixture(scope="module")
def flights():
    return load_dataset("flights", num_rows=300)


@pytest.fixture(scope="module")
def space(flights):
    return ActionSpace(flights)


def _assert_rollouts_identical(batched, sequential):
    assert len(batched.buffers) == len(sequential.buffers)
    for b_buffer, s_buffer in zip(batched.buffers, sequential.buffers):
        assert len(b_buffer) == len(s_buffer)
        for b, s in zip(b_buffer.transitions, s_buffer.transitions):
            assert b.decision.indices == s.decision.indices
            assert b.reward == s.reward
            assert b.done == s.done
            assert b.decision.value == s.decision.value
            assert b.decision.log_prob == s.decision.log_prob
            assert b.decision.entropy == s.decision.entropy
            assert np.array_equal(b.decision.observation, s.decision.observation)
    for b_session, s_session in zip(batched.sessions, sequential.sessions):
        assert [op.signature() for op in b_session.operations] == [
            op.signature() for op in s_session.operations
        ]


class TestEnvRng:
    def test_streams_are_deterministic(self):
        assert env_rng(7, 3).random() == env_rng(7, 3).random()

    def test_streams_differ_across_episodes_and_seeds(self):
        draws = {env_rng(seed, k).random() for seed in (0, 1) for k in range(4)}
        assert len(draws) == 8

    def test_negative_seed_is_usable(self):
        assert env_rng(-5, 0).random() == env_rng(-5, 0).random()


class TestVectorEnvironment:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            VectorEnvironment([])

    def test_rejects_mismatched_episode_lengths(self, flights, space):
        envs = [
            ExplorationEnvironment(flights, episode_length=4, action_space=space),
            ExplorationEnvironment(flights, episode_length=6, action_space=space),
        ]
        with pytest.raises(ValueError):
            VectorEnvironment(envs)

    def test_create_shares_one_cache_and_memo(self, flights):
        vec = VectorEnvironment.create(flights, 4, episode_length=5)
        caches = {id(env.cache) for env in vec.environments}
        assert len(caches) == 1
        memos = {id(env._view_feature_memo) for env in vec.environments}
        assert len(memos) == 1

    def test_reset_and_step_shapes(self, flights, space):
        vec = VectorEnvironment.create(flights, 3, episode_length=5, action_space=space)
        observations = vec.reset()
        assert observations.shape == (3, vec.observation_size())
        assert observations.dtype == np.float64
        masks = vec.head_masks()
        for name, stacked in masks.items():
            assert stacked.shape[0] == 3, name
        policy = build_basic_policy(
            observation_size=vec.observation_size(), action_space=space, seed=0
        )
        decisions = policy.act_batch(observations, [policy.decision_biases()] * 3)
        outcome = vec.step(
            [choice_from_index_map(d.indices) for d in decisions]
        )
        assert outcome.observations.shape == (3, vec.observation_size())
        assert outcome.rewards.shape == (3,)
        assert outcome.dones.shape == (3,)
        assert len(outcome.infos) == 3


class TestBitIdentity:
    def test_basic_policy_batched_equals_sequential(self, flights, space):
        num = 6
        vec = VectorEnvironment.create(flights, num, episode_length=6, action_space=space)
        policy = build_basic_policy(
            observation_size=vec.observation_size(), action_space=space, seed=3
        )
        policy.mask_provider = vec.environments[0].head_mask
        batched = collect_rollouts(vec, policy, seed=42)

        # Fresh environments with *private* caches: caching must not change
        # results, only speed.
        envs = [
            ExplorationEnvironment(flights, episode_length=6, action_space=space)
            for _ in range(num)
        ]
        policy_seq = build_basic_policy(
            observation_size=vec.observation_size(), action_space=space, seed=3
        )
        policy_seq.mask_provider = envs[0].head_mask
        sequential = collect_sequential_rollouts(envs, policy_seq, seed=42)
        _assert_rollouts_identical(batched, sequential)

    def test_spec_aware_policy_batched_equals_sequential(self, flights):
        config = CdrlConfig(episodes=8, num_envs=4, seed=5)
        agent_a = LinxCdrlAgent(flights, LDX, config=config)
        agent_b = LinxCdrlAgent(flights, LDX, config=config)
        batched = collect_rollouts(agent_a.vector_environment, agent_a.policy, seed=9)
        sequential = collect_sequential_rollouts(
            agent_b.vector_environment.environments,
            agent_b.policy,
            seed=9,
            decision_to_choice=agent_b.policy.indices_to_choice,
        )
        # The batched collector must be given the same decoder.
        batched_decoded = collect_rollouts(
            agent_a.vector_environment,
            agent_a.policy,
            seed=9,
            decision_to_choice=agent_a.policy.indices_to_choice,
        )
        _assert_rollouts_identical(batched_decoded, sequential)
        assert batched is not None  # first collection also completed

    def test_partial_wave_matches_prefix(self, flights, space):
        vec = VectorEnvironment.create(flights, 5, episode_length=5, action_space=space)
        policy = build_basic_policy(
            observation_size=vec.observation_size(), action_space=space, seed=1
        )
        policy.mask_provider = vec.environments[0].head_mask
        full = collect_rollouts(vec, policy, seed=11)
        partial = collect_rollouts(vec, policy, seed=11, num_episodes=2)
        for full_buffer, part_buffer in zip(full.buffers[:2], partial.buffers):
            assert [t.decision.indices for t in full_buffer.transitions] == [
                t.decision.indices for t in part_buffer.transitions
            ]

    def test_episode_base_shifts_streams(self, flights, space):
        vec = VectorEnvironment.create(flights, 2, episode_length=5, action_space=space)
        policy = build_basic_policy(
            observation_size=vec.observation_size(), action_space=space, seed=1
        )
        first = collect_rollouts(vec, policy, seed=0, episode_base=0)
        second = collect_rollouts(vec, policy, seed=0, episode_base=2)
        assert [t.decision.indices for t in first.buffers[0].transitions] != [
            t.decision.indices for t in second.buffers[0].transitions
        ]


class TestCustomMaskProvider:
    def test_custom_provider_is_honored_in_batched_collection(self, flights, space):
        vec = VectorEnvironment.create(flights, 3, episode_length=5, action_space=space)
        policy = build_basic_policy(
            observation_size=vec.observation_size(), action_space=space, seed=0
        )
        forbid_filter = np.array([True, False, True])  # mask out action_type "filter"

        def provider(name):
            return forbid_filter if name == "action_type" else None

        policy.mask_provider = provider
        batch = collect_rollouts(vec, policy, seed=0)
        chosen = {
            t.decision.indices["action_type"]
            for buffer in batch.buffers
            for t in buffer.transitions
        }
        assert 1 not in chosen
        # The provider survives collection (it is not an environment hook).
        assert policy.mask_provider is provider


class TestSharedCache:
    def test_cross_environment_reuse(self, flights, space):
        shared = ExecutionCache()
        vec = VectorEnvironment.create(
            flights, 8, episode_length=6, action_space=space, cache=shared
        )
        policy = build_basic_policy(
            observation_size=vec.observation_size(), action_space=space, seed=0
        )
        policy.mask_provider = vec.environments[0].head_mask
        collect_rollouts(vec, policy, seed=0)
        collect_rollouts(vec, policy, seed=1)
        stats = shared.stats
        assert stats.lookups > 0
        # Across 16 episodes over one cache some (view, operation) pairs repeat.
        assert stats.hits > 0


class TestTrainerIntegration:
    def test_num_envs_requires_vector_environment(self, flights, space):
        environment = ExplorationEnvironment(flights, episode_length=5, action_space=space)
        policy = build_basic_policy(
            observation_size=environment.observation_size(), action_space=space, seed=0
        )
        with pytest.raises(ValueError):
            PolicyGradientTrainer(
                environment, policy, TrainerConfig(episodes=4, num_envs=4)
            )

    def test_num_envs_must_fit_the_vector_environment(self, flights, space):
        vec = VectorEnvironment.create(flights, 2, episode_length=5, action_space=space)
        policy = build_basic_policy(
            observation_size=vec.observation_size(), action_space=space, seed=0
        )
        with pytest.raises(ValueError):
            PolicyGradientTrainer(
                vec.environments[0],
                policy,
                TrainerConfig(episodes=4, num_envs=4),
                vector_environment=vec,
            )

    def test_trainer_level_num_envs_is_honored(self, flights):
        config = CdrlConfig(episodes=8, seed=0, trainer=TrainerConfig(num_envs=4))
        agent = LinxCdrlAgent(flights, LDX, config=config)
        assert agent.num_envs == 4
        assert agent.vector_environment is not None
        assert agent.vector_environment.num_envs == 4

    def test_conflicting_num_envs_settings_are_rejected(self, flights):
        config = CdrlConfig(
            episodes=8, num_envs=2, trainer=TrainerConfig(num_envs=4)
        )
        with pytest.raises(ValueError):
            LinxCdrlAgent(flights, LDX, config=config)

    def test_batched_training_is_deterministic(self, flights):
        config = CdrlConfig(episodes=12, num_envs=4, seed=2)
        first = LinxCdrlAgent(flights, LDX, config=config).run()
        second = LinxCdrlAgent(flights, LDX, config=config).run()
        assert first.history.episode_returns == second.history.episode_returns
        assert [op.signature() for op in first.session.operations] == [
            op.signature() for op in second.session.operations
        ]

    def test_batched_training_counts_episodes_exactly(self, flights):
        # 10 episodes in waves of 4 -> 4 + 4 + 2 (partial final wave).
        config = CdrlConfig(episodes=10, num_envs=4, seed=0)
        agent = LinxCdrlAgent(flights, LDX, config=config)
        result = agent.run()
        assert result.episodes_trained == 10
        assert len(agent.trainer.history.episode_steps) == 10

    def test_atena_num_envs(self, flights):
        config = AtenaConfig(episodes=8, num_envs=4, seed=1)
        agent = AtenaAgent(flights, config=config)
        result = agent.run()
        assert len(result.history.episode_returns) == 8
        assert agent.vector_environment is not None
        caches = {id(env.cache) for env in agent.vector_environment.environments}
        assert caches == {id(agent.environment.cache)}
