"""Tests for lock-step rollouts (repro.explore.rollouts).

The load-bearing property is *bit-identity*: a K-environment batched rollout
must reproduce K one-at-a-time rollouts exactly — same actions, same
rewards, same observations, same log-probabilities — at equal seeds.  That
holds because per-episode RNG streams derive from ``(seed, episode_index)``
and the policy's batched kernels are row-bit-identical to the
single-observation ones.  At K = 1 with ``seed=None`` (the served training
path) consecutive episodes must equal single-observation acting on the
policy's own generator.
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
from repro.explore.action_space import ActionSpace
from repro.explore.rollouts import collect_rollouts, env_rng
from rollout_oracle import collect_sequential_rollouts

LDX = "ROOT CHILDREN <A1,A2>\nA1 LIKE [F,.*]\nA2 LIKE [G,.*]"


@pytest.fixture(scope="module")
def flights():
    return load_dataset("flights", num_rows=300)


@pytest.fixture(scope="module")
def space(flights):
    return ActionSpace(flights)


def _environments(table, space, count, episode_length, cache=None):
    """*count* lock-step environments sharing one action space, cache and memo."""
    cache = cache if cache is not None else ExecutionCache()
    memo: dict = {}
    return [
        ExplorationEnvironment(
            table,
            episode_length=episode_length,
            action_space=space,
            cache=cache,
            feature_memo=memo,
        )
        for _ in range(count)
    ]


def _masking_policy(space, environments, seed):
    return build_basic_policy(
        observation_size=environments[0].observation_size(),
        action_space=space,
        seed=seed,
        mask_invalid_actions=True,
    )


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


class TestLockStepArguments:
    def test_rejects_empty(self, flights, space):
        policy = _masking_policy(space, _environments(flights, space, 1, 4), seed=0)
        with pytest.raises(ValueError, match="at least one environment"):
            collect_rollouts([], policy)

    def test_rejects_mismatched_episode_lengths(self, flights, space):
        envs = [
            ExplorationEnvironment(flights, episode_length=4, action_space=space),
            ExplorationEnvironment(flights, episode_length=6, action_space=space),
        ]
        policy = _masking_policy(space, envs, seed=0)
        with pytest.raises(ValueError, match="equal episode lengths"):
            collect_rollouts(envs, policy)

    def test_rejects_mismatched_observation_sizes(self, flights, space):
        netflix = load_dataset("netflix", num_rows=60)
        envs = [
            ExplorationEnvironment(flights, episode_length=4, action_space=space),
            ExplorationEnvironment(netflix, episode_length=4),
        ]
        assert envs[0].observation_size() != envs[1].observation_size()
        policy = _masking_policy(space, envs, seed=0)
        with pytest.raises(ValueError, match="observation sizes"):
            collect_rollouts(envs, policy)


class TestBitIdentity:
    def test_basic_policy_batched_equals_sequential(self, flights, space):
        num = 6
        envs = _environments(flights, space, num, episode_length=6)
        batched = collect_rollouts(envs, _masking_policy(space, envs, seed=3), seed=42)

        # Fresh environments with *private* caches: caching must not change
        # results, only speed.
        private = [
            ExplorationEnvironment(flights, episode_length=6, action_space=space)
            for _ in range(num)
        ]
        sequential = collect_sequential_rollouts(
            private, _masking_policy(space, private, seed=3), seed=42
        )
        _assert_rollouts_identical(batched, sequential)

    def test_spec_aware_policy_batched_equals_sequential(self, flights):
        config = CdrlConfig(episodes=8, num_envs=4, seed=5)
        agent_a = LinxCdrlAgent(flights, LDX, config=config)
        agent_b = LinxCdrlAgent(flights, LDX, config=config)
        batched = collect_rollouts(
            agent_a.trainer.environments,
            agent_a.policy,
            seed=9,
            decision_to_choice=agent_a.policy.indices_to_choice,
        )
        sequential = collect_sequential_rollouts(
            agent_b.trainer.environments,
            agent_b.policy,
            seed=9,
            decision_to_choice=agent_b.policy.indices_to_choice,
        )
        _assert_rollouts_identical(batched, sequential)

    def test_partial_wave_matches_prefix(self, flights, space):
        envs = _environments(flights, space, 5, episode_length=5)
        policy = _masking_policy(space, envs, seed=1)
        full = collect_rollouts(envs, policy, seed=11)
        partial = collect_rollouts(envs[:2], policy, seed=11)
        for full_buffer, part_buffer in zip(full.buffers[:2], partial.buffers):
            assert [t.decision.indices for t in full_buffer.transitions] == [
                t.decision.indices for t in part_buffer.transitions
            ]

    def test_episode_base_shifts_streams(self, flights, space):
        envs = _environments(flights, space, 2, episode_length=5)
        policy = build_basic_policy(
            observation_size=envs[0].observation_size(), action_space=space, seed=1
        )
        first = collect_rollouts(envs, policy, seed=0, episode_base=0)
        second = collect_rollouts(envs, policy, seed=0, episode_base=2)
        assert [t.decision.indices for t in first.buffers[0].transitions] != [
            t.decision.indices for t in second.buffers[0].transitions
        ]


def _basic_setup(flights, space):
    envs = _environments(flights, space, 1, episode_length=5)
    return envs[0], _masking_policy(space, envs, seed=4), None


def _spec_aware_setup(flights, space):
    agent = LinxCdrlAgent(flights, LDX, config=CdrlConfig(episodes=4, seed=6))
    return agent.environment, agent.policy, agent.policy.indices_to_choice


class TestOneEnvironment:
    """K = 1 with ``seed=None``: the trainer's served path."""

    @pytest.mark.parametrize("greedy", [False, True], ids=["sampled", "greedy"])
    @pytest.mark.parametrize(
        "setup", [_basic_setup, _spec_aware_setup], ids=["basic", "spec_aware"]
    )
    def test_consecutive_episodes_equal_sequential_acting(
        self, flights, space, setup, greedy
    ):
        """Each episode of a one-environment list equals the oracle's
        ``act(observation, environment, rng=None)`` loop, and the policy's
        generator ends in the same state, so the next episode continues the
        same stream."""
        env_a, policy_a, decode = setup(flights, space)
        env_b, policy_b, _ = setup(flights, space)
        for episode in range(4):
            batched = collect_rollouts(
                [env_a], policy_a, greedy=greedy, decision_to_choice=decode
            )
            sequential = collect_sequential_rollouts(
                [env_b], policy_b, seed=None, greedy=greedy, decision_to_choice=decode
            )
            _assert_rollouts_identical(batched, sequential)
            assert (
                policy_a.rng.bit_generator.state == policy_b.rng.bit_generator.state
            ), f"episode {episode}: generator states differ"
            pairs = zip(batched.buffers[0].transitions, sequential.buffers[0].transitions)
            for b, s in pairs:
                assert b.decision.biases.row.tobytes() == s.decision.biases.row.tobytes()
                assert np.array_equal(b.decision.biases.folded, s.decision.biases.folded)


class TestSharedCache:
    def test_cross_environment_reuse(self, flights, space):
        shared = ExecutionCache()
        envs = _environments(flights, space, 8, episode_length=6, cache=shared)
        policy = _masking_policy(space, envs, seed=0)
        collect_rollouts(envs, policy, seed=0)
        collect_rollouts(envs, policy, seed=1)
        stats = shared.stats
        assert stats.lookups > 0
        # Across 16 episodes over one cache some (view, operation) pairs repeat.
        assert stats.hits > 0


class TestTrainerIntegration:
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
        environments = agent.trainer.environments
        assert len(environments) == 4 and environments[0] is agent.environment
        assert {id(env.cache) for env in environments} == {id(agent.environment.cache)}
        memos = {id(env._view_feature_memo) for env in environments}
        assert memos == {id(agent.environment._view_feature_memo)}
