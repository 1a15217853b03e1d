"""Tests for the numpy RL library: network, policy, optimiser, trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dataframe import DataTable
from repro.explore import ExplorationEnvironment
from repro.rl import (
    Adam,
    CategoricalPolicy,
    EpisodeBuffer,
    LinearSchedule,
    MultiHeadPolicyNetwork,
    PolicyGradientTrainer,
    SGD,
    TrainerConfig,
    softmax,
)
from repro.rl.schedules import ConstantSchedule, ExponentialDecaySchedule


@pytest.fixture
def network():
    return MultiHeadPolicyNetwork(
        observation_size=6, head_sizes={"a": 3, "b": 4}, hidden_sizes=(16,), seed=0
    )


class TestNetwork:
    def test_softmax_sums_to_one(self):
        probs = softmax(np.array([1.0, 2.0, 3.0]))
        assert probs.sum() == pytest.approx(1.0)
        assert np.all(probs > 0)

    def test_forward_shapes(self, network):
        probabilities, value = network.forward(np.zeros(6))
        assert probabilities["a"].shape == (3,)
        assert probabilities["b"].shape == (4,)
        assert isinstance(value, float)
        for probs in probabilities.values():
            assert probs.sum() == pytest.approx(1.0)

    def test_parameter_count_positive(self, network):
        assert network.num_parameters() > 0

    def test_backward_accumulates_gradients(self, network):
        network.zero_grad()
        network.forward(np.ones(6))
        network.backward(np.array([0.1, -0.1, 0.0, 0.0, 0.0, 0.0, 0.0]), 0.5)
        grads = [g for _, g in network.parameters()]
        assert any(np.any(g != 0) for g in grads)


class TestOptimisers:
    def test_sgd_moves_parameters(self):
        weight = np.ones((2, 2))
        grad = np.ones((2, 2))
        SGD(learning_rate=0.1).step([(weight, grad)])
        assert np.allclose(weight, 0.9)

    def test_adam_moves_parameters(self):
        weight = np.ones(3)
        grad = np.ones(3)
        Adam(learning_rate=0.1).step([(weight, grad)])
        assert np.all(weight < 1.0)

    def test_gradient_clipping(self):
        weight = np.zeros(2)
        grad = np.array([1000.0, 1000.0])
        SGD(learning_rate=1.0, clip_norm=1.0).step([(weight, grad)])
        assert np.linalg.norm(weight) <= 1.0 + 1e-6


class TestPolicy:
    def test_act_returns_valid_indices(self, network):
        policy = CategoricalPolicy(network, rng=np.random.default_rng(0))
        decision = policy.act(np.zeros(6))
        assert 0 <= decision.indices["a"] < 3
        assert 0 <= decision.indices["b"] < 4
        assert decision.log_prob <= 0
        assert decision.entropy > 0

    def test_greedy_act_is_argmax(self, network):
        policy = CategoricalPolicy(network, rng=np.random.default_rng(0))
        decision = policy.act(np.ones(6), greedy=True)
        distribution = policy.action_distribution(np.ones(6))
        assert set(distribution) == set(decision.indices)
        for head, probs in distribution.items():
            assert decision.indices[head] == int(np.argmax(probs))

    def test_gradient_accumulation_and_update_changes_distribution(self, network):
        policy = CategoricalPolicy(network, rng=np.random.default_rng(0))
        observation = np.ones(6)
        before = policy.action_distribution(observation)["a"].copy()
        # Strongly reinforce action 0 of head "a".
        optimizer = Adam(learning_rate=0.05)
        for _ in range(30):
            decision = policy.act(observation)
            advantage = 1.0 if decision.indices["a"] == 0 else -1.0
            policy.zero_grad()
            policy.accumulate_gradient(decision, advantage, value_target=0.0)
            optimizer.step(policy.parameters())
        after = policy.action_distribution(observation)["a"]
        assert after[0] > before[0]


class TestBufferAndSchedules:
    def test_returns_are_discounted(self):
        buffer = EpisodeBuffer()
        dummy = CategoricalPolicy(
            MultiHeadPolicyNetwork(2, {"a": 2}, (4,), seed=1), np.random.default_rng(1)
        ).act(np.zeros(2))
        buffer.add(dummy, 1.0, False)
        buffer.add(dummy, 1.0, True)
        returns = buffer.returns(discount=0.5)
        assert returns == [1.5, 1.0]
        assert buffer.total_reward() == 2.0

    def test_linear_schedule(self):
        schedule = LinearSchedule(1.0, 0.0, 10)
        assert schedule.value(0) == 1.0
        assert schedule.value(5) == pytest.approx(0.5)
        assert schedule.value(20) == 0.0

    def test_constant_schedule(self):
        assert ConstantSchedule(0.3).value(100) == 0.3

    def test_exponential_schedule(self):
        schedule = ExponentialDecaySchedule(1.0, decay=0.5, interval=10, minimum=0.1)
        assert schedule.value(0) == 1.0
        assert schedule.value(10) == 0.5
        assert schedule.value(1000) == 0.1


class TestTrainer:
    def test_training_runs_and_records_history(self, small_table):
        env = ExplorationEnvironment(small_table, episode_length=3)
        from repro.explore import ActionSpace
        from repro.cdrl.spec_network import build_basic_policy

        policy = build_basic_policy(env.observation_size(), env.action_space, (16,), seed=0)
        trainer = PolicyGradientTrainer(
            [env], policy, TrainerConfig(episodes=10, batch_episodes=2, greedy_eval_every=5)
        )
        history = trainer.train()
        assert len(history.episode_returns) == 10
        assert history.total_steps() == 30
        assert len(history.greedy_returns) == 2

    def test_normalised_curve_in_unit_range(self, small_table):
        env = ExplorationEnvironment(small_table, episode_length=2)
        from repro.cdrl.spec_network import build_basic_policy

        policy = build_basic_policy(env.observation_size(), env.action_space, (8,), seed=0)
        trainer = PolicyGradientTrainer([env], policy, TrainerConfig(episodes=6, batch_episodes=3))
        history = trainer.train()
        curve = history.normalised_curve(window=3)
        assert all(0.0 <= value <= 1.0 for value in curve)

    def test_best_session_returns_session(self, small_table):
        env = ExplorationEnvironment(small_table, episode_length=2)
        from repro.cdrl.spec_network import build_basic_policy

        policy = build_basic_policy(env.observation_size(), env.action_space, (8,), seed=0)
        trainer = PolicyGradientTrainer([env], policy, TrainerConfig(episodes=4, batch_episodes=2))
        trainer.train()
        session, score = trainer.best_session(attempts=2)
        assert session.steps_taken == 2
        assert isinstance(score, float)
