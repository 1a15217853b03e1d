"""Training waves at ``num_envs = 1`` against the one-at-a-time loop.

At ``num_envs = 1`` the trainer plays the episodes up to each gradient
update as one lock-step wave: every episode of the wave acts under the same
weights, and the wave draws all its uniforms from the policy's generator in
one block, episode *k* reading its own slice.  The property: a run collected
in such waves equals the plain K = 1 loop — each episode played on its own
with ``tests/rollout_oracle.py`` and recorded (updates, elites, greedy
evaluations) before the next one starts — bit for bit: every decision,
reward, weight, the policy's generator state and the agent's result.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generator import generate_benchmark
from repro.cdrl import CdrlConfig, LinxCdrlAgent
from repro.datasets import load_dataset
from repro.engine import TICKET_DONE, ExploreRequest, LinxEngine, RequestScheduler
from repro.rl.trainer import TrainerConfig
from harness import assert_same_training, comparable, first_difference
from rollout_oracle import collect_sequential_rollouts

LDX = "ROOT CHILDREN <A1,A2>\nA1 LIKE [F,.*]\nA2 LIKE [G,.*]"


@pytest.fixture(scope="module")
def flights():
    return load_dataset("flights", num_rows=120)


def _agent(table, *, episodes, batch_episodes, greedy_eval_every, masking, spec_aware, seed):
    config = CdrlConfig(
        episodes=episodes,
        episode_length=4,
        seed=seed,
        mask_invalid_actions=masking,
        specification_aware_network=spec_aware,
        trainer=TrainerConfig(
            batch_episodes=batch_episodes, greedy_eval_every=greedy_eval_every
        ),
    )
    return LinxCdrlAgent(table, LDX, config=config)


def _run_in_waves(agent, stride=None) -> tuple:
    """``agent.run()`` as served, with every recorded episode's buffer.

    With a *stride* the episodes are collected as a checkpointed
    :class:`~repro.train.run.TrainingRun` collects them, stopping every
    *stride* episodes, so waves also start part-way into a batch.
    """
    trainer = agent.trainer
    buffers = []
    record = trainer.record_episode

    def recording(episode, buffer, session, callback=None):
        buffers.append(buffer)
        record(episode, buffer, session, callback=callback)

    trainer.record_episode = recording
    if stride is None:
        return agent.run(), buffers
    hook, total, episode = agent.episode_hook(None), trainer.config.episodes, 0
    while episode < total:
        episode = trainer.collect_waves(episode, episode + stride, total, callback=hook)
    return agent.result(trainer.finish_training()), buffers


def _run_one_at_a_time(agent) -> tuple:
    """The K = 1 reference: every episode — training, greedy evaluation and
    ``best_session`` attempt — is the oracle's single-observation loop on the
    primary environment, and each training episode is recorded before the
    next one is played."""
    trainer = agent.trainer

    def rollout(environments, *, greedy=False, seed=None, episode_base=0):
        return collect_sequential_rollouts(
            environments[:1],
            trainer.policy,
            seed=seed,
            episode_base=episode_base,
            greedy=greedy,
            decision_to_choice=trainer.decision_to_choice,
            reward_scale=trainer.config.reward_scale,
        )

    trainer._rollout = rollout
    hook = agent.episode_hook(None)
    buffers = []
    for episode in range(trainer.config.episodes):
        played = rollout(trainer.environments)
        buffers.append(played.buffers[0])
        trainer.record_episode(episode, played.buffers[0], played.sessions[0], callback=hook)
    return agent.result(trainer.finish_training()), buffers


def _assert_same_decisions(expected_buffers, actual_buffers) -> None:
    assert len(actual_buffers) == len(expected_buffers)
    for episode, (expected, actual) in enumerate(zip(expected_buffers, actual_buffers)):
        assert len(actual) == len(expected), f"episode {episode}: lengths differ"
        for step, (e, a) in enumerate(zip(expected.transitions, actual.transitions)):
            where = f"episode {episode} step {step}"
            assert a.decision.indices == e.decision.indices, where
            assert a.decision.log_prob == e.decision.log_prob, where
            assert a.decision.value == e.decision.value, where
            assert a.decision.entropy == e.decision.entropy, where
            assert a.decision.observation.tobytes() == e.decision.observation.tobytes(), where
            assert a.decision.biases.row.tobytes() == e.decision.biases.row.tobytes(), where
            assert a.decision.biases.folded.tobytes() == e.decision.biases.folded.tobytes(), where
            assert (a.reward, a.done) == (e.reward, e.done), where


def _outcome(result) -> tuple:
    history = result.history
    return (
        [operation.signature() for operation in result.session.operations],
        result.fully_compliant,
        result.structurally_compliant,
        result.utility_score,
        result.episodes_trained,
        history.episode_returns,
        history.episode_steps,
        history.greedy_returns,
    )


def _assert_waves_equal_one_at_a_time(table, stride=None, **settings) -> None:
    reference_agent, wave_agent = _agent(table, **settings), _agent(table, **settings)
    expected, expected_buffers = _run_one_at_a_time(reference_agent)
    actual, actual_buffers = _run_in_waves(wave_agent, stride)
    _assert_same_decisions(expected_buffers, actual_buffers)
    assert_same_training(reference_agent.trainer, wave_agent.trainer, "waves")
    reference, waved = reference_agent.policy, wave_agent.policy
    assert waved.network.buffer.tobytes() == reference.network.buffer.tobytes()
    assert waved.rng.bit_generator.state == reference.rng.bit_generator.state
    assert _outcome(actual) == _outcome(expected)


_GRID = list(
    itertools.product(
        (True, False),  # specification-aware policy
        (True, False),  # masking
        (1, 3, 8),  # batch_episodes
        (1, 7, 20),  # episodes
    )
)


class TestWavesEqualOneAtATime:
    @pytest.mark.parametrize(
        "spec_aware,masking,batch_episodes,episodes",
        _GRID,
        ids=[
            f"{'spec' if spec else 'basic'}-{'mask' if mask else 'nomask'}-b{batch}-e{episodes}"
            for spec, mask, batch, episodes in _GRID
        ],
    )
    def test_grid(self, flights, spec_aware, masking, batch_episodes, episodes):
        """Every batch size, run length and policy, with masking on and off;
        greedy evaluations alternate between off and every 5 episodes, and
        collection runs uninterrupted or stops every 2 or 5 episodes."""
        case = _GRID.index((spec_aware, masking, batch_episodes, episodes))
        _assert_waves_equal_one_at_a_time(
            flights,
            stride=(None, 2, 5)[case % 3],
            episodes=episodes,
            batch_episodes=batch_episodes,
            greedy_eval_every=(0, 5)[case % 2],
            masking=masking,
            spec_aware=spec_aware,
            seed=case,
        )

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        episodes=st.integers(min_value=1, max_value=20),
        batch_episodes=st.sampled_from([1, 3, 8]),
        greedy_eval_every=st.sampled_from([0, 5]),
        masking=st.booleans(),
        spec_aware=st.booleans(),
        stride=st.sampled_from([None, 1, 2, 5]),
    )
    def test_property(
        self, flights, seed, episodes, batch_episodes, greedy_eval_every, masking, spec_aware,
        stride,
    ):
        _assert_waves_equal_one_at_a_time(
            flights,
            stride=stride,
            episodes=episodes,
            batch_episodes=batch_episodes,
            greedy_eval_every=greedy_eval_every,
            masking=masking,
            spec_aware=spec_aware,
            seed=seed,
        )

    def test_a_batch_plays_as_one_wave(self, flights):
        """The served path's point: one ``act_batch`` call per step of a
        wave, not per episode, and every row of a wave's first step is the
        root state, forwarded and folded once."""
        agent = _agent(
            flights, episodes=20, batch_episodes=8, greedy_eval_every=0,
            masking=True, spec_aware=True, seed=0,
        )
        policy = agent.policy
        calls, forwarded, folded = [], [], []
        act_batch, forward_batch = policy.act_batch, policy.network.forward_batch
        distributions = policy.decision_distributions

        def counting_distributions(probabilities, values, biases_list):
            folded.append(len(biases_list))
            return distributions(probabilities, values, biases_list)

        def counting_act(observations, *args, **kwargs):
            calls.append(len(observations))
            return act_batch(observations, *args, **kwargs)

        def counting_forward(observations):
            forwarded.append(len(observations))
            return forward_batch(observations)

        policy.act_batch = counting_act
        policy.network.forward_batch = counting_forward
        policy.decision_distributions = counting_distributions
        agent.trainer.train()
        length = agent.episode_length
        # Waves of 8, 8 and 4 episodes.
        assert calls == [8] * length + [8] * length + [4] * length
        assert forwarded[0] == folded[0] == 1


class TestBatchedScheduler:
    def test_all_strata_equal_explore(self):
        """A 2-worker thread scheduler with the inference batcher serves every
        (dataset, meta-goal) stratum of the corpus at two seeds, two episodes
        each, with each payload equal to a plain engine's ``explore``."""
        first: dict = {}
        for instance in generate_benchmark().instances:
            first.setdefault((instance.dataset, instance.meta_goal_id), instance)
        strata = [first[key] for key in sorted(first)]
        assert len(strata) == 24
        requests = [
            ExploreRequest(
                goal=instance.goal,
                dataset=instance.dataset,
                num_rows=120,
                episodes=2,
                seed=seed,
                request_id=f"stratum-{index}-{seed}",
            )
            for seed in (1, 2)
            for index, instance in enumerate(strata)
        ]
        config = CdrlConfig(episodes=2)
        plain = LinxEngine(cdrl_config=config)
        try:
            expected = [plain.explore(request) for request in requests]
        finally:
            plain.close()
        engine = LinxEngine(cdrl_config=config, inference_batching=True)
        try:
            with RequestScheduler(engine, max_workers=2) as scheduler:
                tickets = [scheduler.submit(request) for request in requests]
                for ticket in tickets:
                    state = scheduler.wait(ticket.ticket_id, timeout=300)["state"]
                    assert state == TICKET_DONE, f"{ticket.ticket_id}: {state}"
                payloads = [scheduler.result_payload(ticket.ticket_id) for ticket in tickets]
        finally:
            engine.close()
        for request, alone, payload in zip(requests, expected, payloads):
            differs = first_difference(comparable(alone.to_dict()), comparable(payload))
            assert differs is None, f"{request.request_id}: payload differs at {differs}"
