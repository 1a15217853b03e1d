"""The one-environment-at-a-time rollout reference.

Production code plays every episode with
:func:`repro.explore.rollouts.collect_rollouts`: lock-step waves with one
batched policy forward per step.  This module runs the same episodes the
naive way — environment *k* plays a full episode through
single-observation :meth:`~repro.rl.policy.CategoricalPolicy.act` before
environment *k+1* starts — so tests can check the batched collector bit
for bit.  With an integer seed environment *k* samples from
``env_rng(seed, episode_base + k)``; with ``seed=None`` every decision
samples from the policy's own generator (``act(..., rng=None)``).
"""

from __future__ import annotations

from typing import Sequence

from repro.explore.action_space import choice_from_index_map
from repro.explore.environment import ExplorationEnvironment
from repro.explore.rollouts import DecisionToChoice, RolloutBatch, env_rng
from repro.rl.buffer import EpisodeBuffer
from repro.rl.policy import CategoricalPolicy


def collect_sequential_rollouts(
    environments: Sequence[ExplorationEnvironment],
    policy: CategoricalPolicy,
    *,
    seed: int | None = None,
    episode_base: int = 0,
    greedy: bool = False,
    decision_to_choice: DecisionToChoice | None = None,
    reward_scale: float = 1.0,
) -> RolloutBatch:
    """One-environment-at-a-time rollouts under the batched seeding scheme.

    With equal seeds :func:`~repro.explore.rollouts.collect_rollouts`
    reproduces these buffers bit for bit.
    """
    to_choice = decision_to_choice or choice_from_index_map
    buffers: list[EpisodeBuffer] = []
    sessions = []
    for k, environment in enumerate(environments):
        rng = None if seed is None else env_rng(seed, episode_base + k)
        buffer = EpisodeBuffer()
        observation = environment.reset()
        done = False
        while not done:
            decision = policy.act(observation, environment, greedy=greedy, rng=rng)
            result = environment.step(to_choice(decision.indices))
            buffer.add(decision, result.reward * reward_scale, result.done)
            observation = result.observation
            done = result.done
        buffers.append(buffer)
        sessions.append(environment.session)
    return RolloutBatch(buffers=buffers, sessions=sessions)
