"""Episode rollouts: the one loop that plays episodes.

:func:`collect_rollouts` plays one episode in each environment of a list,
advancing them in lock-step.  Every step computes one decision bias row per
environment (:meth:`~repro.rl.policy.CategoricalPolicy.decision_biases`,
given the environment it decides for), stacks the observations into one
``(K, F)`` float64 matrix so
:meth:`~repro.rl.policy.CategoricalPolicy.act_batch` runs **one** batched
network forward and decision kernel, and steps each environment once.  It
is the only code in the library that plays an episode: training waves,
greedy evaluations and ``best_session`` attempts
(:class:`~repro.rl.trainer.PolicyGradientTrainer`) and the policy
registry's evaluation sweep all call it, with K = 1 as the common case.

Callers build the list with shared plumbing, as the agents do: one action
space, one :class:`~repro.explore.cache.ExecutionCache` (any environment's
executed pipeline is a cache hit for all the others) and one view-feature
memo.  Sharing never changes results, only how often work re-runs.

Sampling has two sources.  With ``seed=None`` every row draws from the
policy's own generator, in row order.  With an integer seed, episode *i*
draws from its own stream :func:`env_rng(seed, i) <env_rng>`, and the
policy's batched kernels are row-bit-identical to the single-observation
ones, so K lock-step episodes reproduce K one-at-a-time episodes bit for
bit (the sequential oracle lives in ``tests/rollout_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.rl.buffer import EpisodeBuffer
from repro.rl.policy import CategoricalPolicy

from .action_space import ActionChoice, choice_from_index_map
from .environment import ExplorationEnvironment

DecisionToChoice = Callable[[dict[str, int]], ActionChoice]


def env_rng(seed: int, env_index: int) -> np.random.Generator:
    """The canonical RNG stream of episode *env_index* under *seed*.

    Streams are derived from the ``(seed, env_index)`` pair via
    :class:`numpy.random.SeedSequence`, so

    * different episodes of one batch never share a stream (no draw-order
      coupling between environments),
    * the stream depends only on the pair, not on how many environments run
      alongside: a K-env batched rollout and K one-at-a-time rollouts
      consume identical randomness.

    Negative seeds are mapped into the unsigned 64-bit range (SeedSequence
    rejects negative entropy).
    """
    return np.random.default_rng(
        np.random.SeedSequence((seed & 0xFFFFFFFFFFFFFFFF, env_index))
    )


@dataclass
class RolloutBatch:
    """The outcome of collecting one episode per environment."""

    buffers: list[EpisodeBuffer] = field(default_factory=list)
    sessions: list = field(default_factory=list)

    def total_steps(self) -> int:
        return sum(len(buffer) for buffer in self.buffers)


def _check_lock_step(environments: Sequence[ExplorationEnvironment]) -> None:
    """Lock-step play needs a non-empty list of environments that finish
    together and share one observation size."""
    if not environments:
        raise ValueError("collect_rollouts needs at least one environment")
    lengths = {environment.episode_length for environment in environments}
    if len(lengths) > 1:
        raise ValueError(
            f"lock-step environments need equal episode lengths, got {sorted(lengths)}"
        )
    sizes = {environment.observation_size() for environment in environments}
    if len(sizes) > 1:
        raise ValueError(
            f"environments have differing observation sizes: {sorted(sizes)}"
        )


def collect_rollouts(
    environments: Sequence[ExplorationEnvironment],
    policy: CategoricalPolicy,
    *,
    seed: int | None = None,
    episode_base: int = 0,
    greedy: bool = False,
    decision_to_choice: DecisionToChoice | None = None,
    reward_scale: float = 1.0,
) -> RolloutBatch:
    """Play one episode in each of *environments*, in lock-step.

    With ``seed=None`` rows sample from the policy's own generator;
    otherwise episode ``episode_base + k`` (environment *k*) samples from
    :func:`env_rng(seed, episode_base + k) <env_rng>`.  Greedy episodes
    draw nothing.  ``decision_to_choice`` decodes per-head indices
    (default :func:`~repro.explore.action_space.choice_from_index_map`).
    """
    _check_lock_step(environments)
    to_choice = decision_to_choice or choice_from_index_map
    rngs = (
        None
        if seed is None
        else [env_rng(seed, episode_base + k) for k in range(len(environments))]
    )
    buffers = [EpisodeBuffer() for _ in environments]
    observations = np.array([environment.reset() for environment in environments])
    while True:
        biases = [policy.decision_biases(environment) for environment in environments]
        decisions = policy.act_batch(observations, biases, rngs, greedy=greedy)
        results = [
            environment.step(to_choice(decision.indices))
            for environment, decision in zip(environments, decisions)
        ]
        for buffer, decision, result in zip(buffers, decisions, results):
            buffer.add(decision, result.reward * reward_scale, result.done)
        if results[0].done:  # equal episode lengths: all finish together
            break
        observations = np.array([result.observation for result in results])
    return RolloutBatch(
        buffers=buffers, sessions=[environment.session for environment in environments]
    )
