"""Batched parallel rollouts: K environments stepped in lock-step.

The exploration trainers historically rolled episodes out one environment at
a time: one policy forward, one mask fold and one RNG draw per environment
per step, and — when environments were created independently — one *cold*
execution cache each.  :class:`VectorEnvironment` removes both costs.  It
owns K :class:`~repro.explore.environment.ExplorationEnvironment` instances
that

* share one :class:`~repro.explore.cache.ExecutionCache` (so any
  environment's executed pipeline result is a cache hit for all the
  others),
* share one view-feature memo (content-addressed observation features cross
  environment boundaries), and
* advance in lock-step, stacking the per-environment observation vectors
  into a single ``(K, F)`` float64 matrix so
  :meth:`~repro.rl.policy.CategoricalPolicy.act_batch` runs **one** batched
  network forward and decision kernel per step instead of K.

Determinism is a hard requirement, not an aspiration: episode *i* samples
from its own RNG stream derived from ``(seed, i)`` (:func:`env_rng`), and
the policy's batched kernels are row-bit-identical to the single-observation
ones, so :func:`collect_rollouts` over K environments reproduces K
one-at-a-time episodes bit for bit at equal seeds (the sequential oracle
lives in ``tests/rollout_oracle.py``).  Sharing caches never changes results
(only how often queries re-execute), so the equivalence holds with any
cache layering, including the disk tier of :mod:`repro.explore.diskcache`.

:func:`collect_rollouts` is the one collector in the library: the trainer's
wave loop (:meth:`repro.rl.trainer.PolicyGradientTrainer.collect_waves`)
and the policy registry's evaluation sweep (waves of one) both call it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.dataframe.table import DataTable
from repro.rl.buffer import EpisodeBuffer
from repro.rl.policy import BiasRow, CategoricalPolicy

from .action_space import ActionChoice, ActionSpace, choice_from_index_map
from .cache import ExecutionCache
from .environment import (
    ExplorationEnvironment,
    GenericRewardStrategy,
    RewardStrategy,
)

#: Builds one reward strategy per environment (stateful strategies cannot be
#: shared across interleaved episodes).
RewardStrategyFactory = Callable[[], RewardStrategy]

DecisionToChoice = Callable[[dict[str, int]], ActionChoice]


def env_rng(seed: int, env_index: int) -> np.random.Generator:
    """The canonical RNG stream of episode *env_index* under *seed*.

    Streams are derived from the ``(seed, env_index)`` pair via
    :class:`numpy.random.SeedSequence`, so

    * different episodes of one batch never share a stream (no draw-order
      coupling between environments — the concurrency bug this replaces),
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
class VectorStepResult:
    """The stacked outcome of stepping every environment once."""

    #: ``(K, F)`` float64 matrix of next observations.
    observations: np.ndarray
    #: ``(K,)`` float64 vector of step rewards.
    rewards: np.ndarray
    #: ``(K,)`` boolean vector; lock-step environments finish together.
    dones: np.ndarray
    #: Per-environment step info dictionaries.
    infos: list[dict[str, Any]]


class VectorEnvironment:
    """K exploration environments advancing in lock-step over one shared cache.

    All environments must agree on the dataset schema (same observation
    size) and on ``episode_length`` (lock-step batching needs episodes that
    finish together).  On construction every environment adopts the first
    one's view-feature memo, so observation featurisation — which is keyed
    by content fingerprints — is shared exactly like query results are.

    Use :meth:`create` to build the environments with shared plumbing (one
    action space, one execution cache) in one call.
    """

    def __init__(self, environments: Sequence[ExplorationEnvironment]):
        envs = list(environments)
        if not envs:
            raise ValueError("VectorEnvironment needs at least one environment")
        lengths = {env.episode_length for env in envs}
        if len(lengths) > 1:
            raise ValueError(
                f"lock-step environments need equal episode lengths, got {sorted(lengths)}"
            )
        sizes = {env.observation_size() for env in envs}
        if len(sizes) > 1:
            raise ValueError(
                f"environments have differing observation sizes: {sorted(sizes)}"
            )
        self.environments = envs
        # Content-addressed features transfer across environments; pool them.
        shared_memo = envs[0]._view_feature_memo
        for env in envs[1:]:
            env._view_feature_memo = shared_memo

    @classmethod
    def create(
        cls,
        dataset: DataTable,
        num_envs: int,
        *,
        episode_length: int = 6,
        reward_strategy_factory: RewardStrategyFactory | None = None,
        action_space: ActionSpace | None = None,
        cache: ExecutionCache | None = None,
        enable_cache: bool = True,
    ) -> "VectorEnvironment":
        """Build *num_envs* environments over one action space and one cache.

        ``reward_strategy_factory`` is called once per environment; pass it
        whenever the strategy keeps per-episode state (e.g. the CDRL
        compliance strategy's step counter).  ``None`` shares one default
        generic strategy across all environments — it is stateless apart
        from content-keyed memos, so sibling environments reuse each
        other's interestingness and diversity scores just like they reuse
        query results.  With ``enable_cache`` one :class:`ExecutionCache`
        (given or fresh) is shared by all environments — the whole point of
        batching — and its canonical-plan keys make sibling rollouts share
        entries for equivalent pipelines, not just syntactic ones.
        """
        if num_envs < 1:
            raise ValueError("num_envs must be positive")
        space = action_space or ActionSpace(dataset)
        if enable_cache and cache is None:
            cache = ExecutionCache()
        if reward_strategy_factory is None:
            shared_strategy = GenericRewardStrategy()
            reward_strategy_factory = lambda: shared_strategy  # noqa: E731
        environments = [
            ExplorationEnvironment(
                dataset=dataset,
                episode_length=episode_length,
                reward_strategy=reward_strategy_factory(),
                action_space=space,
                cache=cache,
                enable_cache=enable_cache,
            )
            for _ in range(num_envs)
        ]
        return cls(environments)

    # -- aggregate views ------------------------------------------------------------------
    @property
    def num_envs(self) -> int:
        return len(self.environments)

    def cache_stats(self) -> Optional[dict[str, Any]]:
        return self.environments[0].cache_stats()

    def observation_size(self) -> int:
        return self.environments[0].observation_size()

    # -- lock-step episode control --------------------------------------------------------
    def reset(self, count: int | None = None) -> np.ndarray:
        """Start a new episode in the first *count* (default: all) environments.

        Returns the ``(count, F)`` matrix of initial observations.
        """
        active = self.environments[: count if count is not None else self.num_envs]
        return np.stack([env.reset() for env in active])

    def head_masks(self, count: int | None = None) -> dict[str, np.ndarray]:
        """Per-head validity masks stacked across environments: ``(K, size)``.

        Each environment's masks are memoised per session node, so this is a
        gather, not K recomputations.
        """
        active = self.environments[: count if count is not None else self.num_envs]
        per_env = [env.action_masks() for env in active]
        return {
            name: np.stack([masks[name] for masks in per_env])
            for name in per_env[0]
        }

    def step(self, choices: Sequence[ActionChoice]) -> VectorStepResult:
        """Step the first ``len(choices)`` environments once, in order."""
        if len(choices) > self.num_envs:
            raise ValueError(
                f"got {len(choices)} choices for {self.num_envs} environments"
            )
        observations = np.empty(
            (len(choices), self.observation_size()), dtype=np.float64
        )
        rewards = np.empty(len(choices), dtype=np.float64)
        dones = np.empty(len(choices), dtype=bool)
        infos: list[dict[str, Any]] = []
        for index, choice in enumerate(choices):
            result = self.environments[index].step(choice)
            observations[index] = result.observation
            rewards[index] = result.reward
            dones[index] = result.done
            infos.append(result.info)
        return VectorStepResult(observations, rewards, dones, infos)

    def sessions(self, count: int | None = None) -> list:
        active = self.environments[: count if count is not None else self.num_envs]
        return [env.session for env in active]


@dataclass
class RolloutBatch:
    """The outcome of collecting one episode per (active) environment."""

    buffers: list[EpisodeBuffer] = field(default_factory=list)
    sessions: list = field(default_factory=list)

    def total_steps(self) -> int:
        return sum(len(buffer) for buffer in self.buffers)


_SENTINEL = object()


def _is_env_mask_provider(provider) -> bool:
    """True when *provider* is some environment's bound ``head_mask`` method."""
    return getattr(provider, "__func__", None) is ExplorationEnvironment.head_mask


@contextmanager
def _policy_bound_to(policy: CategoricalPolicy, environment: ExplorationEnvironment):
    """Temporarily point the policy's per-environment hooks at *environment*.

    A policy configured for single-environment use holds environment-bound
    hooks: ``mask_provider`` (usually ``environment.head_mask``) and — for
    the specification-aware policy — an ``environment`` attribute its
    guidance reads the ongoing session from.  Batched collection swaps both
    to the environment being decided for, and restores them afterwards, so
    the per-row computation matches what a dedicated sequential policy would
    have done.  Only hooks that are recognisably environment-bound are
    swapped: an unset hook stays unset, and a *custom* mask provider (not
    some environment's ``head_mask``) keeps applying exactly as it would in
    single-environment acting.
    """
    saved_mask = policy.mask_provider
    saved_env = getattr(policy, "environment", _SENTINEL)
    if _is_env_mask_provider(saved_mask):
        policy.mask_provider = environment.head_mask
    if saved_env is not _SENTINEL and saved_env is not None:
        policy.environment = environment
    try:
        yield
    finally:
        policy.mask_provider = saved_mask
        if saved_env is not _SENTINEL and saved_env is not None:
            policy.environment = saved_env


def _collect_biases(
    policy: CategoricalPolicy, environments: Sequence[ExplorationEnvironment]
) -> list[BiasRow]:
    """Per-environment decision bias rows for one lock-step decision."""
    biases: list[BiasRow] = []
    for environment in environments:
        with _policy_bound_to(policy, environment):
            biases.append(policy.decision_biases())
    return biases


def collect_rollouts(
    vector_env: VectorEnvironment,
    policy: CategoricalPolicy,
    *,
    seed: int = 0,
    episode_base: int = 0,
    num_episodes: int | None = None,
    greedy: bool = False,
    decision_to_choice: DecisionToChoice | None = None,
    reward_scale: float = 1.0,
) -> RolloutBatch:
    """Collect one episode per active environment, batched in lock-step.

    Episode ``episode_base + k`` (environment *k*) samples from
    :func:`env_rng(seed, episode_base + k) <env_rng>`; every step runs one
    batched policy forward over the stacked ``(K, F)`` observations.  The
    result is bit-identical to running the same episodes one at a time
    with the same streams.

    ``num_episodes`` (≤ ``vector_env.num_envs``) restricts collection to the
    first *n* environments — the trainer uses it for a final partial wave.
    """
    count = vector_env.num_envs if num_episodes is None else num_episodes
    if not 1 <= count <= vector_env.num_envs:
        raise ValueError(
            f"num_episodes must be in 1..{vector_env.num_envs}, got {num_episodes}"
        )
    environments = vector_env.environments[:count]
    to_choice = decision_to_choice or choice_from_index_map
    rngs = [env_rng(seed, episode_base + k) for k in range(count)]
    observations = vector_env.reset(count)
    buffers = [EpisodeBuffer() for _ in range(count)]
    done = False
    while not done:
        biases = _collect_biases(policy, environments)
        decisions = policy.act_batch(observations, biases, rngs, greedy=greedy)
        choices = [to_choice(decision.indices) for decision in decisions]
        outcome = vector_env.step(choices)
        for k, decision in enumerate(decisions):
            buffers[k].add(
                decision, float(outcome.rewards[k]) * reward_scale, bool(outcome.dones[k])
            )
        observations = outcome.observations
        done = bool(outcome.dones.all())
    return RolloutBatch(buffers=buffers, sessions=vector_env.sessions(count))
