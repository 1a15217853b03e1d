"""On-policy policy-gradient trainer for the exploration agents.

Implements REINFORCE with a learned value baseline (a lightweight
actor-critic), entropy regularisation and reward normalisation.  This is the
training loop both the goal-agnostic ATENA baseline and the LINX CDRL agent
use; LINX differs only in its environment reward and its specification-aware
policy (snippet head + logit biasing).

The trainer holds a list of K environments, primary first.  Every episode
it plays — training episodes, greedy evaluations and ``best_session``
attempts — is played by :func:`repro.explore.rollouts.collect_rollouts`.
Training episodes are collected in lock-step *waves* of K by
:meth:`PolicyGradientTrainer.collect_waves`, the only wave loop, which both
:meth:`~PolicyGradientTrainer.train` and
:class:`repro.train.run.TrainingRun` call; evaluations are waves of one on
the primary environment.  At K = 1 episodes sample from the policy's own
generator (the served path); at K > 1 episode *i* samples from
``env_rng(seed, i)``.  Either way a run is reproducible for a given
``(seed, K)`` and can stop at any wave boundary and continue later to the
same weights (a checkpoint stores the policy's generator state).
Different K are *not* interchangeable: every episode of a wave is
collected with the wave's starting weights, so changing K changes how
sampling interleaves with gradient updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.explore.environment import ExplorationEnvironment
from repro.explore.session import ExplorationSession

if TYPE_CHECKING:  # imported lazily at runtime (rollouts itself builds on rl)
    from repro.explore.rollouts import DecisionToChoice, RolloutBatch

from .buffer import EpisodeBuffer
from .optimizer import Adam
from .policy import CategoricalPolicy, PolicyDecision


@dataclass(frozen=True)
class TrainerConfig:
    """Hyper-parameters for policy-gradient training."""

    episodes: int = 300
    discount: float = 0.97
    learning_rate: float = 0.002
    entropy_coefficient: float = 0.03
    value_coefficient: float = 0.5
    batch_episodes: int = 8
    reward_scale: float = 1.0
    greedy_eval_every: int = 25
    seed: int = 0
    # Self-imitation: the best episodes seen so far are replayed alongside each
    # batch, which keeps rare high-reward (e.g. fully compliant) behaviour from
    # being washed out by the on-policy gradient noise.
    elite_episodes: int = 2

    def validate(self, prefix: str = "") -> list:
        """Structured validation; returns ``FieldError`` entries (empty = valid).

        *prefix* lets composing configs (``CdrlConfig``) report nested fields
        as e.g. ``trainer.episodes``.
        """
        # Lazy import: repro.engine.__init__ transitively imports this module,
        # so a module-level import would create a cycle.
        from repro.engine.errors import FieldError

        errors: list[FieldError] = []

        def bad(field_name: str, message: str) -> None:
            errors.append(FieldError(field=f"{prefix}{field_name}", message=message))

        if self.episodes < 1:
            bad("episodes", f"must be >= 1, got {self.episodes}")
        if self.batch_episodes < 1:
            bad("batch_episodes", f"must be >= 1, got {self.batch_episodes}")
        if not self.learning_rate > 0:
            bad("learning_rate", f"must be > 0, got {self.learning_rate}")
        if not 0 < self.discount <= 1:
            bad("discount", f"must be in (0, 1], got {self.discount}")
        if self.entropy_coefficient < 0:
            bad(
                "entropy_coefficient",
                f"must be >= 0, got {self.entropy_coefficient}",
            )
        if self.value_coefficient < 0:
            bad("value_coefficient", f"must be >= 0, got {self.value_coefficient}")
        if not self.reward_scale > 0:
            bad("reward_scale", f"must be > 0, got {self.reward_scale}")
        if self.greedy_eval_every < 0:
            bad("greedy_eval_every", f"must be >= 0, got {self.greedy_eval_every}")
        if self.elite_episodes < 0:
            bad("elite_episodes", f"must be >= 0, got {self.elite_episodes}")
        return errors

    def check(self) -> None:
        """Raise ``RequestValidationError`` if any hyper-parameter is invalid."""
        errors = self.validate()
        if errors:
            from repro.engine.errors import RequestValidationError

            raise RequestValidationError(errors)


@dataclass
class TrainingHistory:
    """Per-episode statistics collected during training (used by Figure 8)."""

    episode_returns: list[float] = field(default_factory=list)
    episode_steps: list[int] = field(default_factory=list)
    greedy_returns: list[tuple[int, float]] = field(default_factory=list)
    #: Execution-cache hit/miss counters snapshotted at the end of training
    #: (``None`` when the environment runs without a cache).
    cache_stats: Optional[dict] = None

    def total_steps(self) -> int:
        return int(sum(self.episode_steps))

    def moving_average(self, window: int = 20) -> list[float]:
        values = self.episode_returns
        if not values:
            return []
        averaged: list[float] = []
        for index in range(len(values)):
            start = max(0, index - window + 1)
            chunk = values[start : index + 1]
            averaged.append(sum(chunk) / len(chunk))
        return averaged

    def normalised_curve(self, window: int = 20) -> list[float]:
        """Returns normalised to [roughly] 0..1 by the best smoothed value (Figure 8)."""
        smoothed = self.moving_average(window)
        if not smoothed:
            return []
        top = max(smoothed)
        bottom = min(smoothed)
        if top == bottom:
            return [1.0 for _ in smoothed]
        return [(value - bottom) / (top - bottom) for value in smoothed]

    # -- JSON round-trip ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-serialisable snapshot; :meth:`from_dict` inverts it losslessly."""
        return {
            "episode_returns": [float(value) for value in self.episode_returns],
            "episode_steps": [int(value) for value in self.episode_steps],
            "greedy_returns": [
                [int(episode), float(value)] for episode, value in self.greedy_returns
            ],
            "cache_stats": dict(self.cache_stats) if self.cache_stats is not None else None,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TrainingHistory":
        """Rebuild a history from :meth:`to_dict` output (e.g. after JSON transport)."""
        return cls(
            episode_returns=[float(value) for value in payload.get("episode_returns", [])],
            episode_steps=[int(value) for value in payload.get("episode_steps", [])],
            greedy_returns=[
                (int(episode), float(value))
                for episode, value in payload.get("greedy_returns", [])
            ],
            cache_stats=(
                dict(payload["cache_stats"])
                if payload.get("cache_stats") is not None
                else None
            ),
        )


class PolicyGradientTrainer:
    """Trains a :class:`CategoricalPolicy` over a list of exploration environments.

    ``environments`` are played in lock-step waves of ``len(environments)``
    (K) and should share one action space, execution cache and view-feature
    memo.  The first is the primary one: evaluations run on it and it
    reports the cache statistics.
    """

    def __init__(
        self,
        environments: Sequence[ExplorationEnvironment],
        policy: CategoricalPolicy,
        config: TrainerConfig | None = None,
        decision_to_choice: "DecisionToChoice | None" = None,
    ):
        self.environments = list(environments)
        self.policy = policy
        self.config = config or TrainerConfig()
        self.decision_to_choice = decision_to_choice
        self.config.check()
        self.optimizer = Adam(learning_rate=self.config.learning_rate)
        self.history = TrainingHistory()
        self._elite: list[EpisodeBuffer] = []
        #: Episodes collected since the last gradient update.  Held on the
        #: trainer (not local to :meth:`train`) so a run can stop between
        #: :meth:`collect_waves` calls and checkpoints can persist a
        #: mid-batch position exactly.
        self._batch: list[EpisodeBuffer] = []

    # -- rollout -------------------------------------------------------------------------
    def _rollout(
        self,
        environments: Sequence[ExplorationEnvironment],
        *,
        greedy: bool = False,
        seed: Optional[int] = None,
        episode_base: int = 0,
    ) -> "RolloutBatch":
        """One lock-step episode per environment with the current policy."""
        from repro.explore.rollouts import collect_rollouts

        return collect_rollouts(
            environments,
            self.policy,
            seed=seed,
            episode_base=episode_base,
            greedy=greedy,
            decision_to_choice=self.decision_to_choice,
            reward_scale=self.config.reward_scale,
        )

    # -- training ------------------------------------------------------------------------
    def train(
        self,
        episodes: Optional[int] = None,
        callback: Optional[Callable[[int, float, ExplorationSession], None]] = None,
    ) -> TrainingHistory:
        """Train for *episodes* (default from the config) and return the history."""
        total_episodes = episodes if episodes is not None else self.config.episodes
        self.collect_waves(0, total_episodes, total_episodes, callback=callback)
        return self.finish_training()

    def collect_waves(
        self,
        start: int,
        stop: int,
        total: int,
        callback: Optional[Callable[[int, float, ExplorationSession], None]] = None,
    ) -> int:
        """Collect and record waves from episode *start* to the first wave
        boundary at or past *stop*; returns the episode reached.

        Wave sizes follow the schedule of an uninterrupted *total*-episode
        run (``min(K, total - episode)``), so stopping at a wave boundary
        and continuing later collects exactly the same waves.  At K = 1
        episodes sample from the policy's own generator; at K > 1 episode
        *i* samples from ``env_rng(config.seed, i)``.
        """
        num_envs = len(self.environments)
        seed = self.config.seed if num_envs > 1 else None
        episode = start
        while episode < min(stop, total):
            rollout = self._rollout(
                self.environments[: min(num_envs, total - episode)],
                seed=seed,
                episode_base=episode,
            )
            for buffer, session in zip(rollout.buffers, rollout.sessions):
                self.record_episode(episode, buffer, session, callback=callback)
                episode += 1
        return episode

    def record_episode(
        self,
        episode: int,
        buffer: EpisodeBuffer,
        session: ExplorationSession,
        callback: Optional[Callable[[int, float, ExplorationSession], None]] = None,
    ) -> None:
        """Account one collected episode: history, batching, elites, greedy evals.

        Gradient updates fire whenever the pending batch reaches
        ``config.batch_episodes``; greedy evaluations are episodes on the
        primary environment.
        """
        self.history.episode_returns.append(buffer.total_reward())
        self.history.episode_steps.append(len(buffer))
        self._batch.append(buffer)
        self._maybe_keep_elite(buffer)
        if callback is not None:
            callback(episode, buffer.total_reward(), session)
        if len(self._batch) >= self.config.batch_episodes:
            self._update(self._batch)
            self._batch.clear()
        if (
            self.config.greedy_eval_every
            and (episode + 1) % self.config.greedy_eval_every == 0
        ):
            greedy = self._rollout(self.environments[:1], greedy=True)
            self.history.greedy_returns.append(
                (episode + 1, greedy.buffers[0].total_reward())
            )

    def finish_training(self) -> TrainingHistory:
        """Flush any partial batch, snapshot cache stats, and return the history."""
        if self._batch:
            self._update(self._batch)
            self._batch.clear()
        self.history.cache_stats = self.environments[0].cache_stats()
        return self.history

    def _maybe_keep_elite(self, buffer: EpisodeBuffer) -> None:
        """Track the best-returning episodes for self-imitation replay."""
        if self.config.elite_episodes <= 0:
            return
        self._elite.append(buffer)
        self._elite.sort(key=lambda b: b.total_reward(), reverse=True)
        del self._elite[self.config.elite_episodes :]

    def _update(self, batch: list[EpisodeBuffer]) -> None:
        """One policy-gradient update over a batch of episodes (plus elite replay)."""
        decisions: list[PolicyDecision] = []
        advantages: list[float] = []
        targets: list[float] = []
        replay = [b for b in self._elite if not any(b is member for member in batch)]
        for buffer in list(batch) + replay:
            returns = buffer.returns(self.config.discount)
            for transition, ret in zip(buffer.transitions, returns):
                decisions.append(transition.decision)
                advantages.append(ret - transition.decision.value)
                targets.append(ret)
        if not decisions:
            return
        advantage_array = np.asarray(advantages)
        std = float(advantage_array.std())
        if std > 1e-8:
            advantage_array = (advantage_array - advantage_array.mean()) / std
        self.policy.zero_grad()
        # One batched pass over the whole update (bit-identical to the
        # per-decision loop it replaced; see accumulate_gradient_batch).
        self.policy.accumulate_gradient_batch(
            decisions,
            advantage_array,
            np.asarray(targets, dtype=np.float64),
            entropy_coefficient=self.config.entropy_coefficient,
            value_coefficient=self.config.value_coefficient,
        )
        self.optimizer.step(self.policy.parameters())

    # -- evaluation ----------------------------------------------------------------------
    def best_session(self, attempts: int = 5) -> tuple[ExplorationSession, float]:
        """Return the best greedy/sampled session after training.

        Attempt 0 is greedy; the rest sample from the policy's generator.
        All run on the primary environment.
        """
        best: tuple[ExplorationSession, float] | None = None
        for attempt in range(max(1, attempts)):
            rollout = self._rollout(self.environments[:1], greedy=(attempt == 0))
            score = rollout.buffers[0].total_reward()
            if best is None or score > best[1]:
                best = (rollout.sessions[0], score)
        assert best is not None
        return best
