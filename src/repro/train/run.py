"""A checkpointed, resumable, publishable CDRL training run.

:class:`TrainingRun` drives the agent a :class:`~repro.train.checkpoint.TrainSpec`
builds through the trainer's own wave loop
(:meth:`~repro.rl.trainer.PolicyGradientTrainer.collect_waves`), in waves of
``spec.config.num_envs``, and checkpoints at wave boundaries.  Wave
episodes use the wave-start weights and the checkpoint stores the policy's
generator state, so resuming from any wave boundary reproduces the
uninterrupted run weight for weight.  The wave loop, best-compliant
tracking and the result are the agent's own, so at every ``num_envs`` a
run equals ``spec.build_agent().run()``.
"""

from __future__ import annotations

import os
from typing import Callable, Optional

from repro.cdrl.agent import CdrlResult
from repro.explore.operations import operation_from_signature
from repro.explore.session import session_from_operations

from .checkpoint import TrainingCheckpoint, TrainSpec, capture, restore_into

EpisodeCallback = Callable[[int, float, object], None]


class TrainingRun:
    """Trains a CDRL policy, checkpointing to *checkpoint_path* (if given)
    every *checkpoint_every* waves; :meth:`from_checkpoint` resumes exactly."""

    def __init__(
        self,
        spec: TrainSpec,
        *,
        checkpoint_path: str | os.PathLike | None = None,
        checkpoint_every: int = 1,
    ):
        if checkpoint_every < 1:
            raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        self.spec = spec
        self.agent = spec.build_agent()
        self.trainer = self.agent.trainer
        self.total_episodes = spec.config.episodes
        self.episodes_completed = 0
        self.checkpoint_path = os.fspath(checkpoint_path) if checkpoint_path else None
        self.checkpoint_every = checkpoint_every

    @classmethod
    def from_checkpoint(
        cls,
        path: str | os.PathLike,
        *,
        checkpoint_path: str | os.PathLike | None = None,
        checkpoint_every: int = 1,
    ) -> "TrainingRun":
        """Rebuild a run from a checkpoint, positioned to continue exactly.

        The wave size comes from the stored spec, and later checkpoints go
        to *path* unless *checkpoint_path* says otherwise.
        """
        checkpoint = TrainingCheckpoint.load(path)
        run = cls(
            TrainSpec.from_payload(checkpoint.spec),
            checkpoint_path=checkpoint_path if checkpoint_path is not None else path,
            checkpoint_every=checkpoint_every,
        )
        restore_into(checkpoint, run.trainer)
        run.episodes_completed = checkpoint.episodes_completed
        run.total_episodes = checkpoint.total_episodes
        if checkpoint.best_compliant is not None:
            signatures, utility = checkpoint.best_compliant
            session = session_from_operations(
                run.agent.dataset,
                [operation_from_signature(signature) for signature in signatures],
                cache=run.agent.cache,
            )
            run.agent._best_compliant = (session, float(utility))
        return run

    # -- checkpointing ---------------------------------------------------------------
    def checkpoint(self) -> TrainingCheckpoint:
        """Snapshot the current training position (call at wave boundaries)."""
        best = self.agent._best_compliant
        if best is not None:
            best = ([list(op.signature()) for op in best[0].operations], float(best[1]))
        return capture(
            self.spec.to_payload(),
            self.trainer,
            episodes_completed=self.episodes_completed,
            total_episodes=self.total_episodes,
            best_compliant=best,
        )

    def save_checkpoint(self) -> None:
        if self.checkpoint_path:
            self.checkpoint().save(self.checkpoint_path)

    # -- training --------------------------------------------------------------------
    def collect_until(
        self, episode_target: int, callback: Optional[EpisodeCallback] = None
    ) -> int:
        """Train up to the first wave boundary at or past *episode_target*.

        Returns the episodes completed so far and saves a checkpoint there
        — the "kill" half of kill-and-resume.
        """
        per_episode = self.agent.episode_hook(callback)
        stop = min(episode_target, self.total_episodes)
        # Each trainer call ends at a checkpoint: every checkpoint_every
        # waves, or once at the end when there is no checkpoint file.
        stride = (
            self.checkpoint_every * len(self.trainer.environments)
            if self.checkpoint_path
            else stop
        )
        while self.episodes_completed < stop:
            self.episodes_completed = self.trainer.collect_waves(
                self.episodes_completed,
                min(stop, self.episodes_completed + stride),
                self.total_episodes,
                callback=per_episode,
            )
            self.save_checkpoint()
        return self.episodes_completed

    def train(self, callback: Optional[EpisodeCallback] = None) -> CdrlResult:
        """Run (or continue) training to completion and return the result."""
        self.collect_until(self.total_episodes, callback)
        history = self.trainer.finish_training()
        # The completion checkpoint: its pending batch is empty (just
        # flushed), so resuming from it and calling train() again applies
        # nothing twice.
        self.save_checkpoint()
        return self.agent.result(history)

    # -- publishing ------------------------------------------------------------------
    def publish(self, registry, name: str, *, metrics: dict | None = None) -> int:
        """Publish the current weights to *registry* as a new version of *name*.

        Call after :meth:`train`: the checkpoint captured here includes the
        final partial-batch update that ``finish_training`` applies.
        """
        return registry.publish(name, self.checkpoint(), metrics=metrics or {})
