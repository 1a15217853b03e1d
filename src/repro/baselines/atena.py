"""ATENA baseline: goal-agnostic automated data exploration [6].

ATENA optimises only the generic exploration reward and therefore produces
the same session for a dataset regardless of the analytical goal.  It reuses
the exploration environment and the policy-gradient trainer with the plain
(non specification-aware) network.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro.cdrl.spec_network import build_basic_policy
from repro.dataframe.table import DataTable
from repro.explore.action_space import ActionSpace
from repro.explore.cache import ExecutionCache
from repro.explore.environment import ExplorationEnvironment, GenericRewardStrategy
from repro.explore.reward import GenericExplorationReward
from repro.explore.session import ExplorationSession
from repro.rl.trainer import PolicyGradientTrainer, TrainerConfig, TrainingHistory


@dataclass(frozen=True)
class AtenaConfig:
    """ATENA training configuration."""

    episode_length: int = 6
    episodes: int = 300
    hidden_sizes: tuple[int, ...] = (64, 64)
    seed: int = 0
    #: Environments rolled out in lock-step per training wave (> 1 batches
    #: the policy forward over one shared execution cache and view-feature
    #: memo, each episode sampling from ``env_rng(seed, episode_index)``).
    num_envs: int = 1
    trainer: TrainerConfig = field(default_factory=TrainerConfig)


@dataclass
class AtenaResult:
    """ATENA's output: the best goal-agnostic session and its training history."""

    session: ExplorationSession
    utility_score: float
    history: TrainingHistory


class AtenaAgent:
    """The goal-agnostic DRL exploration agent of [6]."""

    def __init__(
        self,
        dataset: DataTable,
        config: AtenaConfig | None = None,
        cache: ExecutionCache | None = None,
    ):
        self.dataset = dataset
        self.config = config or AtenaConfig()
        self.action_space = ActionSpace(dataset)
        # The generic reward strategy is stateless (its interestingness memo
        # is content-keyed), so one instance serves every environment of a
        # training wave, as do one execution cache and one feature memo.
        reward_strategy = GenericRewardStrategy()
        cache = cache if cache is not None else ExecutionCache()
        feature_memo: dict = {}
        environments = [
            ExplorationEnvironment(
                dataset=dataset,
                episode_length=self.config.episode_length,
                reward_strategy=reward_strategy,
                action_space=self.action_space,
                cache=cache,
                feature_memo=feature_memo,
            )
            for _ in range(max(1, self.config.num_envs))
        ]
        self.environment = environments[0]
        self.policy = build_basic_policy(
            observation_size=self.environment.observation_size(),
            action_space=self.action_space,
            hidden_sizes=self.config.hidden_sizes,
            seed=self.config.seed,
        )
        trainer_config = replace(
            self.config.trainer, episodes=self.config.episodes, seed=self.config.seed
        )
        self.trainer = PolicyGradientTrainer(
            environments, policy=self.policy, config=trainer_config
        )
        self._scorer = GenericExplorationReward()

    def run(
        self,
        episodes: int | None = None,
        episode_callback: Optional[
            Callable[[int, float, ExplorationSession], None]
        ] = None,
    ) -> AtenaResult:
        """Train and return the best goal-agnostic session found."""
        history = self.trainer.train(episodes=episodes, callback=episode_callback)
        session, _ = self.trainer.best_session(attempts=5)
        return AtenaResult(
            session=session,
            utility_score=self._scorer.session_score(session),
            history=history,
        )

    def generate(self, episodes: int | None = None) -> ExplorationSession:
        """Train and return only the generated session."""
        return self.run(episodes=episodes).session
