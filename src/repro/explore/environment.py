"""Episodic MDP environment for automated data exploration.

Implements the MDP of Section 5.1: states are the current view of the
ongoing exploration session, actions are parametric query operations (or
back), the transition function executes the operation, and the reward is
supplied by a pluggable reward strategy (the generic ATENA reward for the
goal-agnostic baseline; the bi-objective CDRL reward for LINX).

Two hot-path services ride along with the MDP itself: query execution is
memoised through an :class:`~repro.explore.cache.ExecutionCache` (enabled by
default, shareable across environments), and action validity is decided
statically — :meth:`QueryExecutor.can_execute` before executing, and
:meth:`action_masks` / :meth:`head_mask` for policies that mask invalid
actions at the distribution level.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Optional, Protocol

import numpy as np

from repro.dataframe.table import DataTable

from .action_space import ActionChoice, ActionSpace
from .cache import ExecutionCache
from .executor import ExecutionError, QueryExecutor
from .operations import BackOperation, Operation
from .reward import GenericExplorationReward, GenericRewardConfig
from .session import ExplorationSession, SessionNode


class RewardStrategy(Protocol):
    """Pluggable per-step / end-of-episode reward computation."""

    def on_step(
        self,
        session: ExplorationSession,
        node: Optional[SessionNode],
        operation: Operation,
        valid: bool,
    ) -> float:
        """Reward granted immediately after the agent's step."""

    def on_episode_end(self, session: ExplorationSession) -> float:
        """Extra reward distributed at the end of the episode (may be 0)."""


class GenericRewardStrategy:
    """The goal-agnostic ATENA reward: generic exploration reward only."""

    def __init__(self, config: GenericRewardConfig | None = None):
        self.reward = GenericExplorationReward(config)

    def on_step(
        self,
        session: ExplorationSession,
        node: Optional[SessionNode],
        operation: Operation,
        valid: bool,
    ) -> float:
        if not valid:
            return self.reward.config.invalid_action_penalty
        if node is None:
            return self.reward.config.back_action_reward
        return self.reward.step_reward(session, node)

    def on_episode_end(self, session: ExplorationSession) -> float:
        return 0.0


@dataclass
class StepResult:
    """The observable outcome of one environment step."""

    observation: np.ndarray
    reward: float
    done: bool
    info: dict[str, Any] = field(default_factory=dict)


class ExplorationEnvironment:
    """Episodic environment in which an agent builds an exploration session.

    Parameters
    ----------
    dataset:
        The dataset ``D`` to explore.
    episode_length:
        Number of agent steps per episode (``N`` in the paper; sessions in
        the reference implementation are ~6-8 operations).
    reward_strategy:
        Computes step and end-of-episode rewards.  Defaults to the generic
        ATENA reward.
    cache:
        An :class:`ExecutionCache` shared with other consumers (e.g. the
        CDRL agent).  When ``None`` and *enable_cache* is true (the
        default), the environment creates a private cache so repeated
        pipelines across episodes reuse their results.
    enable_cache:
        Set to ``False`` to execute every operation from scratch (used by
        benchmarks to measure the uncached baseline).

    Query operations execute through the planner path
    (:meth:`ExplorationSession.apply` → :meth:`QueryExecutor.execute_step`):
    each node carries the canonical logical plan of its view and results
    are cached under ``(base, canonical plan)`` keys, so semantically
    equivalent pipelines — commuted filters, repeated predicates, undone
    steps — share one cache entry across episodes and environments.
    """

    def __init__(
        self,
        dataset: DataTable,
        episode_length: int = 6,
        reward_strategy: RewardStrategy | None = None,
        action_space: ActionSpace | None = None,
        cache: ExecutionCache | None = None,
        enable_cache: bool = True,
    ):
        if episode_length < 1:
            raise ValueError("episode_length must be positive")
        self.dataset = dataset
        self.episode_length = episode_length
        self.action_space = action_space or ActionSpace(dataset)
        self.reward_strategy: RewardStrategy = reward_strategy or GenericRewardStrategy()
        if not enable_cache:
            cache = None
        elif cache is None:
            cache = ExecutionCache()
        self.executor = QueryExecutor(cache=cache)
        self.session: ExplorationSession = ExplorationSession(dataset)
        self._step_count = 0
        self._mask_node: Optional[SessionNode] = None
        self._masks: Optional[dict[str, np.ndarray]] = None
        # View-dependent observation features, memoised by view fingerprint.
        # Views are content-addressed (and shared via the execution cache), so
        # the per-column scan runs once per distinct view across all episodes.
        self._view_feature_memo: "OrderedDict[tuple, np.ndarray]" = OrderedDict()

    # -- observation ---------------------------------------------------------------------
    def observation_size(self) -> int:
        """Length of the observation vector (fixed for a given dataset)."""
        return 4 + 3 * len(self.dataset.columns)

    #: Bound on the per-environment view-feature memo (distinct views seen).
    VIEW_FEATURE_MEMO_MAX = 4096

    def _view_features(self, view: DataTable) -> np.ndarray:
        """The view-dependent part of the observation, memoised by fingerprint.

        Returns ``[size_feature, width_feature, *per_column_triples]`` as a
        read-only float64 array built straight from the view's column
        buffers (the per-column stats are numpy reductions memoised on the
        immutable columns); the progress features (depth, step counter) are
        spliced in by :meth:`observe` since they change every step.
        """
        key = view.fingerprint()
        memo = self._view_feature_memo
        cached = memo.get(key)
        if cached is not None:
            memo.move_to_end(key)
            return cached
        total_rows = max(1, len(self.dataset))
        dataset_columns = self.dataset.columns
        features = np.zeros(2 + 3 * len(dataset_columns), dtype=np.float64)
        features[0] = math.log1p(len(view)) / math.log1p(total_rows)
        features[1] = len(view.columns) / max(1, len(dataset_columns))
        rows = max(1, len(view))
        for slot, column in enumerate(dataset_columns):
            if column in view:
                col = view.column(column)
                base = 2 + 3 * slot
                features[base] = 1.0
                features[base + 1] = col.nunique() / rows
                features[base + 2] = col.null_count() / rows
        features.flags.writeable = False
        memo[key] = features
        while len(memo) > self.VIEW_FEATURE_MEMO_MAX:
            memo.popitem(last=False)
        return features

    def observe(self) -> np.ndarray:
        """Featurise the current state ``S_i`` (the current view and progress)."""
        view_features = self._view_features(self.session.current.view)
        features = np.empty(2 + len(view_features), dtype=np.float64)
        features[0:2] = view_features[0:2]
        features[2] = self.session.current.depth() / max(1, self.episode_length)
        features[3] = self._step_count / self.episode_length
        features[4:] = view_features[2:]
        return features

    # -- action validity -----------------------------------------------------------------
    @property
    def cache(self) -> Optional[ExecutionCache]:
        """The executor's execution cache (``None`` when caching is disabled)."""
        return self.executor.cache

    def cache_stats(self) -> Optional[dict[str, Any]]:
        """Hit/miss statistics of the execution cache, if one is attached."""
        cache = self.executor.cache
        return cache.stats.as_dict() if cache is not None else None

    def action_masks(self) -> dict[str, np.ndarray]:
        """Per-head validity masks for the current view (memoised per node).

        Delegates to :meth:`ActionSpace.valid_mask`; the result is cached
        until the session cursor moves, so policies may query it once per
        head per step at no cost.
        """
        node = self.session.current
        if self._mask_node is not node or self._masks is None:
            self._masks = self.action_space.valid_mask(node.view)
            self._mask_node = node
        return self._masks

    def head_mask(self, head: str) -> Optional[np.ndarray]:
        """Validity mask for one softmax head (policy ``mask_provider`` hook)."""
        return self.action_masks().get(head)

    # -- episode control -----------------------------------------------------------------
    def reset(self) -> np.ndarray:
        """Start a new episode and return the initial observation."""
        self.session = ExplorationSession(self.dataset)
        self._step_count = 0
        self._mask_node = None
        self._masks = None
        return self.observe()

    @property
    def steps_remaining(self) -> int:
        return self.episode_length - self._step_count

    def step(self, choice: ActionChoice) -> StepResult:
        """Execute the agent's factored action choice and return the outcome."""
        if self._step_count >= self.episode_length:
            raise RuntimeError("episode already finished; call reset()")
        operation = self.action_space.decode(choice)
        self._step_count += 1
        node: Optional[SessionNode] = None
        valid = True
        if isinstance(operation, BackOperation):
            self.session.go_back(operation.steps)
        elif not self.executor.can_execute(self.session.current.view, operation):
            # Cheap static check: no query runs for invalid actions.
            valid = False
            self.session.note_invalid_step()
        else:
            try:
                node = self.session.apply(operation, self.executor)
            except ExecutionError:
                valid = False
                self.session.note_invalid_step()
        reward = self.reward_strategy.on_step(self.session, node, operation, valid)
        done = self._step_count >= self.episode_length
        info: dict[str, Any] = {"operation": operation, "valid": valid}
        if done:
            terminal_bonus = self.reward_strategy.on_episode_end(self.session)
            reward += terminal_bonus
            info["terminal_bonus"] = terminal_bonus
            info["session"] = self.session
        return StepResult(self.observe(), reward, done, info)

    # -- convenience ----------------------------------------------------------------------
    def rollout(self, choices: list[ActionChoice]) -> tuple[ExplorationSession, float]:
        """Run a full episode from a list of pre-computed choices; returns (session, return)."""
        self.reset()
        total = 0.0
        for choice in choices[: self.episode_length]:
            result = self.step(choice)
            total += result.reward
            if result.done:
                break
        return self.session, total
