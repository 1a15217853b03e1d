"""The LINX CDRL agent: specification-constrained session generation.

Given a dataset and LDX specifications, the agent trains a policy that
maximises the bi-objective reward (generic exploration reward + compliance
reward) and returns the best compliant exploration session found.  This is
Step 2 of the LINX workflow (Section 3).

The agent's content-keyed state — action space, generic-reward scorer, LDX
matcher, feature and decision memos — comes from one
:class:`~repro.cdrl.context.SharedExplorationContext`: the engine's, shared
by every request, or a private one when the agent is built on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro.dataframe.table import DataTable
from repro.explore.cache import ExecutionCache
from repro.explore.environment import ExplorationEnvironment
from repro.explore.session import ExplorationSession
from repro.ldx.ast import LdxQuery
from repro.ldx.parser import parse_ldx
from repro.ldx.verifier import verify
from repro.rl.trainer import PolicyGradientTrainer, TrainerConfig, TrainingHistory

from .compliance import ComplianceRewardConfig, ComplianceRewardStrategy
from .context import SharedExplorationContext
from .spec_network import SpecificationAwarePolicy, build_basic_policy


@dataclass(frozen=True)
class CdrlConfig:
    """Configuration of the LINX CDRL engine.

    The ablation flags mirror Table 4: ``graded_eos_reward`` switches between
    the naive binary end-of-session signal and the graded scheme;
    ``immediate_reward`` toggles the per-operation look-ahead penalty;
    ``specification_aware_network`` toggles the snippet-based network.
    """

    episode_length: int = 6
    episodes: int = 300
    hidden_sizes: tuple[int, ...] = (64, 64)
    seed: int = 0
    graded_eos_reward: bool = True
    immediate_reward: bool = True
    specification_aware_network: bool = True
    #: Mask statically-invalid actions at the policy level (schema-only
    #: validity masks from the environment; no queries are executed).
    mask_invalid_actions: bool = True
    #: Memoise query execution across episodes via a shared ExecutionCache.
    cache_execution: bool = True
    #: How training episodes are sampled.  At 1 (the served path) the
    #: episodes up to each gradient update play as one lock-step wave on the
    #: policy's own generator, with results equal to playing them one at a
    #: time.  Above 1, waves are ``num_envs`` episodes, each sampling from
    #: ``env_rng(seed, episode_index)``; that changes how sampling
    #: interleaves with gradient updates, so results depend on
    #: ``(seed, num_envs)``.
    num_envs: int = 1
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    compliance: ComplianceRewardConfig = field(default_factory=ComplianceRewardConfig)

    def validate(self) -> list:
        """Structured validation; returns ``FieldError`` entries (empty = valid).

        Nested trainer hyper-parameters are reported with a ``trainer.``
        prefix, so a bad batch size surfaces as ``trainer.batch_episodes``
        instead of a numpy shape error deep in the update step.
        """
        # Lazy import: repro.engine.__init__ transitively imports this module.
        from repro.engine.errors import FieldError

        errors: list[FieldError] = []
        if self.episode_length < 1:
            errors.append(
                FieldError(
                    field="episode_length",
                    message=f"must be >= 1, got {self.episode_length}",
                )
            )
        if self.episodes < 1:
            errors.append(
                FieldError(field="episodes", message=f"must be >= 1, got {self.episodes}")
            )
        if self.num_envs < 1:
            errors.append(
                FieldError(field="num_envs", message=f"must be >= 1, got {self.num_envs}")
            )
        if not self.hidden_sizes or any(size < 1 for size in self.hidden_sizes):
            errors.append(
                FieldError(
                    field="hidden_sizes",
                    message=f"must be a non-empty tuple of sizes >= 1, got {self.hidden_sizes}",
                )
            )
        errors.extend(self.trainer.validate(prefix="trainer."))
        return errors

    def check(self) -> None:
        """Raise ``RequestValidationError`` if any configuration field is invalid."""
        errors = self.validate()
        if errors:
            from repro.engine.errors import RequestValidationError

            raise RequestValidationError(errors)


@dataclass
class CdrlResult:
    """Outcome of a CDRL run."""

    session: ExplorationSession
    fully_compliant: bool
    structurally_compliant: bool
    utility_score: float
    history: TrainingHistory
    episodes_trained: int

    def summary(self) -> dict[str, object]:
        return {
            "fully_compliant": self.fully_compliant,
            "structurally_compliant": self.structurally_compliant,
            "utility_score": round(self.utility_score, 4),
            "episodes_trained": self.episodes_trained,
            "queries": self.session.num_queries(),
        }


class LinxCdrlAgent:
    """Generates a compliant, high-utility exploration session for (dataset, LDX)."""

    def __init__(
        self,
        dataset: DataTable,
        query: LdxQuery | str,
        config: CdrlConfig | None = None,
        cache: ExecutionCache | None = None,
        shared: SharedExplorationContext | None = None,
        batcher=None,
    ):
        self.dataset = dataset
        self.query = parse_ldx(query) if isinstance(query, str) else query
        self.config = config or CdrlConfig()
        self.config.check()
        # Content-keyed exploration state — the action space, the
        # generic-reward scorer, the LDX matcher, the view-feature memo and
        # the decision memo — comes from an exploration context: the
        # engine's, shared by every request, or a private one for an agent
        # built on its own.  Every pooled structure memoises a
        # pure function of its key, so results are bit-identical whichever
        # context supplies it.
        self.shared = shared if shared is not None else SharedExplorationContext()
        # Continuous cross-request batching (opt-in via the engine): with a
        # :class:`repro.engine.batcher.InferenceBatcher`, this agent's acting
        # forwards join the serving tier's shared waves.
        self.batcher = batcher
        # A compliant session needs every required operation plus the back
        # moves that navigate between branches; allow one extra step of slack.
        episode_length = max(
            self.config.episode_length, self.query.minimal_session_steps() + 1
        )
        self.episode_length = episode_length
        spec_aware = self.config.specification_aware_network
        # The snippet library of a specification-aware policy extends the
        # space with the specification's vocabulary, so such spaces are
        # pooled per (specification, dataset).
        self.action_space = self.shared.action_space(
            dataset, self.query if spec_aware else None
        )
        # One generic-reward scorer per dataset content: its memos are keyed
        # by view fingerprints, so every request on the dataset reuses its
        # interestingness/diversity work.  Sessions are scored with it too,
        # so a session score is memo lookups only.
        self._generic_reward = self.shared.scorer(dataset)
        # Verification, the compliance reward and the guidance share one
        # matcher: its structural answers are pure functions of
        # (specification, session-tree shape).
        self.matcher = self.shared.matcher(self.query)
        self._feature_memo = self.shared.view_feature_memo(dataset)
        self.reward_strategy = self._reward_strategy()
        # One execution cache is shared by training rollouts and evaluation,
        # so repeated pipelines across episodes reuse results.
        # An externally supplied cache (e.g. the engine-wide cache of
        # :class:`repro.engine.core.LinxEngine`) extends that sharing across
        # agents and requests.  ``config.cache_execution=False`` always wins,
        # so uncached ablation / baseline timings stay truly uncached even
        # when a shared cache is offered.
        if not self.config.cache_execution:
            self.cache: Optional[ExecutionCache] = None
        elif cache is not None:
            self.cache = cache
        else:
            self.cache = ExecutionCache()
        self.environment = self._environment(self.reward_strategy)
        # Training waves: the primary environment plus siblings sharing its
        # action space, execution cache and feature memo, one per episode of
        # the largest wave (a batch at num_envs = 1).  The compliance
        # strategy keeps a per-episode step counter, so each environment gets
        # its own instance over the shared memos.
        episode_streams = self.config.num_envs > 1
        wave = self.config.num_envs if episode_streams else self.config.trainer.batch_episodes
        environments = [self.environment] + [
            self._environment(self._reward_strategy()) for _ in range(wave - 1)
        ]
        observation_size = self.environment.observation_size()
        if spec_aware:
            self.policy = SpecificationAwarePolicy(
                observation_size=observation_size,
                action_space=self.action_space,
                query=self.query,
                hidden_sizes=self.config.hidden_sizes,
                seed=self.config.seed,
                decision_memo=self.shared.decision_memo(
                    self.query, dataset, self.config.mask_invalid_actions
                ),
                guidance_memo=self.shared.guidance_memo(self.query, dataset),
                matcher=self.matcher,
                mask_invalid_actions=self.config.mask_invalid_actions,
            )
            decision_to_choice = self.policy.indices_to_choice
        else:
            self.policy = build_basic_policy(
                observation_size=observation_size,
                action_space=self.action_space,
                hidden_sizes=self.config.hidden_sizes,
                seed=self.config.seed,
                mask_invalid_actions=self.config.mask_invalid_actions,
            )
            decision_to_choice = None
        trainer_config = replace(
            self.config.trainer, episodes=self.config.episodes, seed=self.config.seed
        )
        self.trainer = PolicyGradientTrainer(
            environments,
            policy=self.policy,
            config=trainer_config,
            decision_to_choice=decision_to_choice,
            episode_streams=episode_streams,
        )
        self._best_compliant: Optional[tuple[ExplorationSession, float]] = None

    def _reward_strategy(self) -> ComplianceRewardStrategy:
        """A compliance strategy over the pooled matcher and scorer."""
        strategy = ComplianceRewardStrategy(
            query=self.query,
            episode_length=self.episode_length,
            config=self.config.compliance,
            graded_eos=self.config.graded_eos_reward,
            use_immediate=self.config.immediate_reward,
            matcher=self.matcher,
        )
        strategy.generic.reward = self._generic_reward
        return strategy

    def _environment(self, reward_strategy: ComplianceRewardStrategy) -> ExplorationEnvironment:
        return ExplorationEnvironment(
            dataset=self.dataset,
            episode_length=self.episode_length,
            reward_strategy=reward_strategy,
            action_space=self.action_space,
            cache=self.cache,
            enable_cache=self.cache is not None,
            feature_memo=self._feature_memo,
        )

    # -- training --------------------------------------------------------------------------
    def _track_best(self, episode: int, episode_return: float, session: ExplorationSession) -> None:
        if not verify(session.root, self.query, matcher=self.matcher):
            return
        utility = self._generic_reward.session_score(session)
        if self._best_compliant is None or utility > self._best_compliant[1]:
            self._best_compliant = (session, utility)

    def run(
        self,
        episodes: Optional[int] = None,
        episode_callback: Optional[
            Callable[[int, float, ExplorationSession], None]
        ] = None,
    ) -> CdrlResult:
        """Train the agent and return the best session found (see :meth:`result`).

        ``episode_callback`` (episode index, episode return, session) is
        invoked after every training episode — the engine uses it to stream
        per-episode progress events to observers.
        """
        per_episode = self.episode_hook(episode_callback)
        if self.batcher is not None:
            return self._run_batched(episodes, per_episode)
        return self._run(episodes, per_episode)

    def episode_hook(
        self, episode_callback: Optional[Callable[[int, float, ExplorationSession], None]]
    ) -> Callable[[int, float, ExplorationSession], None]:
        """The per-episode trainer callback: best-compliant tracking, then
        *episode_callback*."""

        def per_episode(episode: int, episode_return: float, session: ExplorationSession) -> None:
            self._track_best(episode, episode_return, session)
            if episode_callback is not None:
                episode_callback(episode, episode_return, session)

        return per_episode

    def _run_batched(self, episodes, per_episode) -> CdrlResult:
        """Run with acting forwards routed through the shared wave thread.

        The agent joins the batcher for the duration of training (so waves
        know to wait for it), installs the policy's ``act_backend`` so every
        acting call — training rollouts, greedy evaluations, the post-hoc
        ``best_session`` probes — blocks on wave results.  Learning
        (gradient accumulation, optimizer steps) never routes through the
        backend: it re-runs forwards on this thread, keeping update order
        identical to the unbatched run.
        """
        assert self.batcher is not None
        member = self.batcher.attach()
        policy = self.policy
        batcher = self.batcher
        policy.act_backend = (
            lambda observations, biases_list, rngs, greedy: batcher.submit(
                member, policy, observations, biases_list, rngs, greedy
            )
        )
        try:
            return self._run(episodes, per_episode)
        finally:
            policy.act_backend = None
            batcher.detach(member)

    def _run(self, episodes, per_episode) -> CdrlResult:
        return self.result(self.trainer.train(episodes=episodes, callback=per_episode))

    def result(self, history: TrainingHistory) -> CdrlResult:
        """The run's outcome once training has finished with *history*.

        Preference order: the highest-utility fully compliant session seen
        during training; otherwise the best session produced after training.
        """
        if self._best_compliant is not None:
            session, utility = self._best_compliant
        else:
            session, _ = self.trainer.best_session(attempts=5)
            utility = self._generic_reward.session_score(session)
        tree = session.root
        return CdrlResult(
            session=session,
            fully_compliant=verify(tree, self.query, matcher=self.matcher),
            structurally_compliant=self.matcher.verify_structure(tree),
            utility_score=utility,
            history=history,
            episodes_trained=len(history.episode_returns),
        )

    # -- convenience -------------------------------------------------------------------------
    def generate(self, episodes: Optional[int] = None) -> ExplorationSession:
        """Train and return only the generated session."""
        return self.run(episodes=episodes).session


def generate_session(
    dataset: DataTable,
    ldx_text: str,
    episodes: int = 200,
    seed: int = 0,
    episode_length: int = 6,
) -> CdrlResult:
    """One-call helper: parse LDX, train a CDRL agent and return the result."""
    config = CdrlConfig(episodes=episodes, seed=seed, episode_length=episode_length)
    agent = LinxCdrlAgent(dataset, ldx_text, config=config)
    return agent.run()
