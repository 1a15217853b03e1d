"""The LINX CDRL agent: specification-constrained session generation.

Given a dataset and LDX specifications, the agent trains a policy that
maximises the bi-objective reward (generic exploration reward + compliance
reward) and returns the best compliant exploration session found.  This is
Step 2 of the LINX workflow (Section 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.dataframe.table import DataTable
from repro.explore.action_space import ActionSpace
from repro.explore.cache import ExecutionCache
from repro.explore.environment import ExplorationEnvironment
from repro.explore.rollouts import VectorEnvironment
from repro.explore.session import ExplorationSession
from repro.ldx.ast import LdxQuery
from repro.ldx.parser import parse_ldx
from repro.ldx.verifier import verify, verify_structure
from repro.rl.trainer import PolicyGradientTrainer, TrainerConfig, TrainingHistory

from .compliance import ComplianceRewardConfig, ComplianceRewardStrategy
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
    #: Environments rolled out in lock-step per training wave.  Values > 1
    #: batch the policy forward and share one execution cache across the
    #: wave, with per-episode RNG streams derived from
    #: ``(seed, episode_index)``.  Training is deterministic for a given
    #: ``(seed, num_envs)`` pair, but changing ``num_envs`` changes how
    #: sampling interleaves with gradient updates, so results differ from
    #: the single-environment run (which samples from the policy's own
    #: stream, as before this knob existed).
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


def _resolve_num_envs(agent_level: int, trainer_level: int) -> int:
    """Reconcile the agent-level and nested trainer-level ``num_envs`` knobs.

    Setting either works; setting both to different batched values is
    rejected rather than silently preferring one.
    """
    if agent_level > 1 and trainer_level > 1 and agent_level != trainer_level:
        raise ValueError(
            f"conflicting num_envs settings: config.num_envs={agent_level} vs "
            f"config.trainer.num_envs={trainer_level}; set just one"
        )
    return max(agent_level, trainer_level)


class LinxCdrlAgent:
    """Generates a compliant, high-utility exploration session for (dataset, LDX)."""

    def __init__(
        self,
        dataset: DataTable,
        query: LdxQuery | str,
        config: CdrlConfig | None = None,
        cache: ExecutionCache | None = None,
        batcher=None,
    ):
        self.dataset = dataset
        self.query = parse_ldx(query) if isinstance(query, str) else query
        self.config = config or CdrlConfig()
        self.config.check()
        # Continuous cross-request batching (opt-in via the engine): when a
        # :class:`repro.engine.batcher.InferenceBatcher` is supplied, this
        # agent's acting forwards join the serving tier's shared waves and
        # its content-keyed exploration state (action space, generic-reward
        # memos, compliance look-ahead cache, view-feature memo) comes from
        # the batcher's :class:`SharedExplorationContext` pools.  Every
        # shared structure memoises pure content-addressed functions, so
        # results stay bit-identical to an unbatched run at equal seeds.
        self.batcher = batcher
        shared = batcher.shared if batcher is not None else None
        # A compliant session needs every required operation plus the back
        # moves that navigate between branches; allow one extra step of slack.
        episode_length = max(
            self.config.episode_length, self.query.minimal_session_steps() + 1
        )
        self.episode_length = episode_length

        if shared is not None and isinstance(query, str):
            # Pooled per (specification, dataset): the snippet library below
            # extends the space with the specification's vocabulary.
            self.action_space = shared.action_space(dataset, query)
        else:
            self.action_space = ActionSpace(dataset)
        self.reward_strategy = ComplianceRewardStrategy(
            query=self.query,
            episode_length=episode_length,
            config=self.config.compliance,
            graded_eos=self.config.graded_eos_reward,
            use_immediate=self.config.immediate_reward,
        )
        if shared is not None:
            # Feasibility look-ahead is a pure function of (specification,
            # session-tree shape, remaining steps, completion budget); the
            # textual LDX form keys the pool, so sharing only applies when
            # the specification arrived as text (the serving path always
            # does).
            if isinstance(query, str):
                self.reward_strategy._lookahead_cache = shared.lookahead_cache(
                    query, self.config.compliance.immediate_max_completions
                )
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
        self.environment = ExplorationEnvironment(
            dataset=dataset,
            episode_length=episode_length,
            reward_strategy=self.reward_strategy,
            action_space=self.action_space,
            cache=self.cache,
            enable_cache=self.cache is not None,
        )
        # Batched rollouts: siblings of the primary environment sharing its
        # action space, execution cache and (via VectorEnvironment) feature
        # memo.  The compliance strategy keeps a per-episode step counter,
        # so each environment gets its own instance; the pure look-ahead
        # feasibility memo is shared across them.
        self.vector_environment: Optional[VectorEnvironment] = None
        self.num_envs = _resolve_num_envs(
            self.config.num_envs, self.config.trainer.num_envs
        )
        if self.num_envs > 1:
            siblings = [self.environment]
            for _ in range(self.num_envs - 1):
                strategy = ComplianceRewardStrategy(
                    query=self.query,
                    episode_length=episode_length,
                    config=self.config.compliance,
                    graded_eos=self.config.graded_eos_reward,
                    use_immediate=self.config.immediate_reward,
                )
                strategy._lookahead_cache = self.reward_strategy._lookahead_cache
                siblings.append(
                    ExplorationEnvironment(
                        dataset=dataset,
                        episode_length=episode_length,
                        reward_strategy=strategy,
                        action_space=self.action_space,
                        cache=self.cache,
                        enable_cache=self.cache is not None,
                    )
                )
            self.vector_environment = VectorEnvironment(siblings)
        observation_size = self.environment.observation_size()
        if self.config.specification_aware_network:
            self.policy = SpecificationAwarePolicy(
                observation_size=observation_size,
                action_space=self.action_space,
                query=self.query,
                hidden_sizes=self.config.hidden_sizes,
                seed=self.config.seed,
            )
            # Give the specification-aware policy access to the ongoing session
            # so its structure guide can shift action probabilities per state.
            self.policy.environment = self.environment
            decision_to_choice = self.policy.indices_to_choice
        else:
            self.policy = build_basic_policy(
                observation_size=observation_size,
                action_space=self.action_space,
                hidden_sizes=self.config.hidden_sizes,
                seed=self.config.seed,
            )
            decision_to_choice = None
        if self.config.mask_invalid_actions:
            # Schema-only validity masks: invalid parameter choices get zero
            # probability without ever executing a query.
            self.policy.mask_provider = self.environment.head_mask
        trainer_config = TrainerConfig(
            episodes=self.config.episodes,
            seed=self.config.seed,
            learning_rate=self.config.trainer.learning_rate,
            entropy_coefficient=self.config.trainer.entropy_coefficient,
            batch_episodes=self.config.trainer.batch_episodes,
            discount=self.config.trainer.discount,
            greedy_eval_every=self.config.trainer.greedy_eval_every,
            num_envs=self.num_envs,
        )
        self.trainer = PolicyGradientTrainer(
            environment=self.environment,
            policy=self.policy,
            config=trainer_config,
            decision_to_choice=decision_to_choice,
            vector_environment=self.vector_environment,
        )
        if shared is not None:
            # Specification guidance (and its folded validity masks) is a
            # pure function of (dataset, query, session structure); pool the
            # memos so concurrent requests on the same pair share them.  As
            # with the look-ahead cache, the textual LDX form keys the pool.
            if isinstance(query, str) and isinstance(
                self.policy, SpecificationAwarePolicy
            ):
                self.policy.adopt_shared_guidance(
                    shared.guidance_state(
                        query, dataset, self.config.mask_invalid_actions
                    )
                )
            # One generic-reward scorer per dataset content: its memos are
            # keyed by view fingerprints, so concurrent requests on the same
            # dataset reuse each other's interestingness/diversity work.
            scorer = shared.scorer(dataset)
            self._generic_reward = scorer
            self.reward_strategy.generic.reward = scorer
            if self.vector_environment is not None:
                for sibling in self.vector_environment.environments[1:]:
                    sibling.reward_strategy.generic.reward = scorer
        else:
            # Score sessions with the step reward's scorer: its interestingness
            # and view-distance memos already hold every view the episodes
            # produced, so a session score is memo lookups only.
            self._generic_reward = self.reward_strategy.generic.reward
        self._best_compliant: Optional[tuple[ExplorationSession, float]] = None

    # -- training --------------------------------------------------------------------------
    def _track_best(self, episode: int, episode_return: float, session: ExplorationSession) -> None:
        tree = session.to_tree()
        if not verify(tree, self.query):
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
        """Train the agent and return the best session found.

        Preference order: the highest-utility fully compliant session seen
        during training; otherwise the best session produced after training.
        ``episode_callback`` (episode index, episode return, session) is
        invoked after every training episode — the engine uses it to stream
        per-episode progress events to observers.
        """

        def per_episode(episode: int, episode_return: float, session: ExplorationSession) -> None:
            self._track_best(episode, episode_return, session)
            if episode_callback is not None:
                episode_callback(episode, episode_return, session)

        if self.batcher is not None:
            return self._run_batched(episodes, per_episode)
        return self._run(episodes, per_episode)

    def _run_batched(self, episodes, per_episode) -> CdrlResult:
        """Run with acting forwards routed through the shared wave thread.

        The agent joins the batcher for the duration of training (so waves
        know to wait for it), installs the policy's ``act_backend`` so every
        acting call — training rollouts, greedy evaluations, the post-hoc
        ``best_session`` probes — blocks on wave results, and pools its
        environment's view-feature memo with same-shaped peers.  Learning
        (gradient accumulation, optimizer steps) never routes through the
        backend: it re-runs forwards on this thread, keeping update order
        identical to the unbatched run.
        """
        assert self.batcher is not None
        member = self.batcher.attach()
        pool = self.batcher.shared.environment_pool(self.dataset)
        pooled = False
        try:
            pool.attach(self.environment)
            pooled = True
        except ValueError:
            # Same dataset but a different episode length or observation
            # shape than the pool's members: keep a private feature memo.
            pooled = False
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
            if pooled:
                try:
                    pool.detach(self.environment)
                except ValueError:  # pragma: no cover - pool was cleared
                    pass
            batcher.detach(member)

    def _run(self, episodes, per_episode) -> CdrlResult:
        history = self.trainer.train(episodes=episodes, callback=per_episode)
        if self._best_compliant is not None:
            session, utility = self._best_compliant
        else:
            session, _ = self.trainer.best_session(attempts=5)
            utility = self._generic_reward.session_score(session)
        tree = session.to_tree()
        return CdrlResult(
            session=session,
            fully_compliant=verify(tree, self.query),
            structurally_compliant=verify_structure(tree, self.query),
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
