"""Pluggable pipeline stages of the LINX engine.

The engine's request pipeline is four stages — specification derivation,
constrained session generation, notebook rendering and insight extraction —
each behind a small :class:`~typing.Protocol`.  The defaults reproduce the
paper's system (chained NL→PyLDX→LDX prompting and the CDRL agent), and
alternates plug in without touching the engine:

* :class:`AtenaSessionGenerator` swaps in the goal-agnostic ATENA baseline
  (``repro.baselines.atena``) as the generation stage, and
* ablation configurations (:func:`repro.cdrl.ablation.variant_config`) slot
  straight into :class:`CdrlSessionGenerator` via its ``config`` argument.

Stage implementations are stateless per request (safe to share across the
engine's worker threads); anything request-scoped arrives as arguments.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

from repro.baselines.atena import AtenaAgent, AtenaConfig
from repro.bench.generator import BenchmarkInstance
from repro.cdrl.agent import CdrlConfig, LinxCdrlAgent
from repro.cdrl.context import SharedExplorationContext
from repro.dataframe.table import DataTable
from repro.explore.cache import ExecutionCache
from repro.explore.reward import GenericExplorationReward
from repro.explore.session import ExplorationSession
from repro.ldx.parser import try_parse_ldx
from repro.ldx.verifier import verify, verify_structure
from repro.llm.interface import LLMClient
from repro.nl2ldx.fewshot import SCENARIOS, FewShotBank
from repro.nl2ldx.pipeline import ChainedPipeline
from repro.notebook.insights import Insight, extract_insights
from repro.notebook.render import Notebook, render_notebook

from .registry import (
    KIND_INSIGHT_EXTRACTOR,
    KIND_NOTEBOOK_RENDERER,
    KIND_SESSION_GENERATOR,
    KIND_SPEC_DERIVER,
    StageContext,
    register_stage_factory,
)

#: Episode-tick callback: (episode index, episode return, session so far).
#: Raising from the callback aborts generation and propagates out of the
#: stage — the engine's cooperative cancellation checkpoints rely on this.
EpisodeCallback = Callable[[int, float, ExplorationSession], None]


def _seeded(config, seed: int | None):
    """The generator config with *seed* applied (``None`` keeps the config's)."""
    return config if seed is None else dataclasses.replace(config, seed=seed)


# -- stage data ----------------------------------------------------------------------
@dataclass
class SpecDerivation:
    """Output of the specification-derivation stage."""

    ldx_text: str
    intermediate_pyldx: str = ""


@dataclass
class SessionOutcome:
    """Output of the session-generation stage."""

    session: ExplorationSession
    fully_compliant: bool = False
    structurally_compliant: bool = False
    utility_score: float = 0.0
    episodes_trained: int = 0


# -- stage protocols -----------------------------------------------------------------
@runtime_checkable
class SpecDeriver(Protocol):
    """Derives LDX specification text from an analytical goal (LINX step 1)."""

    name: str

    def derive(self, dataset_name: str, goal: str) -> SpecDerivation: ...


@runtime_checkable
class SessionGenerator(Protocol):
    """Generates an exploration session for (dataset, LDX) (LINX step 2)."""

    name: str

    def generate(
        self,
        table: DataTable,
        ldx_text: str,
        *,
        episodes: int | None = None,
        seed: int | None = None,
        cache: ExecutionCache | None = None,
        on_episode: EpisodeCallback | None = None,
    ) -> SessionOutcome: ...


@runtime_checkable
class NotebookRenderer(Protocol):
    """Renders a session as a notebook."""

    name: str

    def render(self, session: ExplorationSession, goal: str) -> Notebook: ...


@runtime_checkable
class InsightExtractor(Protocol):
    """Extracts candidate insights from a session."""

    name: str

    def extract(self, session: ExplorationSession) -> list[Insight]: ...


# -- default implementations ---------------------------------------------------------
class ChainedSpecDeriver:
    """The paper's NL2PD2LDX chained prompting pipeline as a stage.

    The few-shot bank is expensive to build (it materialises the full
    benchmark), so it arrives through a supplier callable — the engine
    passes its lazily-built, memoized bank.
    """

    name = "nl2pd2ldx"

    def __init__(self, client: LLMClient, bank_supplier: Callable[[], FewShotBank]):
        self.client = client
        self._bank_supplier = bank_supplier

    def derive(self, dataset_name: str, goal: str) -> SpecDerivation:
        probe = BenchmarkInstance(
            instance_id=-1,
            meta_goal_id=0,
            meta_goal_name="ad-hoc",
            dataset=dataset_name,
            goal=goal,
            ldx_text="ROOT CHILDREN <A1>\nA1 LIKE [G,.*]",
        )
        pipeline = ChainedPipeline(self.client, self._bank_supplier())
        # Ad-hoc requests use every available example (seen dataset & meta-goal).
        result = pipeline.derive(probe, SCENARIOS[0])
        return SpecDerivation(
            ldx_text=result.ldx_text,
            intermediate_pyldx=result.intermediate_pyldx,
        )


class CdrlSessionGenerator:
    """The LINX CDRL engine as the default session-generation stage."""

    name = "cdrl"
    #: The engine passes its exploration context and (when batching is on)
    #: its :class:`~repro.engine.batcher.InferenceBatcher` only to stages
    #: that declare support; stages without the flag (ATENA, custom
    #: generators) run exactly as before.
    supports_batching = True

    def __init__(self, config: CdrlConfig | None = None):
        self.config = config or CdrlConfig(episodes=150)

    def generate(
        self,
        table: DataTable,
        ldx_text: str,
        *,
        episodes: int | None = None,
        seed: int | None = None,
        cache: ExecutionCache | None = None,
        on_episode: EpisodeCallback | None = None,
        shared: SharedExplorationContext | None = None,
        batcher=None,
    ) -> SessionOutcome:
        config = _seeded(self.config, seed)
        agent = LinxCdrlAgent(
            table, ldx_text, config=config, cache=cache, shared=shared, batcher=batcher
        )
        result = agent.run(episodes=episodes, episode_callback=on_episode)
        return SessionOutcome(
            session=result.session,
            fully_compliant=result.fully_compliant,
            structurally_compliant=result.structurally_compliant,
            utility_score=result.utility_score,
            episodes_trained=result.episodes_trained,
        )


class AtenaSessionGenerator:
    """The goal-agnostic ATENA baseline as an alternate generation stage.

    ATENA ignores the specifications while training; compliance is still
    verified against them afterwards so results stay comparable with CDRL.
    """

    name = "atena"

    def __init__(self, config: AtenaConfig | None = None):
        self.config = config or AtenaConfig(episodes=150)
        self._scorer = GenericExplorationReward()

    def generate(
        self,
        table: DataTable,
        ldx_text: str,
        *,
        episodes: int | None = None,
        seed: int | None = None,
        cache: ExecutionCache | None = None,
        on_episode: EpisodeCallback | None = None,
    ) -> SessionOutcome:
        config = _seeded(self.config, seed)
        agent = AtenaAgent(table, config=config, cache=cache)
        result = agent.run(episodes=episodes, episode_callback=on_episode)
        query = try_parse_ldx(ldx_text)
        tree = result.session.to_tree()
        return SessionOutcome(
            session=result.session,
            fully_compliant=bool(query and verify(tree, query)),
            structurally_compliant=bool(query and verify_structure(tree, query)),
            utility_score=result.utility_score,
            episodes_trained=len(result.history.episode_returns),
        )


class MarkdownNotebookRenderer:
    """The default notebook renderer (one cell per query operation)."""

    name = "markdown"

    def __init__(self, preview_rows: int = 8):
        self.preview_rows = preview_rows

    def render(self, session: ExplorationSession, goal: str) -> Notebook:
        return render_notebook(session, goal=goal, preview_rows=self.preview_rows)


class DefaultInsightExtractor:
    """The default mechanical insight extractor (Section 7.3 simulation)."""

    name = "mechanical"

    def __init__(self, max_insights: int = 12):
        self.max_insights = max_insights

    def extract(self, session: ExplorationSession) -> list[Insight]:
        return extract_insights(session, max_insights=self.max_insights)


# -- registry entries ----------------------------------------------------------------
# Each built-in registers under its ``name`` so requests and engine specs can
# select it declaratively (``stages={"session_generator": "atena"}``) — in
# thread *and* process modes, since a name rides in a picklable spec where a
# live stage object cannot.

@register_stage_factory(KIND_SPEC_DERIVER, ChainedSpecDeriver.name)
def _build_chained_deriver(context: StageContext) -> ChainedSpecDeriver:
    return ChainedSpecDeriver(context.llm_client, context.fewshot_bank)


@register_stage_factory(KIND_SESSION_GENERATOR, CdrlSessionGenerator.name)
def _build_cdrl_generator(context: StageContext) -> CdrlSessionGenerator:
    return CdrlSessionGenerator(context.cdrl_config)


@register_stage_factory(KIND_SESSION_GENERATOR, AtenaSessionGenerator.name)
def _build_atena_generator(context: StageContext) -> AtenaSessionGenerator:
    # ATENA inherits the engine's episode budget and seed so swapping the
    # generator by name changes the algorithm, not the training budget.
    return AtenaSessionGenerator(
        AtenaConfig(
            episodes=context.cdrl_config.episodes, seed=context.cdrl_config.seed
        )
    )


@register_stage_factory(KIND_NOTEBOOK_RENDERER, MarkdownNotebookRenderer.name)
def _build_markdown_renderer(context: StageContext) -> MarkdownNotebookRenderer:
    return MarkdownNotebookRenderer()


@register_stage_factory(KIND_INSIGHT_EXTRACTOR, DefaultInsightExtractor.name)
def _build_mechanical_extractor(context: StageContext) -> DefaultInsightExtractor:
    return DefaultInsightExtractor()
