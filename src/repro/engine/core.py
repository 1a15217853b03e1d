"""The long-lived LINX engine: a service-oriented facade over the pipeline.

One :class:`LinxEngine` instance owns the expensive shared state — an LLM
client, a lazily-built memoized few-shot bank, and one thread-safe
:class:`~repro.explore.cache.ExecutionCache` shared by every request — and
processes declarative :class:`~repro.engine.request.ExploreRequest` objects
through four pluggable stages (derive → generate → render → insights) into
serializable :class:`~repro.engine.result.ExploreResult` objects.

The engine

* validates requests up front with structured errors,
* never rebuilds the benchmark or few-shot bank per request,
* shares one in-memory execution cache across all requests, so related
  requests reuse each other's query results,
* emits ordered per-request progress events, and
* returns results that round-trip through JSON for serving and storage.

:meth:`LinxEngine.explore` runs one request in the calling thread and
attaches the live session, notebook and query as ``artifacts``.  For many
requests at once, :class:`~repro.engine.scheduler.RequestScheduler` drives
the engine from worker threads (``workers="thread"``) or from a persistent
process pool (``workers="process"``).

What an engine *is* — its CDRL configuration, the name of each of its four
stages and of its LLM client, and its policy registry — is one frozen
:class:`EngineSpec`, built once per engine.  The spec is the only input to
the result-store namespace (:meth:`EngineSpec.fingerprint`) and the only
thing a process worker receives to rebuild the engine.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import threading
import time
from typing import Any, Callable, Mapping, Optional, TypeVar

from repro.bench.generator import generate_benchmark
from repro.cdrl.agent import CdrlConfig
from repro.cdrl.context import SharedExplorationContext
from repro.dataframe.table import DataTable
from repro.datasets.registry import dataset_names, load_dataset
from repro.explore.cache import CacheStats, ExecutionCache
from repro.explore.session import ExplorationSession
from repro.ldx.parser import parse_ldx, try_parse_ldx
from repro.llm.interface import LLMClient
from repro.llm.mock import gpt4_client
from repro.nl2ldx.fewshot import FewShotBank
from repro.reliability import SITE_CHECKPOINT, fault_point

from .errors import (
    FieldError,
    RequestCancelledError,
    RequestTimeoutError,
    RequestValidationError,
    StageFailedError,
)
from .events import (
    EVENT_EPISODE,
    EVENT_REQUEST_FINISHED,
    EVENT_REQUEST_STARTED,
    EVENT_STAGE_FINISHED,
    EVENT_STAGE_SKIPPED,
    EVENT_STAGE_STARTED,
    ProgressEvent,
    ProgressObserver,
)
from .registry import (
    DEFAULT_STAGE_NAMES,
    KIND_INSIGHT_EXTRACTOR,
    KIND_NOTEBOOK_RENDERER,
    KIND_SESSION_GENERATOR,
    KIND_SPEC_DERIVER,
    STAGE_REGISTRY,
    StageContext,
)
from .request import ExploreRequest
from .result import (
    RESULT_SEMANTICS_VERSION,
    STAGE_DERIVE,
    STAGE_GENERATE,
    STAGE_INSIGHTS,
    STAGE_ORDER,
    STAGE_RENDER,
    STATUS_CANCELLED,
    STATUS_COMPLETE,
    STATUS_FAILED,
    STATUS_SKIPPED,
    EngineArtifacts,
    ExploreResult,
    insight_to_dict,
)
from .stages import InsightExtractor, NotebookRenderer, SessionGenerator, SpecDeriver

#: Permissive fallback specification used when derived/explicit LDX fails to
#: parse: the engine still produces a useful (if less targeted) session.
PERMISSIVE_LDX = "ROOT CHILDREN <A1,A2>\nA1 LIKE [F,.*]\nA2 LIKE [G,.*]"

#: Row budget of the engine's shared cache.  The engine is long-lived
#: and serves arbitrarily many requests, so unlike per-agent caches its volume
#: must be bounded: 2M cached rows keeps worst-case residency at a few hundred
#: MB even on wide tables, while far exceeding a single request's working set.
DEFAULT_ENGINE_MAX_CACHED_ROWS = 2_000_000

#: Stage kind → the engine attribute holding that stage's instance.
STAGE_KIND_ATTRS: dict[str, str] = {
    KIND_SPEC_DERIVER: "spec_deriver",
    KIND_SESSION_GENERATOR: "session_generator",
    KIND_NOTEBOOK_RENDERER: "notebook_renderer",
    KIND_INSIGHT_EXTRACTOR: "insight_extractor",
}

T = TypeVar("T")


@dataclasses.dataclass(frozen=True)
class EngineSpec:
    """What an engine is, in one picklable value.

    ``stages`` holds ``(kind, name)`` for all four stage kinds, sorted by
    kind.  A stage selected by name carries the name it was resolved by,
    with an engine-level ``cdrl:<name>`` alias pinned to the version it
    served at construction (``cdrl:<name>-v<N>``); a live stage object
    carries its ``name`` attribute, or ``None`` without one.
    ``llm_client`` is the client's ``name`` the same way.
    """

    cdrl_config: CdrlConfig
    stages: tuple[tuple[str, Optional[str]], ...]
    llm_client: Optional[str]
    policy_registry_path: Optional[str] = None

    def unnamed(self) -> list[str]:
        """The stage kinds (and ``"llm_client"``) that carry no name: two
        different unnamed objects are indistinguishable in :meth:`fingerprint`."""
        missing = [kind for kind, name in self.stages if name is None]
        if self.llm_client is None:
            missing.append("llm_client")
        return missing

    def fingerprint(self) -> str:
        """Digest of the result-shaping configuration: the store namespace.

        Covers everything that changes *what identical requests produce*
        under engine defaults — the code's
        :data:`~repro.engine.result.RESULT_SEMANTICS_VERSION`, the CDRL
        configuration (episode budget, seeds, trainer hyper-parameters), the
        LLM client's name (it shapes the derived specification) and every
        stage's name.  The policy registry's path is left out: artifacts
        are told apart by their versioned stage names.  The recipe is
        fixed (an unnamed object hashes as ``"custom"``), so namespaces
        written by earlier code versions stay valid.
        """

        def named(name: Optional[str]) -> str:
            return "custom" if name is None else name

        payload = repr(
            (
                RESULT_SEMANTICS_VERSION,
                sorted(dataclasses.asdict(self.cdrl_config).items()),
                named(self.llm_client),
                [(kind, named(name)) for kind, name in self.stages],
            )
        )
        return hashlib.blake2b(payload.encode("utf-8"), digest_size=12).hexdigest()


class LinxEngine:
    """Long-lived, batchable, pluggable LINX service facade.

    Parameters
    ----------
    llm_client:
        LLM client used by the default specification deriver (offline: the
        simulated GPT-4 tier).
    cdrl_config:
        Configuration of the default CDRL session generator.
    spec_deriver / session_generator / notebook_renderer / insight_extractor:
        Stage overrides (see :mod:`repro.engine.stages`); pass e.g.
        :class:`~repro.engine.stages.AtenaSessionGenerator` to swap the
        baseline in as the generation stage.
    stages:
        Stage selection by registered name, per kind (unselected kinds use
        :data:`~repro.engine.registry.DEFAULT_STAGE_NAMES`).  Every named
        stage, defaults included, resolves through one lookup: a
        ``cdrl:<name>[-v<N>]`` name in the engine's policy registry,
        anything else in :data:`~repro.engine.registry.STAGE_REGISTRY`.
    cache:
        Execution cache shared by every request.  Defaults to an
        :class:`~repro.explore.cache.ExecutionCache` with the default entry
        bound and :data:`DEFAULT_ENGINE_MAX_CACHED_ROWS` cached rows.
    policy_registry_path:
        Optional sqlite file of a :class:`~repro.train.registry.PolicyRegistry`.
        Its trained artifacts serve as session generators by name
        (``cdrl:<name>-v<N>``, or ``cdrl:<name>`` for the promoted-or-latest
        version), looked up when a name is first used, so versions
        published after the engine started serve too.  Declarative — a
        path, not an object — so it rides in the :class:`EngineSpec` to the
        workers of a process-mode
        :class:`~repro.engine.scheduler.RequestScheduler`.

    Example
    -------
    >>> from repro.engine import ExploreRequest, LinxEngine
    >>> engine = LinxEngine()
    >>> result = engine.explore(ExploreRequest(
    ...     goal="Find a country with different viewing habits than the rest of the world",
    ...     dataset="netflix", num_rows=800))          # doctest: +SKIP
    >>> result.notebook_markdown                        # doctest: +SKIP
    """

    spec_deriver: SpecDeriver
    session_generator: SessionGenerator
    notebook_renderer: NotebookRenderer
    insight_extractor: InsightExtractor

    def __init__(
        self,
        llm_client: LLMClient | None = None,
        cdrl_config: CdrlConfig | None = None,
        *,
        spec_deriver: SpecDeriver | None = None,
        session_generator: SessionGenerator | None = None,
        notebook_renderer: NotebookRenderer | None = None,
        insight_extractor: InsightExtractor | None = None,
        stages: Mapping[str, str] | None = None,
        cache: ExecutionCache | None = None,
        policy_registry_path: str | os.PathLike | None = None,
        inference_batching: bool = False,
        batch_linger_ms: float = 2.0,
        max_batch_size: int = 64,
    ):
        self.llm_client = llm_client or gpt4_client()
        self.cdrl_config = cdrl_config or CdrlConfig(episodes=150)
        # Content-keyed exploration state (action spaces, generic-reward
        # scorers, LDX matchers, feature and decision memos) pooled
        # across every request, batched or not, under one entry budget.  Pooling is pure,
        # so results equal a fresh engine's at equal seeds.
        self.exploration_context = SharedExplorationContext()
        # Continuous cross-request batching (opt-in): concurrent requests'
        # policy forwards coalesce into shared stacked waves.  Results are
        # bit-identical to unbatched execution at equal seeds, so this knob
        # deliberately stays OUT of the :class:`EngineSpec` — batched and
        # unbatched servers may share one result store.  Only stages that
        # declare ``supports_batching`` receive the context and the batcher;
        # everything else (ATENA baseline, custom stages, process-pool
        # workers, which rebuild engines from the spec) runs on its own.
        self.batcher = None
        if inference_batching:
            # Lazy import: repro.engine.batcher imports rl/explore modules.
            from .batcher import InferenceBatcher

            self.batcher = InferenceBatcher(
                max_batch_size=max_batch_size, linger_ms=batch_linger_ms
            )
        self.cache = cache if cache is not None else ExecutionCache(
            max_cached_rows=DEFAULT_ENGINE_MAX_CACHED_ROWS
        )
        self._bank_lock = threading.Lock()
        self._bank: Optional[FewShotBank] = None
        self._table_memo: dict = {}
        self._table_memo_lock = threading.Lock()
        # Per-request stage instances resolved by name, memoized: stage
        # implementations are stateless per request, so one instance per
        # (kind, name) serves every request and thread.
        self._stage_instances: dict[tuple[str, str], Any] = {}
        self._stage_instances_lock = threading.Lock()
        self.policy_registry = None
        if policy_registry_path is not None:
            # Lazy import: repro.train builds on this module's layer.
            from repro.train.registry import PolicyRegistry

            self.policy_registry = PolicyRegistry(policy_registry_path)
        selection = {
            kind: str(name).strip().lower() for kind, name in (stages or {}).items()
        }
        unknown_kinds = sorted(set(selection) - set(STAGE_KIND_ATTRS))
        if unknown_kinds:
            raise ValueError(
                f"unknown stage kinds {unknown_kinds}; expected a subset of "
                f"{sorted(STAGE_KIND_ATTRS)}"
            )
        objects = {
            KIND_SPEC_DERIVER: spec_deriver,
            KIND_SESSION_GENERATOR: session_generator,
            KIND_NOTEBOOK_RENDERER: notebook_renderer,
            KIND_INSIGHT_EXTRACTOR: insight_extractor,
        }
        # A process worker rebuilds the engine from its spec, so it cannot
        # reproduce live objects (even named ones); the scheduler refuses
        # process mode for them.
        given = {**objects, "cache": cache, "llm_client": llm_client}
        self._live_objects = [label for label, obj in given.items() if obj is not None]
        names: dict[str, Optional[str]] = {}
        for kind, attribute in STAGE_KIND_ATTRS.items():
            stage = objects[kind]
            if stage is None:
                name = selection.get(kind, DEFAULT_STAGE_NAMES[kind])
                if kind == KIND_SESSION_GENERATOR and self.policy_registry is not None:
                    name = self.policy_registry.pin(name)
                stage = self._stage_by_name(kind, name)
            else:
                name = getattr(stage, "name", None)
            setattr(self, attribute, stage)
            names[kind] = name
        self.spec = EngineSpec(
            cdrl_config=self.cdrl_config,
            stages=tuple(sorted(names.items())),
            llm_client=getattr(self.llm_client, "name", None),
            policy_registry_path=(
                None if policy_registry_path is None else str(policy_registry_path)
            ),
        )

    # -- shared state ----------------------------------------------------------------
    def fewshot_bank(self) -> FewShotBank:
        """The engine-wide few-shot bank, built once on first use.

        Building materialises the full benchmark (182 goal/LDX instances),
        so it is deferred until a request actually needs derivation and then
        reused by every subsequent request, across threads.
        """
        if self._bank is None:
            with self._bank_lock:
                if self._bank is None:
                    self._bank = FewShotBank(generate_benchmark())
        return self._bank

    def cache_stats(self) -> dict:
        """Engine-wide execution-cache statistics and occupancy."""
        return self.cache.describe()

    def close(self) -> None:
        """Release background resources: the batcher's wave thread."""
        if self.batcher is not None:
            self.batcher.close()

    def config_fingerprint(self) -> str:
        """The result-store namespace: :meth:`EngineSpec.fingerprint` of
        :attr:`spec`.  The scheduler namespaces store keys with it, so a
        store file shared across servers (or restarts) with different
        configurations or code versions never serves one's results for
        another's requests."""
        return self.spec.fingerprint()

    def describe_stages(self) -> dict[str, list[str]]:
        """Every stage name this engine resolves, per kind (the server's
        ``/stages`` payload): the registered stage code plus the trained
        policies of the engine's policy registry."""
        names = STAGE_REGISTRY.describe()
        if self.policy_registry is not None:
            names[KIND_SESSION_GENERATOR] = sorted(
                names[KIND_SESSION_GENERATOR] + self.policy_registry.stage_names()
            )
        return names

    def _stage_context(self) -> StageContext:
        """The shared-state bundle handed to registry stage factories."""
        return StageContext(
            llm_client=self.llm_client,
            fewshot_bank=self.fewshot_bank,
            cdrl_config=self.cdrl_config,
        )

    def _stage_by_name(self, kind: str, name: str) -> Any:
        """The memoized stage instance named ``(kind, name)``: a trained
        policy of the engine's policy registry, else the stage registered
        in :data:`~repro.engine.registry.STAGE_REGISTRY`."""
        key = (kind, str(name).strip().lower())
        with self._stage_instances_lock:
            instance = self._stage_instances.get(key)
        if instance is None:
            if kind == KIND_SESSION_GENERATOR and self.policy_registry is not None:
                instance = self.policy_registry.session_generator(key[1])
            if instance is None:
                instance = STAGE_REGISTRY.create(kind, key[1], self._stage_context())
            with self._stage_instances_lock:
                instance = self._stage_instances.setdefault(key, instance)
        return instance

    def _stages_for(self, request: ExploreRequest) -> dict[str, Any]:
        """The stage instances serving *request* (kind → stage).

        A request's declarative ``stages`` selection overrides the engine's
        configured stage per kind; unselected kinds keep the engine's.
        Unknown names raise :class:`RequestValidationError` before any work
        starts.
        """
        stages = {
            kind: getattr(self, attribute)
            for kind, attribute in STAGE_KIND_ATTRS.items()
        }
        for kind, name in (request.stages or {}).items():
            stages[kind] = self._stage_by_name(kind, name)
        return stages

    #: Resolved datasets memoised per engine (generation is deterministic
    #: in ``(name, num_rows, seed)``, so sharing one immutable table across
    #: requests and threads changes nothing but the time spent).
    _TABLE_MEMO_MAX = 16

    def resolve_table(self, request: ExploreRequest) -> DataTable:
        """Materialise the dataset a request refers to (memoised).

        Synthetic datasets are regenerated deterministically from
        ``(dataset, num_rows, dataset_seed)``; under serving load every
        request paid that generation cost again.  The memo is bounded by
        wholesale clearing (the registry only has a handful of datasets,
        but ``num_rows`` sweeps shouldn't grow it without bound).
        """
        key = (request.dataset, request.num_rows, request.dataset_seed)
        # Generation happens *under* the lock: a burst of concurrent
        # requests for the same dataset must not each regenerate it
        # (thundering herd) — the first loader blocks the rest, which
        # then hit the memo.  Generation is GIL-bound anyway, so the
        # serialisation costs nothing in wall-clock terms.
        with self._table_memo_lock:
            table = self._table_memo.get(key)
            if table is None:
                table = load_dataset(
                    request.dataset,
                    num_rows=request.num_rows,
                    seed=request.dataset_seed,
                )
                if len(self._table_memo) >= self._TABLE_MEMO_MAX:
                    self._table_memo.clear()
                self._table_memo[key] = table
        return table

    # -- request execution -----------------------------------------------------------
    def explore(
        self,
        request: ExploreRequest,
        *,
        table: DataTable | None = None,
        observer: ProgressObserver | None = None,
        timeout: float | None = None,
        cancel_event: threading.Event | None = None,
        _label: str = "",
    ) -> ExploreResult:
        """Process one request through the full pipeline.

        ``table`` overrides dataset resolution with an in-memory
        :class:`DataTable` (the in-process escape hatch for ad-hoc data,
        which then needs an explicit ``ldx_text`` unless its name is a
        registered dataset); the request stays declarative and serializable
        either way.
        ``observer`` receives ordered :class:`ProgressEvent` notifications.

        ``timeout`` (seconds) and ``cancel_event`` enable *cooperative*
        interruption: the engine checks both at every stage boundary and at
        every training-episode tick, and raises
        :class:`~repro.engine.errors.RequestTimeoutError` /
        :class:`~repro.engine.errors.RequestCancelledError` — never a
        partial result — when the deadline passes or the event is set.
        """
        known = None
        if table is not None:
            known = list(dataset_names()) + [table.name]
        request.validate(known_datasets=known)
        if (
            request.ldx_text is None
            and table is not None
            and table.name.strip().lower() not in dataset_names()
        ):
            raise RequestValidationError(
                [
                    FieldError(
                        "ldx_text",
                        "specification derivation needs a registered dataset; "
                        f"supply ldx_text explicitly for ad-hoc table {table.name!r}",
                    )
                ]
            )

        request_id = request.request_id or _label or "request"
        emit: ProgressObserver = observer or (lambda event: None)
        stages = self._stages_for(request)
        deadline = time.monotonic() + timeout if timeout is not None else None

        def guard() -> None:
            # The cooperative checkpoint: cheap enough for every episode tick.
            # The fault seam runs first so an injected hang is observed by
            # the deadline check below — exactly how a hung stage is cut
            # loose in production.
            fault_point(SITE_CHECKPOINT)
            if cancel_event is not None and cancel_event.is_set():
                raise RequestCancelledError(request_id)
            if deadline is not None and time.monotonic() > deadline:
                raise RequestTimeoutError(request_id, timeout)

        guard()
        result = ExploreResult(
            request=request.to_dict(),
            dataset_name=request.dataset,
            goal=request.goal,
        )
        for stage_name in STAGE_ORDER:
            result.stage(stage_name)  # pre-register, status "pending"
        result.stage_names = {
            stage_kind: getattr(stage, "name", type(stage).__name__)
            for stage_kind, stage in stages.items()
        }
        emit(ProgressEvent(request_id, EVENT_REQUEST_STARTED))

        if table is None:
            table = self.resolve_table(request)
        result.dataset_name = table.name
        counters_before = self.cache.snapshot_counters()

        # -- stage 1: specification derivation ----------------------------------
        if request.ldx_text is not None:
            status = result.stage(STAGE_DERIVE)
            status.status = STATUS_SKIPPED
            status.detail = "explicit ldx_text supplied"
            emit(ProgressEvent(request_id, EVENT_STAGE_SKIPPED, STAGE_DERIVE))
            ldx_text = request.ldx_text
        else:
            guard()
            derivation = self._run_stage(
                result,
                STAGE_DERIVE,
                request_id,
                emit,
                lambda: stages[KIND_SPEC_DERIVER].derive(table.name, request.goal),
                required=True,
            )
            ldx_text = derivation.ldx_text

        query = try_parse_ldx(ldx_text)
        if query is None:
            # Permissive fallback instead of failing outright; the
            # substitution is recorded on the result, never silent.
            result.derivation_fallback = True
            result.warnings.append(
                "specification did not parse as LDX; substituted the permissive "
                "fallback specification"
            )
            result.stage(STAGE_DERIVE).detail = (
                result.stage(STAGE_DERIVE).detail or "fell back to permissive LDX"
            )
            ldx_text = PERMISSIVE_LDX
            query = parse_ldx(ldx_text)
        result.ldx_text = ldx_text

        # -- stage 2: constrained session generation ----------------------------
        def on_episode(episode: int, episode_return: float, _session) -> None:
            guard()
            emit(
                ProgressEvent(
                    request_id,
                    EVENT_EPISODE,
                    STAGE_GENERATE,
                    {"episode": episode, "return": episode_return},
                )
            )

        guard()
        generator = stages[KIND_SESSION_GENERATOR]
        generate_kwargs: dict[str, Any] = {}
        if getattr(generator, "supports_batching", False):
            generate_kwargs["shared"] = self.exploration_context
            generate_kwargs["batcher"] = self.batcher
        outcome = self._run_stage(
            result,
            STAGE_GENERATE,
            request_id,
            emit,
            lambda: generator.generate(
                table,
                ldx_text,
                episodes=request.episodes,
                seed=request.seed,
                cache=self.cache,
                on_episode=on_episode,
                **generate_kwargs,
            ),
            required=True,
        )
        session: ExplorationSession = outcome.session
        result.fully_compliant = outcome.fully_compliant
        result.structurally_compliant = outcome.structurally_compliant
        result.utility_score = outcome.utility_score
        result.episodes_trained = outcome.episodes_trained
        result.operations = [
            list(operation.signature()) for operation in session.operations
        ]

        # -- stage 3 + 4: rendering and insights (non-fatal on failure) ----------
        guard()
        notebook = self._run_stage(
            result,
            STAGE_RENDER,
            request_id,
            emit,
            lambda: stages[KIND_NOTEBOOK_RENDERER].render(session, request.goal),
            required=False,
        )
        if notebook is not None:
            result.notebook_markdown = notebook.to_markdown()
        guard()
        insights = self._run_stage(
            result,
            STAGE_INSIGHTS,
            request_id,
            emit,
            lambda: stages[KIND_INSIGHT_EXTRACTOR].extract(session),
            required=False,
        )
        if insights is not None:
            result.insights = [insight_to_dict(insight) for insight in insights]

        result.cache_stats = self._cache_delta(counters_before)
        result.artifacts = EngineArtifacts(
            session=session,
            notebook=notebook,
            query=query,
            insights=list(insights) if insights is not None else [],
        )
        emit(ProgressEvent(request_id, EVENT_REQUEST_FINISHED))
        return result

    # -- internals -------------------------------------------------------------------
    def _run_stage(
        self,
        result: ExploreResult,
        stage_name: str,
        request_id: str,
        emit: ProgressObserver,
        run: Callable[[], T],
        *,
        required: bool,
    ) -> Optional[T]:
        """Run one stage with timing, status bookkeeping and events.

        Required stages re-raise failures as :class:`StageFailedError`;
        optional stages record the failure on their status (plus a result
        warning) and let the request complete, mirroring the stage-failure
        policy of staged enrichment pipelines.
        """
        status = result.stage(stage_name)
        emit(ProgressEvent(request_id, EVENT_STAGE_STARTED, stage_name))
        started = time.perf_counter()
        try:
            value = run()
        except RequestCancelledError:
            # Cooperative cancellation aborts the whole request (required or
            # not) and is never wrapped: schedulers must be able to tell
            # "cancelled" from "failed".
            status.seconds = time.perf_counter() - started
            status.status = STATUS_CANCELLED
            emit(
                ProgressEvent(
                    request_id,
                    EVENT_STAGE_FINISHED,
                    stage_name,
                    {"status": STATUS_CANCELLED},
                )
            )
            raise
        except Exception as exc:
            status.seconds = time.perf_counter() - started
            status.status = STATUS_FAILED
            status.detail = f"{type(exc).__name__}: {exc}"
            emit(
                ProgressEvent(
                    request_id, EVENT_STAGE_FINISHED, stage_name, {"status": STATUS_FAILED}
                )
            )
            if required:
                raise StageFailedError(stage_name, exc) from exc
            result.warnings.append(f"stage {stage_name} failed: {exc}")
            return None
        status.seconds = time.perf_counter() - started
        status.status = STATUS_COMPLETE
        emit(
            ProgressEvent(
                request_id, EVENT_STAGE_FINISHED, stage_name, {"status": STATUS_COMPLETE}
            )
        )
        return value

    def _cache_delta(self, before: CacheStats) -> dict:
        """Per-request cache counters (approximate under concurrent batches)."""
        after = self.cache.snapshot_counters()
        hits = after.hits - before.hits
        misses = after.misses - before.misses
        plan_hits = after.plan_hits - before.plan_hits
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "evictions": after.evictions - before.evictions,
            "hit_rate": round(hits / lookups, 4) if lookups else 0.0,
            "plan_hits": plan_hits,
            "plan_hit_rate": round(plan_hits / lookups, 4) if lookups else 0.0,
            "entries": len(self.cache),
            "cached_rows": self.cache.cached_rows,
        }
