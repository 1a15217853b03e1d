"""The long-lived LINX engine: a service-oriented facade over the pipeline.

One :class:`LinxEngine` instance owns the expensive shared state — an LLM
client, a lazily-built memoized few-shot bank, and one thread-safe
:class:`~repro.explore.cache.ExecutionCache` shared by every request — and
processes declarative :class:`~repro.engine.request.ExploreRequest` objects
through four pluggable stages (derive → generate → render → insights) into
serializable :class:`~repro.engine.result.ExploreResult` objects.

Unlike the legacy :class:`repro.linx.Linx` facade (now a thin wrapper over
this class), the engine

* validates requests up front with structured errors,
* never rebuilds the benchmark or few-shot bank per request,
* shares one execution cache across all requests, so a batch of related
  requests reuses each other's query results,
* optionally layers that cache over a persistent sqlite tier
  (``disk_cache_path``), so results survive restarts and cross process
  boundaries,
* fans batches out over a thread pool — or, opt-in, a **process pool**
  (``explore_many(..., workers="process")``) whose workers rebuild the
  engine and share the disk tier, turning GIL-bound interleaving into real
  multi-core throughput — with ordered per-request progress events, and
* returns results that round-trip through JSON for serving and storage.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, TypeVar

from repro.bench.generator import generate_benchmark
from repro.cdrl.agent import CdrlConfig
from repro.dataframe.table import DataTable
from repro.datasets.registry import dataset_names, load_dataset
from repro.explore.cache import DEFAULT_MAX_ENTRIES, ExecutionCache
from repro.explore.session import ExplorationSession
from repro.ldx.parser import parse_ldx, try_parse_ldx
from repro.llm.interface import LLMClient
from repro.llm.mock import gpt4_client
from repro.nl2ldx.fewshot import FewShotBank
from repro.reliability import SITE_CHECKPOINT, FileCancelEvent, fault_point

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
from .stages import (
    CdrlSessionGenerator,
    ChainedSpecDeriver,
    DefaultInsightExtractor,
    InsightExtractor,
    MarkdownNotebookRenderer,
    NotebookRenderer,
    SessionGenerator,
    SpecDeriver,
)

#: Permissive fallback specification used when derived/explicit LDX fails to
#: parse: the engine still produces a useful (if less targeted) session.
PERMISSIVE_LDX = "ROOT CHILDREN <A1,A2>\nA1 LIKE [F,.*]\nA2 LIKE [G,.*]"

#: Default row budget of the engine's shared cache.  The engine is long-lived
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
    cache:
        Execution cache shared by every request.  Defaults to an
        :class:`~repro.explore.cache.ExecutionCache` bounded by
        *max_cache_entries* entries and *max_cached_rows* total cached rows
        (default :data:`DEFAULT_ENGINE_MAX_CACHED_ROWS`; pass ``None`` to
        disable the row budget).
    disk_cache_path:
        Optional sqlite file layered *under* the default cache as a
        persistent tier (:class:`~repro.explore.diskcache.DiskCacheTier`):
        results survive restarts, and warm-start sweeps or process-pool
        workers reuse each other's executions.  Ignored when an explicit
        *cache* is supplied.
    disk_cache_shards:
        Sqlite shard count for the disk cache tier (keys stripe over this
        many WAL files so concurrent workers never queue on one write
        lock; see :mod:`repro.shards`).  ``1`` keeps the legacy
        single-file layout.  Declarative, so process-pool workers rebuild
        their tier with the same routing.
    policy_registry_path:
        Optional sqlite file of a :class:`~repro.train.registry.PolicyRegistry`.
        Every trained artifact in it self-registers as a session-generator
        stage (``cdrl:<name>-v<N>`` plus the floating ``cdrl:<name>`` alias),
        so requests can serve trained policies by name.  Declarative — a
        path, not an object — so it survives ``explore_many(workers=
        "process")`` worker rebuilds.

    Example
    -------
    >>> from repro.engine import ExploreRequest, LinxEngine
    >>> engine = LinxEngine()
    >>> result = engine.explore(ExploreRequest(
    ...     goal="Find a country with different viewing habits than the rest of the world",
    ...     dataset="netflix", num_rows=800))          # doctest: +SKIP
    >>> result.notebook_markdown                        # doctest: +SKIP
    """

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
        max_cache_entries: int = DEFAULT_MAX_ENTRIES,
        max_cached_rows: int | None = DEFAULT_ENGINE_MAX_CACHED_ROWS,
        disk_cache_path: str | os.PathLike | None = None,
        disk_cache_shards: int = 1,
        policy_registry_path: str | os.PathLike | None = None,
        inference_batching: bool = False,
        batch_linger_ms: float = 2.0,
        max_batch_size: int = 64,
    ):
        self.llm_client = llm_client or gpt4_client()
        self.cdrl_config = cdrl_config or CdrlConfig(episodes=150)
        # Continuous cross-request batching (opt-in): concurrent requests'
        # policy forwards coalesce into shared stacked waves, and their
        # content-keyed exploration state is pooled.  Results are
        # bit-identical to unbatched execution at equal seeds, so this knob
        # deliberately stays OUT of ``config_fingerprint()`` — batched and
        # unbatched servers may share one result store.  Only stages that
        # declare ``supports_batching`` receive the batcher; everything else
        # (ATENA baseline, custom stages, process-pool workers, which
        # rebuild engines from ``worker_spec()``) falls back to the
        # unbatched path.
        self.batcher = None
        if inference_batching:
            # Lazy import: repro.engine.batcher imports rl/explore modules.
            from .batcher import InferenceBatcher

            self.batcher = InferenceBatcher(
                max_batch_size=max_batch_size, linger_ms=batch_linger_ms
            )
        self.disk_cache_path = (
            str(disk_cache_path) if disk_cache_path is not None else None
        )
        self.disk_cache_shards = disk_cache_shards
        if cache is not None:
            self.cache = cache
        else:
            self.cache = ExecutionCache(
                max_entries=max_cache_entries,
                max_cached_rows=max_cached_rows,
                disk=self.disk_cache_path,
                disk_shards=disk_cache_shards,
            )
        self._max_cache_entries = max_cache_entries
        self._max_cached_rows = max_cached_rows
        # Process-pool workers rebuild the engine from a picklable spec, so
        # they can only reproduce declaratively-configured engines.  Stage
        # selection *by registered name* (``stages=...``) stays declarative
        # — only live stage objects, caches and clients disqualify.
        self._custom_stages = any(
            stage is not None
            for stage in (
                spec_deriver,
                session_generator,
                notebook_renderer,
                insight_extractor,
            )
        ) or cache is not None or llm_client is not None
        self._bank_lock = threading.Lock()
        self._bank: Optional[FewShotBank] = None
        self._table_memo: dict = {}
        self._table_memo_lock = threading.Lock()
        self.registry = STAGE_REGISTRY
        self.policy_registry_path = (
            str(policy_registry_path) if policy_registry_path is not None else None
        )
        self.policy_registry = None
        if self.policy_registry_path is not None:
            # Lazy import: repro.train builds on this module's layer.
            from repro.train.registry import PolicyRegistry

            self.policy_registry = PolicyRegistry(self.policy_registry_path)
            # Trained artifacts become selectable stages (before stage
            # resolution, so ``stages=`` may name one directly).
            self.policy_registry.attach(self.registry)
        self.stage_selection: dict[str, str] = dict(stages or {})
        unknown_kinds = sorted(set(self.stage_selection) - set(STAGE_KIND_ATTRS))
        if unknown_kinds:
            raise ValueError(
                f"unknown stage kinds {unknown_kinds}; expected a subset of "
                f"{sorted(STAGE_KIND_ATTRS)}"
            )
        named = self.registry.resolve(self.stage_selection, self._stage_context())
        self.spec_deriver: SpecDeriver = (
            spec_deriver
            or named.get(KIND_SPEC_DERIVER)
            or ChainedSpecDeriver(self.llm_client, self.fewshot_bank)
        )
        self.session_generator: SessionGenerator = (
            session_generator
            or named.get(KIND_SESSION_GENERATOR)
            or CdrlSessionGenerator(self.cdrl_config)
        )
        self.notebook_renderer: NotebookRenderer = (
            notebook_renderer
            or named.get(KIND_NOTEBOOK_RENDERER)
            or MarkdownNotebookRenderer()
        )
        self.insight_extractor: InsightExtractor = (
            insight_extractor
            or named.get(KIND_INSIGHT_EXTRACTOR)
            or DefaultInsightExtractor()
        )
        # Per-request stage instances resolved by name, memoized: stage
        # implementations are stateless per request, so one instance per
        # (kind, name) serves every request and thread.
        self._stage_instances: dict[tuple[str, str], Any] = {}
        self._stage_instances_lock = threading.Lock()

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
        """Release background resources (currently the batcher wave thread)."""
        if self.batcher is not None:
            self.batcher.close()

    def config_fingerprint(self) -> str:
        """Digest of this engine's result-shaping configuration.

        Covers everything that changes *what identical requests produce*
        under engine defaults — the code's
        :data:`~repro.engine.result.RESULT_SEMANTICS_VERSION`, the CDRL
        configuration (episode budget, seeds, trainer hyper-parameters) and
        the ``name`` of every configured stage implementation (which also
        distinguishes custom stage *objects* from the defaults, as long as
        they carry distinct names).  The scheduler namespaces result-store
        keys with it, so a store file shared across servers (or restarts)
        with different configurations or code versions never serves one's
        results for another's requests.
        """
        import dataclasses
        import hashlib

        payload = repr(
            (
                RESULT_SEMANTICS_VERSION,
                sorted(dataclasses.asdict(self.cdrl_config).items()),
                [
                    (kind, getattr(getattr(self, attribute), "name", "custom"))
                    for kind, attribute in sorted(STAGE_KIND_ATTRS.items())
                ],
            )
        )
        return hashlib.blake2b(payload.encode("utf-8"), digest_size=12).hexdigest()

    def _stage_context(self) -> StageContext:
        """The shared-state bundle handed to registry stage factories."""
        return StageContext(
            llm_client=self.llm_client,
            fewshot_bank=self.fewshot_bank,
            cdrl_config=self.cdrl_config,
        )

    def _stage_by_name(self, kind: str, name: str) -> Any:
        """The memoized stage instance registered under ``(kind, name)``."""
        key = (kind, str(name).strip().lower())
        with self._stage_instances_lock:
            instance = self._stage_instances.get(key)
        if instance is None:
            instance = self.registry.create(kind, name, self._stage_context())
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

    # -- convenience (legacy-facade support) -----------------------------------------
    def derive_specifications(self, dataset_name: str, goal: str) -> str:
        """Derive LDX specification text for *goal* (LINX step 1)."""
        return self.spec_deriver.derive(dataset_name, goal).ldx_text

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
        :class:`DataTable` (the in-process escape hatch used by the legacy
        facade); the request stays declarative and serializable either way.
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
            # Permissive fallback instead of failing outright — and, unlike
            # the old facade, the substitution is recorded on the result.
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
        if self.batcher is not None and getattr(generator, "supports_batching", False):
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
        # Land this request's write-behind buffer so concurrent processes
        # (and the next engine start) see its results.
        self.cache.flush()
        emit(ProgressEvent(request_id, EVENT_REQUEST_FINISHED))
        return result

    def explore_many(
        self,
        requests: Iterable[ExploreRequest],
        *,
        max_workers: int | None = None,
        observer: ProgressObserver | None = None,
        workers: str = "thread",
        timeout: float | None = None,
        cancel_event: threading.Event | None = None,
    ) -> list[ExploreResult]:
        """Process a batch of requests, fanned out over a worker pool.

        Results are returned in request order.  The default ``workers=
        "thread"`` pool shares the engine's execution cache in memory, so
        overlapping requests reuse each other's query results; with
        ``max_workers=1`` the batch runs sequentially (events of different
        requests never interleave), otherwise observer callbacks may arrive
        concurrently from worker threads (per-request ordering is still
        guaranteed).  The first failing request propagates its exception
        after in-flight work completes.

        ``workers="process"`` is the multi-core opt-in: requests are
        serialized to a :class:`ProcessPoolExecutor` whose workers rebuild
        the engine from this one's declarative configuration.  CDRL training
        is pure Python/numpy and GIL-bound, so threads mostly interleave —
        processes actually scale.  Caveats: only declaratively-configured
        engines qualify — default stages *or stages selected by registered
        name* (engine-level ``stages=...`` or per-request
        ``request.stages``), default LLM/cache; a ``disk_cache_path`` lets
        the workers share executed results through the persistent tier —
        and results come back as lossless JSON round-trips, so live
        ``artifacts`` (session/notebook objects) are not attached.  With an
        ``observer``, workers stream their full event sequence (episode
        ticks included) back over a multiprocessing queue; per-request
        ordering is preserved, cross-request interleaving mirrors thread
        mode.  Request seeds behave exactly as in thread mode, so a batch's
        results are identical run-to-run and mode-to-mode.

        ``timeout`` applies *per request* in both modes; a request past its
        deadline raises :class:`~repro.engine.errors.RequestTimeoutError`
        out of the batch.  ``cancel_event`` cancels the whole batch
        cooperatively — in process mode it is bridged to the workers
        through a sentinel file (a
        :class:`~repro.reliability.FileCancelEvent` is used directly),
        so setting it reaches requests already running in the pool at
        their next checkpoint.
        """
        if workers not in ("thread", "process"):
            raise ValueError(f"workers must be 'thread' or 'process', got {workers!r}")
        batch: Sequence[ExploreRequest] = list(requests)
        if not batch:
            return []
        labels = [
            request.request_id or f"request-{index}"
            for index, request in enumerate(batch)
        ]
        if workers == "process":
            return self._explore_many_processes(
                batch, labels, max_workers, observer, timeout, cancel_event
            )
        pool_size = max_workers if max_workers is not None else min(4, len(batch))
        if pool_size <= 1 or len(batch) == 1:
            return [
                self.explore(
                    request,
                    observer=observer,
                    timeout=timeout,
                    cancel_event=cancel_event,
                    _label=label,
                )
                for request, label in zip(batch, labels)
            ]
        with ThreadPoolExecutor(max_workers=pool_size) as pool:
            futures = [
                pool.submit(
                    self.explore,
                    request,
                    observer=observer,
                    timeout=timeout,
                    cancel_event=cancel_event,
                    _label=label,
                )
                for request, label in zip(batch, labels)
            ]
            return [future.result() for future in futures]

    def _explore_many_processes(
        self,
        batch: Sequence[ExploreRequest],
        labels: Sequence[str],
        max_workers: int | None,
        observer: ProgressObserver | None,
        timeout: float | None = None,
        cancel_event: threading.Event | None = None,
    ) -> list[ExploreResult]:
        """Fan the batch out over processes that rebuild this engine's config."""
        if self._custom_stages:
            raise ValueError(
                "workers='process' requires a declaratively-configured engine "
                "(default or registry-named stages, default LLM client and "
                "cache); custom in-memory components cannot be rebuilt in "
                "worker processes"
            )
        spec = self.worker_spec()
        # Validate everything before any work is dispatched, so an invalid
        # request cannot strand already-submitted siblings mid-flight.
        for request in batch:
            request.validate()
        # Everything executed so far becomes visible to the workers.
        self.cache.flush()
        pool_size = max_workers if max_workers is not None else min(
            len(batch), os.cpu_count() or 1
        )

        # With an observer, workers stream their complete per-request event
        # sequence — episode ticks included — back through a managed queue
        # drained by a parent thread (the PR-4 follow-up: progress used to
        # be request-granularity only).
        progress_queue = None
        drainer = None
        manager = None
        if observer is not None:
            import multiprocessing

            manager = multiprocessing.Manager()
            progress_queue = manager.Queue()
            drainer = threading.Thread(
                target=drain_progress_queue,
                args=(progress_queue, lambda label, event: observer(event)),
                daemon=True,
            )
            drainer.start()

        # Cross-process cancellation rides a sentinel file the workers poll
        # at their cooperative checkpoints — an in-memory event cannot cross
        # the process boundary.  A FileCancelEvent contributes its own path;
        # any other event is bridged by a watcher thread that touches a
        # temporary sentinel when it fires.
        cancel_path: Optional[str] = None
        bridge_stop: Optional[threading.Event] = None
        bridge: Optional[threading.Thread] = None
        if cancel_event is not None:
            if isinstance(cancel_event, FileCancelEvent):
                cancel_path = str(cancel_event.path)
            else:
                cancel_path = str(
                    Path(tempfile.mkdtemp(prefix="linx-cancel-")) / "batch.cancel"
                )
                bridge_stop = threading.Event()

                def _bridge_cancel() -> None:
                    while not bridge_stop.is_set():
                        if cancel_event.is_set():
                            FileCancelEvent(cancel_path).set()
                            return
                        bridge_stop.wait(0.05)

                bridge = threading.Thread(target=_bridge_cancel, daemon=True)
                bridge.start()
        try:
            with ProcessPoolExecutor(max_workers=max(1, pool_size)) as pool:
                futures = [
                    pool.submit(
                        _process_worker,
                        request.to_dict(),
                        spec,
                        label,
                        progress_queue,
                        timeout,
                        cancel_path,
                    )
                    for request, label in zip(batch, labels)
                ]
                return [
                    ExploreResult.from_dict(future.result()) for future in futures
                ]
        finally:
            if bridge_stop is not None:
                bridge_stop.set()
                bridge.join(timeout=5)
            if progress_queue is not None:
                progress_queue.put(None)
                drainer.join(timeout=30)
                manager.shutdown()

    def worker_spec(self) -> dict[str, Any]:
        """The picklable spec a worker process rebuilds this engine from.

        Only meaningful for declaratively-configured engines (the process
        entry points check ``_custom_stages`` before using it).
        """
        return {
            "cdrl_config": self.cdrl_config,
            "disk_cache_path": self.disk_cache_path,
            "disk_cache_shards": self.disk_cache_shards,
            "max_cache_entries": self._max_cache_entries,
            "max_cached_rows": self._max_cached_rows,
            "stages": dict(self.stage_selection),
            "policy_registry_path": self.policy_registry_path,
        }

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

    def _cache_delta(self, counters_before: tuple[int, int, int, int, int]) -> dict:
        """Per-request cache counters (approximate under concurrent batches)."""
        hits_before, misses_before, evictions_before, plan_hits_before, fusions_before = (
            counters_before
        )
        hits_after, misses_after, evictions_after, plan_hits_after, fusions_after = (
            self.cache.snapshot_counters()
        )
        hits = hits_after - hits_before
        misses = misses_after - misses_before
        plan_hits = plan_hits_after - plan_hits_before
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "evictions": evictions_after - evictions_before,
            "hit_rate": round(hits / lookups, 4) if lookups else 0.0,
            "plan_hits": plan_hits,
            "plan_hit_rate": round(plan_hits / lookups, 4) if lookups else 0.0,
            "fusion_count": fusions_after - fusions_before,
            "entries": len(self.cache),
            "cached_rows": self.cache.cached_rows,
        }


# -- process-pool worker ----------------------------------------------------------------
#: The engine a worker process lazily builds and then reuses across tasks,
#: keyed by the spec that built it (one warm engine per worker).
_worker_engine: Optional[LinxEngine] = None
_worker_spec: Optional[dict[str, Any]] = None


def drain_progress_queue(queue, route: Callable[[str, ProgressEvent], None]) -> None:
    """Forward ``(label, event)`` pairs from a worker queue until ``None``.

    Shared by :meth:`LinxEngine.explore_many` (which drops the label — the
    events already carry their request id) and the request scheduler (which
    routes by label to per-ticket event logs).  Run it on a daemon thread;
    enqueue ``None`` to stop it.
    """
    while True:
        item = queue.get()
        if item is None:
            return
        label, event = item
        try:
            route(label, event)
        except Exception:
            # A broken observer must not kill the drainer (and with it
            # every subsequent event of the batch).
            pass


def worker_engine(spec: dict[str, Any]) -> LinxEngine:
    """This worker process's warm engine for *spec* (rebuilt on spec change)."""
    global _worker_engine, _worker_spec
    if _worker_engine is None or spec != _worker_spec:
        _worker_engine = LinxEngine(
            cdrl_config=spec["cdrl_config"],
            max_cache_entries=spec["max_cache_entries"],
            max_cached_rows=spec["max_cached_rows"],
            disk_cache_path=spec["disk_cache_path"],
            disk_cache_shards=spec.get("disk_cache_shards", 1),
            stages=spec.get("stages") or None,
            policy_registry_path=spec.get("policy_registry_path"),
        )
        _worker_spec = spec
    return _worker_engine


def _process_worker(
    request_payload: dict[str, Any],
    spec: dict[str, Any],
    label: str = "",
    progress_queue: Any = None,
    timeout: float | None = None,
    cancel_path: str | None = None,
) -> dict[str, Any]:
    """Process one serialized request in a pool worker; returns the result dict.

    The worker materialises a :class:`LinxEngine` from the parent's
    declarative *spec* on first use (or when the spec changes) and keeps it
    warm: the few-shot bank, the in-memory cache tier and — when a
    ``disk_cache_path`` is configured — the shared persistent tier all
    survive across the worker's tasks.  With a *progress_queue*, every
    engine event is streamed to the parent as a ``(label, event)`` pair;
    *timeout* bounds this request cooperatively (the deadline starts when
    the worker picks the request up, not when it was queued).  With a
    *cancel_path*, the worker polls that sentinel file at its cooperative
    checkpoints — the cross-process half of the cancellation registry: the
    parent's ``cancel()`` touches the file, this request stops at its next
    stage boundary or episode tick.
    """
    engine = worker_engine(spec)
    observer = None
    if progress_queue is not None:
        observer = lambda event: progress_queue.put((label, event))  # noqa: E731
    cancel_event = FileCancelEvent(cancel_path) if cancel_path else None
    result = engine.explore(
        ExploreRequest.from_dict(request_payload),
        observer=observer,
        timeout=timeout,
        cancel_event=cancel_event,
        _label=label,
    )
    return result.to_dict()
