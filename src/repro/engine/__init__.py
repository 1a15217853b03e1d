"""Service-oriented LINX engine API.

The public entry point for programmatic and served use:

* :class:`LinxEngine` — long-lived engine with pluggable stages, a shared
  execution cache and a lazily-built few-shot bank,
* :class:`ExploreRequest` / :class:`ExploreResult` — declarative,
  JSON-serializable request/response pair (schema-versioned),
* :mod:`repro.engine.stages` — the stage-plugin protocols and the default /
  baseline implementations,
* :mod:`repro.engine.registry` — the name-based stage registry behind
  declarative stage selection (``stages={"session_generator": "atena"}``),
* :class:`ProgressEvent` — per-request progress notifications,
* the serving tier: :class:`RequestScheduler` (bounded queue, lifecycle
  states, dedup by canonical request hash), :class:`ResultStore`
  (persistent idempotent results) and :mod:`repro.engine.server` (asyncio
  HTTP front-end with SSE progress).

Quickstart::

    from repro.engine import ExploreRequest, LinxEngine

    engine = LinxEngine()
    result = engine.explore(ExploreRequest(
        goal="Find a country with different viewing habits than the rest of the world",
        dataset="netflix", num_rows=800))
    print(result.notebook_markdown)

Served (see ``examples/serve.py`` and ``python -m repro.engine.server``)::

    from repro.engine import LinxEngine, RequestScheduler, ResultStore

    scheduler = RequestScheduler(LinxEngine(), store=ResultStore("results.sqlite"))
    ticket = scheduler.submit(ExploreRequest(goal="...", dataset="netflix"))
    scheduler.wait(ticket.ticket_id)
"""

from .batcher import InferenceBatcher
from .core import (
    DEFAULT_ENGINE_MAX_CACHED_ROWS,
    PERMISSIVE_LDX,
    STAGE_KIND_ATTRS,
    LinxEngine,
)
from .errors import (
    EngineError,
    FieldError,
    RequestCancelledError,
    RequestTimeoutError,
    RequestValidationError,
    SchedulerDrainingError,
    SchedulerFullError,
    StageFailedError,
)
from .events import (
    EVENT_EPISODE,
    EVENT_REQUEST_CANCELLED,
    EVENT_REQUEST_FAILED,
    EVENT_REQUEST_FINISHED,
    EVENT_REQUEST_STARTED,
    EVENT_STAGE_FINISHED,
    EVENT_STAGE_SKIPPED,
    EVENT_STAGE_STARTED,
    TERMINAL_EVENTS,
    ProgressEvent,
    ProgressObserver,
    event_from_dict,
    event_to_dict,
)
from .registry import (
    DEFAULT_STAGE_NAMES,
    KIND_INSIGHT_EXTRACTOR,
    KIND_NOTEBOOK_RENDERER,
    KIND_SESSION_GENERATOR,
    KIND_SPEC_DERIVER,
    STAGE_KINDS,
    STAGE_REGISTRY,
    StageContext,
    StageRegistry,
    register_stage_factory,
)
from .request import (
    REQUEST_SCHEMA_VERSION,
    SUPPORTED_REQUEST_VERSIONS,
    ExploreRequest,
)
from .result import (
    RESULT_SCHEMA_VERSION,
    RESULT_SEMANTICS_VERSION,
    STAGE_DERIVE,
    STAGE_GENERATE,
    STAGE_INSIGHTS,
    STAGE_ORDER,
    STAGE_RENDER,
    STATUS_CANCELLED,
    STATUS_COMPLETE,
    STATUS_FAILED,
    STATUS_PENDING,
    STATUS_SKIPPED,
    SUPPORTED_RESULT_VERSIONS,
    EngineArtifacts,
    ExploreResult,
    StageStatus,
)
from .scheduler import (
    ACTIVE_STATES,
    TERMINAL_STATES,
    TICKET_CANCELLED,
    TICKET_DONE,
    TICKET_FAILED,
    TICKET_QUEUED,
    TICKET_RUNNING,
    RequestScheduler,
    Ticket,
)
from .stages import (
    AtenaSessionGenerator,
    CdrlSessionGenerator,
    ChainedSpecDeriver,
    DefaultInsightExtractor,
    InsightExtractor,
    MarkdownNotebookRenderer,
    NotebookRenderer,
    SessionGenerator,
    SessionOutcome,
    SpecDerivation,
    SpecDeriver,
)
from .store import STORE_SCHEMA_VERSION, ResultStore

__all__ = [
    "ACTIVE_STATES",
    "AtenaSessionGenerator",
    "CdrlSessionGenerator",
    "ChainedSpecDeriver",
    "DEFAULT_ENGINE_MAX_CACHED_ROWS",
    "DEFAULT_STAGE_NAMES",
    "DefaultInsightExtractor",
    "EVENT_EPISODE",
    "EVENT_REQUEST_CANCELLED",
    "EVENT_REQUEST_FAILED",
    "EVENT_REQUEST_FINISHED",
    "EVENT_REQUEST_STARTED",
    "EVENT_STAGE_FINISHED",
    "EVENT_STAGE_SKIPPED",
    "EVENT_STAGE_STARTED",
    "EngineArtifacts",
    "EngineError",
    "ExploreRequest",
    "ExploreResult",
    "FieldError",
    "InferenceBatcher",
    "InsightExtractor",
    "KIND_INSIGHT_EXTRACTOR",
    "KIND_NOTEBOOK_RENDERER",
    "KIND_SESSION_GENERATOR",
    "KIND_SPEC_DERIVER",
    "LinxEngine",
    "MarkdownNotebookRenderer",
    "NotebookRenderer",
    "PERMISSIVE_LDX",
    "ProgressEvent",
    "ProgressObserver",
    "REQUEST_SCHEMA_VERSION",
    "RESULT_SCHEMA_VERSION",
    "RESULT_SEMANTICS_VERSION",
    "RequestCancelledError",
    "RequestScheduler",
    "RequestTimeoutError",
    "RequestValidationError",
    "ResultStore",
    "STAGE_DERIVE",
    "STAGE_GENERATE",
    "STAGE_INSIGHTS",
    "STAGE_KINDS",
    "STAGE_KIND_ATTRS",
    "STAGE_ORDER",
    "STAGE_REGISTRY",
    "STAGE_RENDER",
    "STATUS_CANCELLED",
    "STATUS_COMPLETE",
    "STATUS_FAILED",
    "STATUS_PENDING",
    "STATUS_SKIPPED",
    "STORE_SCHEMA_VERSION",
    "SUPPORTED_REQUEST_VERSIONS",
    "SUPPORTED_RESULT_VERSIONS",
    "SchedulerDrainingError",
    "SchedulerFullError",
    "SessionGenerator",
    "SessionOutcome",
    "SpecDerivation",
    "SpecDeriver",
    "StageContext",
    "StageFailedError",
    "StageRegistry",
    "StageStatus",
    "TERMINAL_EVENTS",
    "TERMINAL_STATES",
    "TICKET_CANCELLED",
    "TICKET_DONE",
    "TICKET_FAILED",
    "TICKET_QUEUED",
    "TICKET_RUNNING",
    "Ticket",
    "event_from_dict",
    "event_to_dict",
    "register_stage_factory",
]
