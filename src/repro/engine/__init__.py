"""Service-oriented LINX engine API.

The public entry point for programmatic and served use:

* :class:`LinxEngine` — long-lived engine with pluggable stages, a shared
  execution cache and a lazily-built few-shot bank; what it is (CDRL
  configuration, stage and LLM-client names, policy registry) is one frozen
  :class:`EngineSpec`, the store namespace and the process workers' recipe,
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
from .core import PERMISSIVE_LDX, EngineSpec, LinxEngine
from .errors import (
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
    ProgressEvent,
)
from .registry import (
    KIND_SESSION_GENERATOR,
    STAGE_KINDS,
    STAGE_REGISTRY,
    StageContext,
    StageRegistry,
    register_stage_factory,
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
    ExploreResult,
)
from .scheduler import (
    TICKET_CANCELLED,
    TICKET_DONE,
    TICKET_FAILED,
    RequestScheduler,
)
from .stages import AtenaSessionGenerator, SessionOutcome
from .store import ResultStore

__all__ = [
    "AtenaSessionGenerator",
    "EVENT_EPISODE",
    "EVENT_REQUEST_CANCELLED",
    "EVENT_REQUEST_FAILED",
    "EVENT_REQUEST_FINISHED",
    "EVENT_REQUEST_STARTED",
    "EVENT_STAGE_FINISHED",
    "EVENT_STAGE_SKIPPED",
    "EVENT_STAGE_STARTED",
    "EngineSpec",
    "ExploreRequest",
    "ExploreResult",
    "FieldError",
    "InferenceBatcher",
    "KIND_SESSION_GENERATOR",
    "LinxEngine",
    "PERMISSIVE_LDX",
    "ProgressEvent",
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
    "STAGE_ORDER",
    "STAGE_REGISTRY",
    "STAGE_RENDER",
    "STATUS_CANCELLED",
    "STATUS_COMPLETE",
    "STATUS_FAILED",
    "STATUS_SKIPPED",
    "SchedulerDrainingError",
    "SchedulerFullError",
    "SessionOutcome",
    "StageContext",
    "StageFailedError",
    "StageRegistry",
    "TICKET_CANCELLED",
    "TICKET_DONE",
    "TICKET_FAILED",
    "register_stage_factory",
]
