"""Progress events emitted while the engine processes a request.

Observers receive one :class:`ProgressEvent` per lifecycle transition:
``request_started`` / ``request_finished`` bracket the whole request, each
pipeline stage emits ``stage_started`` / ``stage_finished`` (or
``stage_skipped``), and the session-generation stage additionally streams
``episode`` ticks so long CDRL trainings can drive progress bars.

Events are plain frozen dataclasses; the observer is a simple callable so
anything from ``list.append`` to a websocket push works.  An observer
shared by concurrent requests (for example on the worker threads of a
:class:`~repro.engine.scheduler.RequestScheduler`) may be invoked
concurrently — events of *different* requests interleave, but events of
one request are always in order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

EVENT_REQUEST_STARTED = "request_started"
EVENT_REQUEST_FINISHED = "request_finished"
EVENT_STAGE_STARTED = "stage_started"
EVENT_STAGE_FINISHED = "stage_finished"
EVENT_STAGE_SKIPPED = "stage_skipped"
EVENT_EPISODE = "episode"
#: Terminal lifecycle events synthesized by the scheduler: the engine never
#: emits these itself (a failing/cancelled request raises out of
#: ``explore()``), but event-stream consumers still need a closing event.
EVENT_REQUEST_FAILED = "request_failed"
EVENT_REQUEST_CANCELLED = "request_cancelled"

#: Event kinds that end a request's event stream.
TERMINAL_EVENTS = frozenset(
    {EVENT_REQUEST_FINISHED, EVENT_REQUEST_FAILED, EVENT_REQUEST_CANCELLED}
)


@dataclass(frozen=True)
class ProgressEvent:
    """One progress notification for one request."""

    request_id: str
    kind: str
    stage: str = ""
    payload: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        stage = f" {self.stage}" if self.stage else ""
        return f"[{self.request_id}] {self.kind}{stage}"


def event_to_dict(event: ProgressEvent) -> dict[str, Any]:
    """JSON-native rendering of one event (the SSE ``data:`` payload)."""
    return {
        "request_id": event.request_id,
        "kind": event.kind,
        "stage": event.stage,
        "payload": dict(event.payload),
    }


def event_from_dict(payload: Mapping[str, Any]) -> ProgressEvent:
    """Rebuild an event from :func:`event_to_dict` output."""
    return ProgressEvent(
        request_id=payload["request_id"],
        kind=payload["kind"],
        stage=payload.get("stage", ""),
        payload=dict(payload.get("payload", {})),
    )


#: Observer callback signature: receives every event, returns nothing.
ProgressObserver = Callable[[ProgressEvent], None]
