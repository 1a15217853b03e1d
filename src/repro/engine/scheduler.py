"""The request scheduler: a bounded queue between callers and the engine.

A :class:`RequestScheduler` turns the in-process :class:`LinxEngine` into a
serving component.  Callers :meth:`~RequestScheduler.submit` declarative
requests and get back a **ticket**; worker threads drain the bounded queue
and drive each request through the engine, recording every
:class:`~repro.engine.events.ProgressEvent` on its ticket so event streams
(SSE, websockets, polling) replay and follow live.  Each ticket moves
through one lifecycle::

    queued ──> running ──> done
                   │  └──> failed
                   └─────> cancelled        (queued tickets cancel directly)

Three serving behaviours live here rather than in the engine:

* **Back-pressure** — at most ``max_pending`` tickets may be queued or
  running; past that, :meth:`submit` raises
  :class:`~repro.engine.errors.SchedulerFullError` (HTTP 429 upstream).
* **Deduplication** — a request whose
  :meth:`~repro.engine.request.ExploreRequest.canonical_hash` matches a
  live ticket joins that ticket instead of enqueueing duplicate work, and a
  hash already in the :class:`~repro.engine.store.ResultStore` is served
  from disk without executing at all (idempotent resubmission).
* **Timeout / cancellation** — per-ticket deadlines and
  :meth:`~RequestScheduler.cancel` ride the engine's cooperative
  checkpoints; a cancelled request yields a ``cancelled`` ticket and never
  touches the store.

The scheduler is the engine's one entry point for many requests at once.
Execution is pluggable: ``workers="thread"`` runs requests on the
scheduler's own threads over the engine's shared cache;
``workers="process"`` sends each request to a persistent process pool
whose workers (:func:`_process_worker`) rebuild the engine once from
:meth:`~repro.engine.core.LinxEngine.worker_spec` and keep it warm, with
worker events streamed back over a multiprocessing queue and routed to
tickets by a drainer thread.  CDRL training is GIL-bound, so threads
mostly interleave while processes use more cores; process results come
back as JSON round-trips without live ``artifacts``.

**Multi-replica coordination.**  When several schedulers (in separate
processes, on separate servers) share one :class:`ResultStore` file, the
store's lease table makes execution exactly-once: before running a
request, a worker **claims** ``(namespace, canonical_hash)`` — a
single-transaction compare-and-claim — and a request whose hash another
replica holds waits for that replica's result instead of duplicating the
work.  A heartbeat thread renews held leases; a replica that crashes
stops renewing, its leases expire, and the next replica to ask *takes
over* and re-executes.  Cancellation reaches process-pool workers through
sentinel files under a shared directory (the cross-process cancellation
registry), and :meth:`~RequestScheduler.drain` implements graceful
SIGTERM shutdown: stop accepting (503 upstream), finish or release
in-flight leases, flush the write-behind cache.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import time
import traceback
import uuid
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from repro.reliability import SITE_HEARTBEAT, FileCancelEvent, fault_point

from .core import LinxEngine
from .errors import (
    RequestCancelledError,
    RequestTimeoutError,
    SchedulerDrainingError,
    SchedulerFullError,
)
from .events import (
    EVENT_REQUEST_CANCELLED,
    EVENT_REQUEST_FAILED,
    EVENT_REQUEST_FINISHED,
    EVENT_REQUEST_STARTED,
    TERMINAL_EVENTS,
    ProgressEvent,
)
from .request import ExploreRequest
from .result import ExploreResult
from .store import ResultStore

#: Ticket lifecycle states.
TICKET_QUEUED = "queued"
TICKET_RUNNING = "running"
TICKET_DONE = "done"
TICKET_FAILED = "failed"
TICKET_CANCELLED = "cancelled"

#: States in which a ticket consumes queue capacity.
ACTIVE_STATES = frozenset({TICKET_QUEUED, TICKET_RUNNING})
#: States a ticket can no longer leave.
TERMINAL_STATES = frozenset({TICKET_DONE, TICKET_FAILED, TICKET_CANCELLED})


@dataclass
class Ticket:
    """One scheduled request and everything observed about it."""

    ticket_id: str
    request: ExploreRequest
    request_hash: str
    state: str = TICKET_QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    timeout: Optional[float] = None
    #: True when this submit joined an already-live identical request.
    deduplicated: bool = False
    #: True when the result came from the store without executing.
    served_from_store: bool = False
    error: str = ""
    error_kind: str = ""
    events: list[ProgressEvent] = field(default_factory=list)
    result_payload: Optional[dict[str, Any]] = None
    #: The serialized wire-format result, when it exists in that form —
    #: stored results (read raw off disk) and freshly committed ones (the
    #: text that was just written).  Serving splices this into responses
    #: without a parse/re-dump round-trip; ``result_payload`` is parsed
    #: from it lazily on first dict access.
    result_text: Optional[str] = None
    cancel_event: threading.Event = field(default_factory=threading.Event)
    #: Point-in-time :meth:`snapshot` taken under the scheduler lock when the
    #: submission was accepted.  The server's POST response uses this instead
    #: of re-reading the live state, which a fast worker may already have
    #: advanced (a fresh submission must report "queued", not race to "done").
    submit_snapshot: dict[str, Any] = field(default_factory=dict)

    def snapshot(self) -> dict[str, Any]:
        """A JSON-native status view (the server's ``/requests/<id>`` body)."""
        return {
            "ticket": self.ticket_id,
            "request_id": self.request.request_id,
            "request_hash": self.request_hash,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "timeout": self.timeout,
            "deduplicated": self.deduplicated,
            "served_from_store": self.served_from_store,
            "error": self.error,
            "error_kind": self.error_kind,
            "events_seen": len(self.events),
        }


class RequestScheduler:
    """Bounded-queue request execution over a :class:`LinxEngine`.

    Parameters
    ----------
    engine:
        The engine that executes requests.
    store:
        Optional persistent :class:`ResultStore`: completed results are
        written under their canonical request hash (namespaced by the
        engine's :meth:`~repro.engine.core.LinxEngine.config_fingerprint`,
        so differently-configured engines sharing one store file never
        serve each other's results), and submits whose key is already
        stored are served from disk without executing.
    max_pending:
        Queue bound — the maximum number of tickets queued or running at
        once.  :meth:`submit` raises :class:`SchedulerFullError` beyond it.
    max_workers:
        Worker threads draining the queue (= concurrently running
        requests).
    workers:
        ``"thread"`` (default) executes on the scheduler's threads over the
        engine's shared in-memory cache; ``"process"`` fans each request to
        a process pool (declaratively-configured engines only) with worker
        events streamed back to the tickets.
    default_timeout:
        Per-request timeout (seconds) applied when :meth:`submit` gets
        none.  ``None`` means no deadline.
    max_terminal_tickets:
        Retention bound for finished tickets.  Terminal tickets beyond the
        newest *max_terminal_tickets* are dropped entirely (their ids then
        report 404); without a bound, a long-running server's ticket table
        grows forever.
    terminal_events_keep:
        How many of the newest terminal tickets keep their full event logs.
        Older terminal tickets are truncated to just their terminal event
        *before* any ticket is dropped — events dominate a ticket's
        footprint (one per training episode), so truncation reclaims most
        of the memory while status lookups keep working.
    replica_id:
        This scheduler's identity in the store's lease table.  Defaults to
        a per-process unique id; a multi-replica deployment assigns stable
        names.
    lease_ttl:
        Seconds a claimed lease stays valid without renewal.  The
        heartbeat renews at ``lease_ttl / 3``, so a healthy replica never
        loses a lease; a crashed one loses them after *lease_ttl* and a
        sibling takes over.
    heartbeat_interval:
        Override the heartbeat period (defaults to ``lease_ttl / 3``).
    cancel_dir:
        Directory of the cross-process cancellation sentinels (defaults to
        ``<store dir>/cancel``, or without a store a temp dir that
        :meth:`shutdown` removes).  Process workers poll their ticket's
        sentinel at engine checkpoints, so :meth:`cancel` reaches requests
        running in the pool.
    execution_journal:
        Optional append-only JSON-lines file recording every ``execute``
        (lease claimed, work starting) and ``commit`` (result stored)
        with the replica id — exactly-once evidence for a cluster.

    The scheduler starts its workers immediately; use it as a context
    manager or call :meth:`shutdown` to stop them.
    """

    def __init__(
        self,
        engine: LinxEngine,
        *,
        store: ResultStore | None = None,
        max_pending: int = 64,
        max_workers: int = 2,
        workers: str = "thread",
        default_timeout: float | None = None,
        max_terminal_tickets: int = 512,
        terminal_events_keep: int = 64,
        replica_id: str | None = None,
        lease_ttl: float = 30.0,
        heartbeat_interval: float | None = None,
        cancel_dir: str | Path | None = None,
        execution_journal: str | Path | None = None,
    ):
        if workers not in ("thread", "process"):
            raise ValueError(f"workers must be 'thread' or 'process', got {workers!r}")
        if max_pending < 1:
            raise ValueError("max_pending must be positive")
        if max_workers < 1:
            raise ValueError("max_workers must be positive")
        if max_terminal_tickets < 1:
            raise ValueError("max_terminal_tickets must be positive")
        if terminal_events_keep < 0:
            raise ValueError("terminal_events_keep must be >= 0")
        if workers == "process" and engine._custom_stages:
            raise ValueError(
                "workers='process' requires a declaratively-configured engine "
                "(default or registry-named stages, default LLM client and cache)"
            )
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        self.engine = engine
        self.store = store
        self.replica_id = (
            replica_id
            if replica_id is not None
            else f"replica-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        )
        self.lease_ttl = lease_ttl
        self.heartbeat_interval = (
            heartbeat_interval if heartbeat_interval is not None else lease_ttl / 3.0
        )
        if cancel_dir is not None:
            self._cancel_dir = Path(cancel_dir)
        elif store is not None:
            self._cancel_dir = store.path.parent / "cancel"
        else:
            self._cancel_dir = None  # a temp dir, made on the first process request
        #: Whether :meth:`_cancel_path` made ``_cancel_dir`` (and so
        #: :meth:`shutdown` removes it).
        self._owns_cancel_dir = False
        self._journal_path = (
            Path(execution_journal) if execution_journal is not None else None
        )
        # Store rows are namespaced by the engine's declarative config
        # digest: a store file shared by differently-configured servers
        # (episode budgets, engine-level stage selection) never serves one
        # configuration's results for another's requests.
        self._store_namespace = engine.config_fingerprint()
        self.max_pending = max_pending
        self.workers = workers
        self.default_timeout = default_timeout
        self.max_terminal_tickets = max_terminal_tickets
        self.terminal_events_keep = terminal_events_keep
        #: GC telemetry, surfaced in :meth:`describe` (and hence ``/stats``).
        self.gc_dropped_tickets = 0
        self.gc_truncated_events = 0
        #: Fault-tolerance telemetry.
        self.lease_waits = 0
        self.lease_renewals = 0
        self.worker_respawns = 0
        self._lock = threading.RLock()
        self._condition = threading.Condition(self._lock)
        self._queue: deque[str] = deque()
        self._tickets: dict[str, Ticket] = {}
        self._live_by_hash: dict[str, str] = {}
        #: Request hashes whose execution lease this replica currently holds.
        self._held_leases: set[str] = set()
        self._ticket_counter = 0
        self._shutdown = False
        self._draining = False
        self._pool = None
        self._manager = None
        self._progress_queue = None
        self._drainer: Optional[threading.Thread] = None
        if workers == "process":
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=max_workers)
            self._manager = multiprocessing.Manager()
            self._progress_queue = self._manager.Queue()
            self._drainer = threading.Thread(
                target=drain_progress_queue,
                args=(self._progress_queue, self._route_event),
                daemon=True,
            )
            self._drainer.start()
        self._threads = [
            threading.Thread(target=self._worker_main, daemon=True, name=f"linx-sched-{i}")
            for i in range(max_workers)
        ]
        for thread in self._threads:
            thread.start()
        # The lease heartbeat: renews everything this replica holds so a
        # healthy replica never loses a lease mid-execution.  Only started
        # with a store — without one there is nothing to coordinate.
        self._heartbeat_stop = threading.Event()
        self._heartbeat: Optional[threading.Thread] = None
        if store is not None:
            self._heartbeat = threading.Thread(
                target=self._heartbeat_loop, daemon=True, name="linx-sched-heartbeat"
            )
            self._heartbeat.start()

    # -- submission --------------------------------------------------------------------
    def submit(
        self, request: ExploreRequest, *, timeout: float | None = None
    ) -> Ticket:
        """Queue *request*; returns its (possibly pre-existing) ticket.

        Validation happens up front (raising
        :class:`~repro.engine.errors.RequestValidationError` before a ticket
        exists).  Identical live requests are joined, stored results are
        served immediately, and a full queue raises
        :class:`SchedulerFullError`.

        A join keeps the *original* ticket's deadline — the work is shared,
        so a joining caller's ``timeout`` cannot shorten it (check the
        returned ticket's ``timeout``/``deduplicated`` fields and
        :meth:`cancel` explicitly if a bounded wait matters).
        """
        request.validate()
        request_hash = request.canonical_hash()
        # Join a live identical ticket before touching the store: a burst
        # of identical resubmissions must cost one dict lookup, not one
        # sqlite read each.
        with self._condition:
            if self._shutdown:
                raise RuntimeError("scheduler is shut down")
            if self._draining:
                raise SchedulerDrainingError(self.replica_id)
            ticket = self._live_ticket(request_hash)
            if ticket is not None:
                ticket.deduplicated = True
                ticket.submit_snapshot = ticket.snapshot()
                return ticket
        # The store lookup (a pooled sqlite read of the raw result text —
        # never parsed on this path) happens *outside* the scheduler lock
        # so a burst of submits never stalls running requests' event
        # recording.  The races this opens —
        # an identical request enqueued, or completing and writing the
        # store, between these two critical sections — are benign: the
        # dedup re-check below catches the former, and _execute's own
        # store re-check catches the latter.
        stored = (
            self.store.get_payload_text(self._store_namespace, request_hash)
            if self.store is not None
            else None
        )
        with self._condition:
            if self._shutdown:
                raise RuntimeError("scheduler is shut down")
            if self._draining:
                raise SchedulerDrainingError(self.replica_id)
            ticket = self._live_ticket(request_hash)
            if ticket is not None:
                ticket.deduplicated = True
                ticket.submit_snapshot = ticket.snapshot()
                return ticket
            ticket = self._new_ticket(request, request_hash, timeout)
            if stored is not None:
                self._finish_from_store(ticket, stored)
                self._tickets[ticket.ticket_id] = ticket
                ticket.submit_snapshot = ticket.snapshot()
                return ticket
            active = sum(
                1 for t in self._tickets.values() if t.state in ACTIVE_STATES
            )
            if active >= self.max_pending:
                raise SchedulerFullError(active, self.max_pending)
            self._tickets[ticket.ticket_id] = ticket
            self._live_by_hash[request_hash] = ticket.ticket_id
            self._queue.append(ticket.ticket_id)
            ticket.submit_snapshot = ticket.snapshot()
            self._condition.notify_all()
            return ticket

    def _live_ticket(self, request_hash: str) -> Optional[Ticket]:
        """The ACTIVE ticket for *request_hash*, if any (caller holds the lock).

        Defensive against stale ``_live_by_hash`` entries: a hash whose
        ticket turned terminal — or was dropped entirely by the
        terminal-ticket GC — is *not* live; the mapping is pruned and the
        caller falls through to the result store instead of crashing on a
        missing ticket or re-executing a stored result.
        """
        live = self._live_by_hash.get(request_hash)
        if live is None:
            return None
        ticket = self._tickets.get(live)
        if ticket is None or ticket.state not in ACTIVE_STATES:
            self._live_by_hash.pop(request_hash, None)
            return None
        return ticket

    def _new_ticket(
        self, request: ExploreRequest, request_hash: str, timeout: float | None
    ) -> Ticket:
        self._ticket_counter += 1
        return Ticket(
            ticket_id=f"t-{self._ticket_counter}",
            request=request,
            request_hash=request_hash,
            timeout=timeout if timeout is not None else self.default_timeout,
        )

    def _finish_from_store(self, ticket: Ticket, payload_text: str) -> None:
        """Complete *ticket* directly from stored payload text (no execution).

        The raw JSON text is kept as-is: the serving layer splices it into
        responses untouched, and the dict form is only materialised if a
        caller actually asks for :meth:`result_payload`.
        """
        now = time.time()
        ticket.state = TICKET_DONE
        ticket.served_from_store = True
        ticket.started_at = now
        ticket.finished_at = now
        ticket.result_text = payload_text
        label = ticket.request.request_id or ticket.ticket_id
        ticket.events.append(
            ProgressEvent(label, EVENT_REQUEST_STARTED, "", {"served_from_store": True})
        )
        ticket.events.append(
            ProgressEvent(label, EVENT_REQUEST_FINISHED, "", {"served_from_store": True})
        )
        self._gc_terminal()
        self._condition.notify_all()

    # -- inspection --------------------------------------------------------------------
    def ticket(self, ticket_id: str) -> Ticket:
        """The ticket under *ticket_id* (KeyError when unknown)."""
        with self._lock:
            return self._tickets[ticket_id]

    def status(self, ticket_id: str) -> dict[str, Any]:
        """The JSON-native status snapshot of *ticket_id*."""
        with self._lock:
            return self._tickets[ticket_id].snapshot()

    def result_payload(self, ticket_id: str) -> Optional[dict[str, Any]]:
        """The serialized result of a ``done`` ticket, else ``None``.

        Store-served tickets carry only the raw JSON text; the dict form
        is parsed (and cached on the ticket) on first access here, so
        callers that never need it — the raw-splicing result endpoint —
        never pay for the parse.
        """
        with self._lock:
            ticket = self._tickets[ticket_id]
            if ticket.result_payload is None and ticket.result_text is not None:
                ticket.result_payload = json.loads(ticket.result_text)
            return ticket.result_payload

    def result_text(self, ticket_id: str) -> Optional[str]:
        """The result of a ``done`` ticket as wire-format JSON text, else ``None``.

        The zero-parse serving path: stored and freshly committed results
        already exist in this form and are returned as-is; a result that
        only exists as a dict (no store configured) is serialized once and
        cached on the ticket.
        """
        with self._lock:
            ticket = self._tickets[ticket_id]
            if ticket.result_text is None and ticket.result_payload is not None:
                ticket.result_text = json.dumps(ticket.result_payload)
            return ticket.result_text

    def wait(self, ticket_id: str, timeout: float | None = None) -> dict[str, Any]:
        """Block until *ticket_id* reaches a terminal state; returns its snapshot.

        Raises :class:`TimeoutError` if the ticket is still live after
        *timeout* seconds.
        """
        deadline = time.monotonic() + timeout if timeout is not None else None
        with self._condition:
            while True:
                ticket = self._tickets[ticket_id]
                if ticket.state in TERMINAL_STATES:
                    return ticket.snapshot()
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError(
                            f"ticket {ticket_id} still {ticket.state} after {timeout}s"
                        )
                self._condition.wait(timeout=remaining)

    def events_since(
        self, ticket_id: str, cursor: int = 0, timeout: float | None = None
    ) -> tuple[list[ProgressEvent], int, bool]:
        """Events of *ticket_id* from *cursor* on, blocking up to *timeout*.

        Returns ``(events, next_cursor, done)``: *done* is True once the
        ticket is terminal **and** every event has been delivered — the
        signal for an SSE handler to close the stream.  With no new events
        before *timeout*, returns ``([], cursor, done)`` (a heartbeat
        opportunity).
        """
        deadline = time.monotonic() + timeout if timeout is not None else None
        with self._condition:
            while True:
                ticket = self._tickets[ticket_id]
                if len(ticket.events) > cursor:
                    events = list(ticket.events[cursor:])
                    next_cursor = len(ticket.events)
                    done = ticket.state in TERMINAL_STATES
                    return events, next_cursor, done
                if ticket.state in TERMINAL_STATES:
                    return [], cursor, True
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return [], cursor, False
                self._condition.wait(timeout=remaining)

    def retry_after_hint(self) -> int:
        """Suggested ``Retry-After`` seconds when the scheduler is full.

        A coarse estimate — one second of drain time per queued ticket per
        worker thread, floored at one second — good enough for polite
        clients to back off without a feedback loop of instant retries.
        """
        with self._lock:
            depth = len(self._queue)
            workers = max(1, len(self._threads))
        return max(1, -(-depth // workers))

    def describe(self) -> dict[str, Any]:
        """Aggregate scheduler telemetry (the server's ``/stats`` section)."""
        batcher = getattr(self.engine, "batcher", None)
        with self._lock:
            states: dict[str, int] = {}
            for ticket in self._tickets.values():
                states[ticket.state] = states.get(ticket.state, 0) + 1
            return {
                "workers": self.workers,
                "max_pending": self.max_pending,
                "queued": len(self._queue),
                "queue_depth": len(self._queue),
                "batching": batcher.describe() if batcher is not None else None,
                "tickets": len(self._tickets),
                "states": states,
                "default_timeout": self.default_timeout,
                "shutdown": self._shutdown,
                "replica_id": self.replica_id,
                "draining": self._draining,
                "worker_respawns": self.worker_respawns,
                "leases": {
                    "held": len(self._held_leases),
                    "ttl": self.lease_ttl,
                    "waits": self.lease_waits,
                    "renewals": self.lease_renewals,
                    "store": (
                        self.store.describe()["leases"]
                        if self.store is not None
                        else None
                    ),
                },
                "terminal_retention": {
                    "max_terminal_tickets": self.max_terminal_tickets,
                    "terminal_events_keep": self.terminal_events_keep,
                },
                "gc": {
                    "dropped_tickets": self.gc_dropped_tickets,
                    "truncated_events": self.gc_truncated_events,
                },
            }

    # -- cancellation ------------------------------------------------------------------
    def _cancel_path(self, ticket: Ticket) -> Path:
        """The sentinel file of *ticket* in the shared cancellation registry."""
        if self._cancel_dir is None:
            # No store to anchor the registry: a per-scheduler temp dir.
            self._cancel_dir = Path(tempfile.mkdtemp(prefix="linx-cancel-"))
            self._owns_cancel_dir = True
        return self._cancel_dir / f"{self.replica_id}-{ticket.ticket_id}.cancel"

    def cancel(self, ticket_id: str) -> bool:
        """Request cancellation of *ticket_id*; True when it will take effect.

        Queued tickets cancel immediately.  Running tickets cancel
        cooperatively at the engine's next checkpoint — in process mode the
        request is reached through its sentinel file in the shared
        cancellation registry, which the worker process polls at the same
        checkpoints.  Terminal tickets report False.
        """
        with self._condition:
            ticket = self._tickets[ticket_id]
            if ticket.state == TICKET_QUEUED:
                self._finalise(ticket, TICKET_CANCELLED, "cancelled before start", "RequestCancelledError")
                return True
            if ticket.state == TICKET_RUNNING:
                ticket.cancel_event.set()
                if self.workers == "process":
                    path = self._cancel_path(ticket)
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.touch()
                return True
            return False

    # -- execution ---------------------------------------------------------------------
    def _worker_main(self) -> None:
        """Run :meth:`_worker_loop`, respawning it if it ever escapes.

        The loop already converts per-ticket failures into ``failed``
        tickets; this wrapper is the backstop for bugs in the loop's own
        bookkeeping — without it, one escaped exception silently shrinks
        the worker pool forever.
        """
        while True:
            try:
                self._worker_loop()
                return  # clean exit: shutdown drained the loop
            except Exception:  # noqa: BLE001 — the pool must survive anything
                with self._condition:
                    if self._shutdown:
                        return
                    self.worker_respawns += 1

    def _worker_loop(self) -> None:
        while True:
            with self._condition:
                while not self._queue and not self._shutdown:
                    self._condition.wait()
                if self._shutdown and not self._queue:
                    return
                # A queued id may point at a ticket that was cancelled (and
                # possibly even GC-dropped) while waiting its turn.
                ticket = self._tickets.get(self._queue.popleft())
                if ticket is None or ticket.state != TICKET_QUEUED:
                    continue
                ticket.state = TICKET_RUNNING
                ticket.started_at = time.time()
            try:
                self._execute(ticket)
            except Exception as exc:  # noqa: BLE001 — every failure becomes state
                # _execute handles expected failures itself; anything that
                # still escapes (a store driver bug, an injected crash)
                # must neither kill this worker nor wedge the ticket.  The
                # lease goes first: a waiter that observes the terminal
                # state must find the hash reclaimable immediately.
                self._release_lease(ticket)
                self._finalise(
                    ticket,
                    TICKET_FAILED,
                    f"worker error: {exc}",
                    type(exc).__name__,
                    extra={"traceback": traceback.format_exc()},
                )
            finally:
                self._release_lease(ticket)

    def _acquire(self, ticket: Ticket) -> bool:
        """Claim the execution lease for *ticket*; True when we should execute.

        Returns False when the ticket was completed another way (served
        from a sibling replica's stored result, cancelled, timed out, or
        shut down while waiting).  Without a store there is nothing to
        coordinate and execution proceeds immediately.
        """
        if self.store is None:
            return True
        poll = max(0.05, min(0.5, self.lease_ttl / 5.0))
        first = True
        while True:
            # A sibling replica (or a previous run) may have stored this
            # hash already: serve idempotently, never re-execute.
            payload = self.store.get_payload_text(
                self._store_namespace, ticket.request_hash
            )
            if payload is not None:
                with self._condition:
                    # Drop the live mapping *before* finishing: finishing
                    # runs the terminal-ticket GC, and a mapping that
                    # outlives its ticket would crash later duplicate
                    # submits instead of falling through to the store.
                    self._drop_live(ticket)
                    self._finish_from_store(ticket, payload)
                return False
            if self.store.claim(
                self._store_namespace, ticket.request_hash, self.replica_id,
                self.lease_ttl,
            ):
                with self._lock:
                    self._held_leases.add(ticket.request_hash)
                # The previous holder may have committed — which releases its
                # lease — between the read above and this claim: re-check,
                # and serve its row instead of executing a second time.
                if self.store.get_payload_text(
                    self._store_namespace, ticket.request_hash
                ) is None:
                    self._journal("execute", ticket)
                    return True
                self._release_lease(ticket)
                continue
            # Another replica holds the lease: wait for its result (or its
            # lease to expire) instead of duplicating the execution.
            if first:
                first = False
                self._record_event(
                    ticket,
                    ProgressEvent(
                        ticket.request.request_id or ticket.ticket_id,
                        EVENT_REQUEST_STARTED,
                        "",
                        {"waiting_on_lease": True},
                    ),
                )
            with self._lock:
                self.lease_waits += 1
            if ticket.cancel_event.is_set():
                self._finalise(
                    ticket, TICKET_CANCELLED,
                    "cancelled while waiting on another replica's lease",
                    "RequestCancelledError",
                )
                return False
            if (
                ticket.timeout is not None
                and ticket.started_at is not None
                and time.time() - ticket.started_at > ticket.timeout
            ):
                self._finalise(
                    ticket, TICKET_CANCELLED,
                    str(RequestTimeoutError(ticket.request.request_id, ticket.timeout)),
                    "RequestTimeoutError",
                )
                return False
            with self._condition:
                if self._shutdown:
                    self._finalise(
                        ticket, TICKET_CANCELLED, "scheduler shut down",
                        "RequestCancelledError",
                    )
                    return False
                self._condition.wait(timeout=poll)

    def _release_lease(self, ticket: Ticket) -> None:
        """Release *ticket*'s execution lease if this replica holds it."""
        if self.store is None:
            return
        with self._lock:
            if ticket.request_hash not in self._held_leases:
                return
            self._held_leases.discard(ticket.request_hash)
        try:
            self.store.release(
                self._store_namespace, ticket.request_hash, self.replica_id
            )
        except Exception:  # noqa: BLE001 — release is best-effort; expiry covers us
            pass

    def _journal(self, action: str, ticket: Ticket) -> None:
        """Append an execution-journal line (exactly-once audit evidence)."""
        if self._journal_path is None:
            return
        line = json.dumps(
            {
                "action": action,
                "request_hash": ticket.request_hash,
                "replica": self.replica_id,
                "ticket": ticket.ticket_id,
                "at": time.time(),
            }
        )
        try:
            with open(self._journal_path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
        except OSError:  # pragma: no cover - journal is observability, not control
            pass

    def _execute(self, ticket: Ticket) -> None:
        if not self._acquire(ticket):
            return
        try:
            if self.workers == "thread":
                result = self.engine.explore(
                    ticket.request,
                    observer=lambda event: self._record_event(ticket, event),
                    timeout=ticket.timeout,
                    cancel_event=ticket.cancel_event,
                    _label=ticket.ticket_id,
                )
                payload = result.to_dict()
            else:
                cancel_path = self._cancel_path(ticket)
                if ticket.cancel_event.is_set():
                    # Cancelled between claim and dispatch: plant the
                    # sentinel so the worker stops at its first checkpoint.
                    cancel_path.parent.mkdir(parents=True, exist_ok=True)
                    cancel_path.touch()
                try:
                    future = self._pool.submit(
                        _process_worker,
                        ticket.request.to_dict(),
                        self.engine.worker_spec(),
                        ticket.ticket_id,
                        self._progress_queue,
                        ticket.timeout,
                        str(cancel_path),
                    )
                    payload = future.result()
                finally:
                    try:
                        cancel_path.unlink()
                    except OSError:
                        pass
                result = ExploreResult.from_dict(payload)
                # The worker's events travel asynchronously through the
                # manager queue; wait for its terminal request_finished to
                # be routed before the ticket turns terminal, so an SSE
                # stream never closes with the event tail undelivered.
                self._await_terminal_event(ticket)
        except RequestCancelledError as exc:
            self._release_lease(ticket)
            self._finalise(ticket, TICKET_CANCELLED, str(exc), type(exc).__name__)
            return
        except Exception as exc:  # noqa: BLE001 — every failure becomes a ticket state
            # Release before the terminal snapshot becomes visible: a
            # caller that observes "failed" must be able to resubmit and
            # reclaim the hash without waiting out the lease TTL.
            self._release_lease(ticket)
            self._finalise(ticket, TICKET_FAILED, str(exc), type(exc).__name__)
            return
        payload_text: Optional[str] = None
        if self.store is not None:
            # Serialize once: this text is the store row, the ticket's
            # servable result AND the lease release, in one transaction.
            payload_text = json.dumps(payload)
            try:
                released = self.store.commit_result(
                    self._store_namespace,
                    ticket.request_hash,
                    payload_text,
                    request_id=str(result.request.get("request_id", "")),
                    dataset=result.dataset_name,
                    replica_id=self.replica_id,
                )
            except Exception as exc:  # noqa: BLE001
                self._release_lease(ticket)
                self._finalise(
                    ticket, TICKET_FAILED, f"result store write failed: {exc}",
                    type(exc).__name__,
                )
                return
            if released:
                # The commit transaction already dropped the lease row;
                # deregister so the worker loop's release is a no-op.
                with self._lock:
                    self._held_leases.discard(ticket.request_hash)
            self._journal("commit", ticket)
        with self._condition:
            ticket.state = TICKET_DONE
            ticket.finished_at = time.time()
            ticket.result_payload = payload
            ticket.result_text = payload_text
            self._drop_live(ticket)
            self._gc_terminal()
            self._condition.notify_all()

    def _await_terminal_event(self, ticket: Ticket, timeout: float = 30.0) -> None:
        """Block until a terminal event has been routed onto *ticket*.

        Bounded: if the drainer died or the queue broke, proceed after
        *timeout* rather than wedge the worker thread — consumers then see
        a terminal ticket with a truncated event log, which is the
        degraded-but-safe outcome.
        """
        deadline = time.monotonic() + timeout
        with self._condition:
            while not any(event.kind in TERMINAL_EVENTS for event in ticket.events):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return
                self._condition.wait(timeout=remaining)

    def _finalise(
        self,
        ticket: Ticket,
        state: str,
        error: str,
        error_kind: str,
        extra: Optional[dict[str, Any]] = None,
    ) -> None:
        """Move *ticket* to a non-done terminal state with a closing event.

        *extra* merges additional detail (e.g. a worker traceback) into the
        terminal event's payload.
        """
        kind = (
            EVENT_REQUEST_CANCELLED if state == TICKET_CANCELLED else EVENT_REQUEST_FAILED
        )
        label = ticket.request.request_id or ticket.ticket_id
        payload: dict[str, Any] = {"error": error}
        if extra:
            payload.update(extra)
        with self._condition:
            if ticket.state in TERMINAL_STATES:
                return  # already finalised on another path
            ticket.state = state
            ticket.finished_at = time.time()
            ticket.error = error
            ticket.error_kind = error_kind
            ticket.events.append(ProgressEvent(label, kind, "", payload))
            self._drop_live(ticket)
            self._gc_terminal()
            self._condition.notify_all()

    def _drop_live(self, ticket: Ticket) -> None:
        """Remove *ticket*'s live-hash mapping iff it still owns it.

        A hash can be re-submitted (new ticket) while an older ticket for
        the same hash is finishing on the cancellation path; popping
        unconditionally would orphan the newer live ticket's dedup entry.
        """
        if self._live_by_hash.get(ticket.request_hash) == ticket.ticket_id:
            self._live_by_hash.pop(ticket.request_hash, None)

    def _gc_terminal(self) -> None:
        """Enforce terminal-ticket retention (caller holds the lock).

        Terminal tickets sorted newest-finished-first: everything past the
        ``terminal_events_keep`` newest has its event log truncated to the
        terminal tail, and everything past ``max_terminal_tickets`` is
        dropped from the table.  Only *older* tickets are touched — a
        just-finished ticket's live SSE readers keep their full log, and a
        reader of a truncated ticket sees a clean early close (its cursor
        now points past the shortened log, which ``events_since`` reports
        as done) rather than an error.
        """
        terminal = [
            ticket
            for ticket in self._tickets.values()
            if ticket.state in TERMINAL_STATES
        ]
        if len(terminal) <= min(self.terminal_events_keep, self.max_terminal_tickets):
            return
        terminal.sort(key=lambda ticket: ticket.finished_at or 0.0, reverse=True)
        for ticket in terminal[self.terminal_events_keep :]:
            if len(ticket.events) > 1:
                self.gc_truncated_events += len(ticket.events) - 1
                del ticket.events[:-1]
        for ticket in terminal[self.max_terminal_tickets :]:
            self._tickets.pop(ticket.ticket_id, None)
            self.gc_dropped_tickets += 1

    def _record_event(self, ticket: Ticket, event: ProgressEvent) -> None:
        with self._condition:
            ticket.events.append(event)
            self._condition.notify_all()

    def _route_event(self, label: str, event: ProgressEvent) -> None:
        """Route a process-worker event to its ticket (drainer thread)."""
        with self._condition:
            ticket = self._tickets.get(label)
            if ticket is not None:
                ticket.events.append(event)
                self._condition.notify_all()

    # -- lease heartbeat ---------------------------------------------------------------
    def _heartbeat_loop(self) -> None:
        """Renew every held lease each interval (daemon thread, best-effort).

        A replica that stops heartbeating — crashed, or fault-injected at
        :data:`~repro.reliability.SITE_HEARTBEAT` — loses its leases after
        ``lease_ttl`` and a sibling takes over; a healthy replica renews at
        a third of the TTL, so it never loses one mid-execution.
        """
        while not self._heartbeat_stop.wait(self.heartbeat_interval):
            try:
                fault_point(SITE_HEARTBEAT)
                with self._lock:
                    held = list(self._held_leases)
                if not held:
                    continue
                # One batched UPDATE instead of a write transaction per
                # lease: a replica holding many leases renews them at once.
                renewed = self.store.renew_many(
                    self._store_namespace, held, self.replica_id, self.lease_ttl
                )
                if renewed:
                    with self._lock:
                        self.lease_renewals += renewed
            except Exception:  # noqa: BLE001 — a failed beat must not kill the thread
                continue

    # -- graceful drain ----------------------------------------------------------------
    def drain(self) -> None:
        """Stop accepting new work while in-flight requests finish.

        The SIGTERM half-measure between "serving" and :meth:`shutdown`:
        :meth:`submit` starts raising
        :class:`~repro.engine.errors.SchedulerDrainingError` (HTTP 503
        upstream, so load balancers fail over), running tickets complete
        normally (committing their results and releasing their leases),
        and ``/healthz`` reports ``draining``.
        """
        with self._condition:
            self._draining = True
            self._condition.notify_all()

    def health(self) -> dict[str, Any]:
        """The liveness + readiness payload behind the server's ``/healthz``.

        With a store, includes its ``store_entries`` and
        ``store_write_retries`` so write contention on the shared file is
        visible from the health probe, not just from ``/stats``.
        """
        with self._lock:
            payload = {
                "status": "draining" if (self._draining or self._shutdown) else "ok",
                "replica_id": self.replica_id,
                "leases_held": len(self._held_leases),
                "queue_depth": len(self._queue),
            }
        if self.store is not None:
            payload["store_entries"] = len(self.store)
            payload["store_write_retries"] = self.store.write_retries
        return payload

    # -- lifecycle ---------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work, cancel queued tickets, stop the workers.

        Running requests finish (``wait=True`` blocks for them); queued
        tickets move to ``cancelled``.  Held leases are released, the
        heartbeat stops, and the engine's write-behind cache tier is
        flushed — the graceful-termination endgame.
        """
        with self._condition:
            if self._shutdown:
                return
            self._draining = True
            self._shutdown = True
            for ticket_id in list(self._queue):
                ticket = self._tickets[ticket_id]
                if ticket.state == TICKET_QUEUED:
                    self._finalise(
                        ticket, TICKET_CANCELLED, "scheduler shut down",
                        "RequestCancelledError",
                    )
            self._queue.clear()
            self._condition.notify_all()
        if wait:
            for thread in self._threads:
                thread.join(timeout=300)
        self._heartbeat_stop.set()
        if self._heartbeat is not None:
            self._heartbeat.join(timeout=30)
        if self.store is not None:
            # Anything still registered (a worker that died hard) is
            # released here; siblings would recover via expiry regardless.
            try:
                self.store.release_all(self.replica_id)
            except Exception:  # noqa: BLE001 — expiry is the backstop
                pass
            with self._lock:
                self._held_leases.clear()
        # Flush the write-behind buffer so the next replica (or the next
        # start of this one) sees everything this one executed.
        try:
            self.engine.cache.flush()
        except Exception:  # noqa: BLE001 — flush degradation is logged downstream
            pass
        if self._pool is not None:
            self._pool.shutdown(wait=wait)
        if self._progress_queue is not None:
            self._progress_queue.put(None)
            if self._drainer is not None:
                self._drainer.join(timeout=30)
        if self._manager is not None:
            self._manager.shutdown()
        if self._owns_cancel_dir:
            shutil.rmtree(self._cancel_dir, ignore_errors=True)

    def __enter__(self) -> "RequestScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


# -- process-pool worker ----------------------------------------------------------------
#: The engine a worker process lazily builds and then reuses across tasks,
#: keyed by the spec that built it (one warm engine per worker).
_worker_engine: Optional[LinxEngine] = None
_worker_spec: Optional[dict[str, Any]] = None


def drain_progress_queue(queue, route: Callable[[str, ProgressEvent], None]) -> None:
    """Forward ``(label, event)`` pairs from a worker queue until ``None``.

    The scheduler runs this on a daemon thread and routes each event by
    label to its ticket's event log; enqueue ``None`` to stop it.
    """
    while True:
        item = queue.get()
        if item is None:
            return
        label, event = item
        try:
            route(label, event)
        except Exception:
            # A routing failure must not kill the drainer (and with it
            # every later event of the pool).
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
