"""Asyncio HTTP front-end for the LINX serving tier (stdlib only).

Exposes a :class:`~repro.engine.scheduler.RequestScheduler` over a small
HTTP/1.1 surface so any client that speaks JSON can submit declarative
:class:`~repro.engine.request.ExploreRequest` payloads and follow their
progress live:

==========  =================================  ========================================
method      path                               behaviour
==========  =================================  ========================================
``POST``    ``/requests``                      submit a request body; 202 + ticket
``GET``     ``/requests/<ticket>``             lifecycle status snapshot
``GET``     ``/requests/<ticket>/result``      200 result JSON when ``done``;
                                               202 while live, 409 failed/cancelled
``GET``     ``/requests/<ticket>/events``      Server-Sent Events: replay + follow
``POST``    ``/requests/<ticket>/cancel``      cooperative cancellation
``GET``     ``/stages``                        stage names per kind, trained policies too
``GET``     ``/stats``                         scheduler / store / cache telemetry
``GET``     ``/healthz``                       liveness + readiness probe
==========  =================================  ========================================

``/healthz`` reports ``{"status": "ok"|"draining", "leases_held": N,
"queue_depth": N}``: load balancers route away from a draining replica
while its in-flight requests finish.  ``POST /requests`` on a draining
replica returns 503, and running ``python -m repro.engine.server``
handles SIGTERM as a graceful drain (stop accepting, finish or release
in-flight leases) before exiting.

The SSE stream emits each :class:`~repro.engine.events.ProgressEvent` as
``event: <kind>`` + ``data: <json>``, with the scheduler's synthesized
``request_finished`` / ``request_failed`` / ``request_cancelled`` closing
the stream, so ``curl -N .../events`` renders a live training ticker.

The engine's pipeline is synchronous, CPU-bound work; the asyncio loop
never runs it.  The scheduler's worker threads (or processes) do, and the
HTTP handlers only touch the scheduler's lock-guarded bookkeeping —
blocking waits (SSE follow) hop onto the default executor via
``asyncio.to_thread`` so slow consumers cannot stall the accept loop.

Run standalone::

    python -m repro.engine.server --port 8765 --episodes 40 \
        --store /tmp/linx/results.sqlite
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import threading
from typing import Any, Optional

from .core import LinxEngine
from .errors import (
    EngineError,
    RequestValidationError,
    SchedulerDrainingError,
    SchedulerFullError,
)
from .events import event_to_dict
from .request import ExploreRequest
from .scheduler import (
    TICKET_CANCELLED,
    TICKET_DONE,
    TICKET_FAILED,
    RequestScheduler,
)
from .store import ResultStore

#: Upper bound on accepted request bodies (a declarative request is tiny).
MAX_BODY_BYTES = 1 << 20

#: How long one SSE poll blocks before emitting a heartbeat comment.
SSE_POLL_SECONDS = 2.0

_JSON = {"Content-Type": "application/json"}
_SSE = {
    "Content-Type": "text/event-stream",
    "Cache-Control": "no-cache",
    "Connection": "close",
}

_REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class LinxHttpServer:
    """The asyncio HTTP server in front of one scheduler."""

    def __init__(
        self,
        scheduler: RequestScheduler,
        *,
        host: str = "127.0.0.1",
        port: int = 8765,
    ):
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle ---------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections (``port=0`` picks a free port)."""
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling -----------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader, writer)
                if method is None:
                    return
                await self._dispatch(method, path, body, writer)
            except (ConnectionError, asyncio.IncompleteReadError):
                pass  # client went away mid-exchange
            except Exception as exc:  # noqa: BLE001 — one bad request must not kill the server
                try:
                    await self._respond(
                        writer, 500, {"error": f"{type(exc).__name__}: {exc}"}
                    )
                except Exception:
                    pass
            finally:
                try:
                    writer.close()
                    await writer.wait_closed()
                except Exception:
                    pass
        except asyncio.CancelledError:
            # Server shutdown cancels in-flight connection tasks; absorbing
            # the cancellation here keeps the handler task from logging a
            # "Task exception was never retrieved" traceback on close.
            pass

    async def _read_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> tuple[Optional[str], str, bytes]:
        request_line = await reader.readline()
        if not request_line:
            return None, "", b""
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            await self._respond(writer, 400, {"error": "malformed request line"})
            return None, "", b""
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    content_length = -1
                if content_length < 0:
                    await self._respond(writer, 400, {"error": "bad Content-Length"})
                    return None, "", b""
        if content_length > MAX_BODY_BYTES:
            await self._respond(writer, 413, {"error": "request body too large"})
            return None, "", b""
        body = await reader.readexactly(content_length) if content_length else b""
        return method, path, body

    # -- routing -----------------------------------------------------------------------
    async def _dispatch(
        self, method: str, path: str, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        path = path.split("?", 1)[0].rstrip("/") or "/"
        segments = [segment for segment in path.split("/") if segment]
        # Resolve the path to its method table first, so a known path with
        # the wrong verb gets a 405 instead of a misleading 404.
        handlers: dict[str, Any] = {}
        if path == "/healthz":
            handlers["GET"] = lambda: self._respond(
                writer, 200, self.scheduler.health()
            )
        elif path == "/stats":
            handlers["GET"] = lambda: self._respond(writer, 200, self._stats())
        elif path == "/stages":
            handlers["GET"] = lambda: self._respond(
                writer, 200, {"stages": self.scheduler.engine.describe_stages()}
            )
        elif path == "/requests":
            handlers["POST"] = lambda: self._submit(body, writer)
        elif len(segments) == 2 and segments[0] == "requests":
            handlers["GET"] = lambda: self._status(segments[1], writer)
        elif len(segments) == 3 and segments[0] == "requests":
            if segments[2] == "result":
                handlers["GET"] = lambda: self._result(segments[1], writer)
            elif segments[2] == "events":
                handlers["GET"] = lambda: self._events(segments[1], writer)
            elif segments[2] == "cancel":
                handlers["POST"] = lambda: self._cancel(segments[1], writer)
        try:
            if not handlers:
                await self._respond(writer, 404, {"error": f"no route {path}"})
            elif method not in handlers:
                await self._respond(
                    writer,
                    405,
                    {"error": f"{method} not allowed on {path}; allowed: "
                              f"{sorted(handlers)}"},
                )
            else:
                await handlers[method]()
        except KeyError:
            await self._respond(writer, 404, {"error": "unknown ticket"})

    # -- endpoints ---------------------------------------------------------------------
    async def _submit(self, body: bytes, writer: asyncio.StreamWriter) -> None:
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            await self._respond(writer, 400, {"error": f"invalid JSON body: {exc}"})
            return
        try:
            request = ExploreRequest.from_dict(payload)
            # submit() takes the scheduler lock and may read the result
            # store (sqlite + JSON parse); keep it off the event loop so a
            # store commit in a worker thread never stalls other clients.
            ticket = await asyncio.to_thread(self.scheduler.submit, request)
        except RequestValidationError as exc:
            await self._respond(writer, 400, exc.to_dict())
            return
        except SchedulerDrainingError as exc:
            # Graceful shutdown in progress: this replica accepts no new
            # work; 503 tells load balancers to fail over to a sibling.
            await self._respond(writer, 503, {"error": str(exc)})
            return
        except SchedulerFullError as exc:
            # Back-pressure with a drain estimate: polite clients honour
            # Retry-After instead of hammering a saturated queue.
            await self._respond(
                writer,
                429,
                {"error": str(exc)},
                extra_headers={"Retry-After": str(self.scheduler.retry_after_hint())},
            )
            return
        except EngineError as exc:
            await self._respond(writer, 400, {"error": str(exc)})
            return
        # Respond with the acceptance-time snapshot, not the live state: a
        # fast worker may have finished the request already, and a fresh
        # submission must report "queued", never race to "done".
        await self._respond(
            writer,
            202,
            ticket.submit_snapshot or self.scheduler.status(ticket.ticket_id),
        )

    async def _status(self, ticket_id: str, writer: asyncio.StreamWriter) -> None:
        await self._respond(writer, 200, self.scheduler.status(ticket_id))

    async def _result(self, ticket_id: str, writer: asyncio.StreamWriter) -> None:
        snapshot = self.scheduler.status(ticket_id)
        if snapshot["state"] == TICKET_DONE:
            # Splice the stored wire-format text straight into the response
            # envelope: a result served from the store (or just committed)
            # is never parsed and re-dumped on its way out.
            result_text = self.scheduler.result_text(ticket_id) or "null"
            head = json.dumps(
                {
                    "ticket": ticket_id,
                    "served_from_store": snapshot["served_from_store"],
                }
            )
            envelope = f'{head[:-1]}, "result": {result_text}}}'
            await self._respond_raw(writer, 200, envelope.encode("utf-8"))
        elif snapshot["state"] in (TICKET_FAILED, TICKET_CANCELLED):
            await self._respond(writer, 409, snapshot)
        else:
            await self._respond(writer, 202, snapshot)

    async def _cancel(self, ticket_id: str, writer: asyncio.StreamWriter) -> None:
        effective = self.scheduler.cancel(ticket_id)
        payload = self.scheduler.status(ticket_id)
        payload["cancel_effective"] = effective
        await self._respond(writer, 202, payload)

    async def _events(self, ticket_id: str, writer: asyncio.StreamWriter) -> None:
        self.scheduler.status(ticket_id)  # 404 (KeyError) before headers go out
        writer.write(_head(200, _SSE))
        await writer.drain()
        cursor = 0
        while True:
            # The blocking condition-wait happens off-loop so one slow SSE
            # consumer never stalls other connections.
            events, cursor, done = await asyncio.to_thread(
                self.scheduler.events_since, ticket_id, cursor, SSE_POLL_SECONDS
            )
            for event in events:
                data = json.dumps(event_to_dict(event))
                writer.write(f"event: {event.kind}\ndata: {data}\n\n".encode("utf-8"))
            if not events:
                writer.write(b": heartbeat\n\n")
            await writer.drain()
            if done:
                return

    # -- helpers -----------------------------------------------------------------------
    def _stats(self) -> dict[str, Any]:
        stats: dict[str, Any] = {
            "scheduler": self.scheduler.describe(),
            "engine_cache": self.scheduler.engine.cache_stats(),
            "exploration_context": (
                self.scheduler.engine.exploration_context.describe()
            ),
        }
        if self.scheduler.store is not None:
            stats["store"] = self.scheduler.store.describe()
        policy_registry = getattr(self.scheduler.engine, "policy_registry", None)
        if policy_registry is not None:
            stats["policy_registry"] = policy_registry.describe()
        return stats

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any],
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        await self._respond_raw(
            writer, status, json.dumps(payload).encode("utf-8"), extra_headers
        )

    async def _respond_raw(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        """Send pre-serialized JSON *body* (the zero-parse result path)."""
        headers = dict(_JSON)
        if extra_headers:
            headers.update(extra_headers)
        headers["Content-Length"] = str(len(body))
        headers["Connection"] = "close"
        writer.write(_head(status, headers) + body)
        await writer.drain()


def _head(status: int, headers: dict[str, str]) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


# -- in-process hosting --------------------------------------------------------------
class ServerThread:
    """Host a :class:`LinxHttpServer` on a background thread.

    For tests, examples and notebook-style clients: the asyncio loop
    runs on its own daemon thread, :meth:`start` returns once the port is
    bound, :meth:`stop` tears the loop down.
    """

    def __init__(self, scheduler: RequestScheduler, *, host: str = "127.0.0.1", port: int = 0):
        self.server = LinxHttpServer(scheduler, host=host, port=port)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()

    @property
    def port(self) -> int:
        return self.server.port

    def start(self, timeout: float = 30.0) -> "ServerThread":
        self._thread = threading.Thread(target=self._run, daemon=True, name="linx-http")
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("HTTP server failed to start in time")
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)

        async def main() -> None:
            await self.server.start()
            self._started.set()
            try:
                await self.server.serve_forever()
            except asyncio.CancelledError:
                pass

        try:
            self._loop.run_until_complete(main())
        finally:
            self._loop.close()

    def stop(self) -> None:
        if self._loop is None:
            return

        def shutdown() -> None:
            for task in asyncio.all_tasks(self._loop):
                task.cancel()

        self._loop.call_soon_threadsafe(shutdown)
        if self._thread is not None:
            self._thread.join(timeout=30)
        self._loop = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


# -- CLI ------------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.engine.server",
        description="Serve the LINX engine over HTTP (submit/status/result/SSE events).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8765)
    parser.add_argument(
        "--episodes", type=int, default=150, help="default CDRL episode budget"
    )
    parser.add_argument(
        "--store", default=None, help="sqlite result store path (idempotent serving)"
    )
    parser.add_argument(
        "--policy-registry",
        default=None,
        help="sqlite policy registry path; serves its policies as "
             "cdrl:<name>-v<N> session-generator stages",
    )
    parser.add_argument(
        "--workers",
        choices=("thread", "process"),
        default="thread",
        help="request execution mode",
    )
    parser.add_argument("--max-workers", type=int, default=2)
    parser.add_argument("--queue-size", type=int, default=64)
    parser.add_argument(
        "--timeout", type=float, default=None, help="default per-request timeout (s)"
    )
    parser.add_argument(
        "--batching",
        action="store_true",
        help="coalesce concurrent requests' policy forwards into shared "
             "inference waves (bit-identical results, higher throughput; "
             "thread workers only)",
    )
    parser.add_argument(
        "--batch-linger-ms",
        type=float,
        default=2.0,
        help="straggler window before an under-full wave fires",
    )
    parser.add_argument(
        "--max-batch-size", type=int, default=64, help="row cap per inference wave"
    )
    parser.add_argument(
        "--replica-id",
        default=None,
        help="this server's identity in the shared store's lease table "
             "(defaults to a per-process unique id)",
    )
    parser.add_argument(
        "--lease-ttl",
        type=float,
        default=30.0,
        help="seconds a claimed execution lease survives without heartbeat "
             "renewal (crashed replicas lose theirs after this long)",
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    from repro.cdrl.agent import CdrlConfig

    engine = LinxEngine(
        cdrl_config=CdrlConfig(episodes=args.episodes),
        policy_registry_path=args.policy_registry,
        inference_batching=args.batching,
        batch_linger_ms=args.batch_linger_ms,
        max_batch_size=args.max_batch_size,
    )
    store = ResultStore(args.store) if args.store else None
    scheduler = RequestScheduler(
        engine,
        store=store,
        max_pending=args.queue_size,
        max_workers=args.max_workers,
        workers=args.workers,
        default_timeout=args.timeout,
        replica_id=args.replica_id,
        lease_ttl=args.lease_ttl,
    )
    server = LinxHttpServer(scheduler, host=args.host, port=args.port)

    async def run() -> None:
        await server.start()
        # SIGTERM drains gracefully: stop accepting (503), let in-flight
        # requests finish (committing results, releasing leases), then
        # exit.  SIGINT (Ctrl-C) keeps its default KeyboardInterrupt path.
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()

        def _drain() -> None:
            scheduler.drain()
            stop.set()

        try:
            loop.add_signal_handler(signal.SIGTERM, _drain)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-POSIX
            pass
        print(f"linx engine serving on http://{server.host}:{server.port}")
        print(f"  workers={args.workers} x{args.max_workers}, queue={args.queue_size}")
        print(f"  replica: {scheduler.replica_id} (lease ttl {args.lease_ttl:g}s)")
        if store is not None:
            print(f"  result store: {store.path}")
        if engine.policy_registry is not None:
            print(f"  policy registry: {args.policy_registry} "
                  f"({len(engine.policy_registry)} artifacts)")
        serve = asyncio.ensure_future(server.serve_forever())
        drained = asyncio.ensure_future(stop.wait())
        await asyncio.wait({serve, drained}, return_when=asyncio.FIRST_COMPLETED)
        serve.cancel()
        await server.stop()

    try:
        asyncio.run(run())
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass
    finally:
        scheduler.shutdown()
        engine.close()
        if store is not None:
            store.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
