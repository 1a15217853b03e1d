"""Serving-tier smoke check: the full HTTP path, end to end.

Run by CI (``python -m repro.engine.serve_smoke``) to catch wiring
regressions across the serving stack: it boots the asyncio HTTP server on
an ephemeral port (scheduler + sqlite result store + engine), submits a
2-request batch over HTTP, follows each request's SSE event stream to
completion, and asserts that

* both requests complete with episode-level progress events observed on
  the wire (``event: episode`` frames, not just request granularity),
* both result payloads parse back losslessly
  (``from_dict(json.loads(...))`` round-trips),
* resubmitting the first request verbatim is served from the result store
  — same JSON, no re-execution — and its SSE stream closes immediately,
* stage selection by registry name works over the wire
  (``stages={"session_generator": "atena"}``).
"""

from __future__ import annotations

import http.client
import json
import sys
import tempfile
from pathlib import Path
from typing import Any

from repro.cdrl.agent import CdrlConfig

from .core import LinxEngine
from .request import ExploreRequest
from .result import ExploreResult
from .scheduler import RequestScheduler
from .server import ServerThread
from .store import ResultStore

SMOKE_LDX = """
ROOT CHILDREN <A1,A2>
A1 LIKE [F,country,eq,(?<X>.*)] and CHILDREN {B1}
B1 LIKE [G,(?<Y>.*),count,.*]
A2 LIKE [F,country,neq,(?<X>.*)] and CHILDREN {B2}
B2 LIKE [G,(?<Y>.*),count,.*]
"""


def _call(
    port: int, method: str, path: str, body: dict[str, Any] | None = None
) -> tuple[int, dict[str, Any]]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        payload = json.dumps(body) if body is not None else None
        connection.request(
            method, path, body=payload, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


def _stream_events(port: int, ticket: str, timeout: float = 300.0) -> list[dict[str, Any]]:
    """Consume the ticket's SSE stream until the server closes it."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    events: list[dict[str, Any]] = []
    try:
        connection.request("GET", f"/requests/{ticket}/events")
        response = connection.getresponse()
        assert response.status == 200, f"SSE stream returned {response.status}"
        kind = None
        while True:
            raw = response.readline()
            if not raw:
                break  # server closed the stream
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith("event:"):
                kind = line.split(":", 1)[1].strip()
            elif line.startswith("data:"):
                payload = json.loads(line.split(":", 1)[1].strip())
                assert payload["kind"] == kind, "SSE event/data kind mismatch"
                events.append(payload)
    finally:
        connection.close()
    return events


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="linx-serve-smoke-") as tmp:
        store = ResultStore(Path(tmp) / "results.sqlite")
        engine = LinxEngine(cdrl_config=CdrlConfig(episodes=12))
        scheduler = RequestScheduler(engine, store=store, max_workers=2)
        requests = [
            ExploreRequest(
                goal="Find a country with different viewing habits than the rest of the world",
                dataset="netflix",
                num_rows=300,
                ldx_text=SMOKE_LDX,
                seed=0,
                request_id="smoke-cdrl",
            ),
            ExploreRequest(
                goal="Characterise the catalogue",
                dataset="netflix",
                num_rows=300,
                ldx_text="ROOT CHILDREN <A1>\nA1 LIKE [G,.*]",
                episodes=10,
                seed=1,
                stages={"session_generator": "atena"},
                request_id="smoke-atena",
            ),
        ]
        try:
            with ServerThread(scheduler) as hosted:
                port = hosted.port
                status, health = _call(port, "GET", "/healthz")
                assert status == 200 and health["status"] == "ok"
                status, stages = _call(port, "GET", "/stages")
                assert "atena" in stages["stages"]["session_generator"]

                # -- submit the batch over HTTP ---------------------------------
                tickets = []
                for request in requests:
                    status, submitted = _call(port, "POST", "/requests", request.to_dict())
                    assert status == 202, f"submit returned {status}: {submitted}"
                    assert submitted["state"] in ("queued", "running")
                    tickets.append(submitted["ticket"])

                # -- follow both SSE streams to completion ----------------------
                results = []
                for request, ticket in zip(requests, tickets):
                    events = _stream_events(port, ticket)
                    kinds = [event["kind"] for event in events]
                    assert kinds[0] == "request_started", kinds
                    assert kinds[-1] == "request_finished", kinds
                    assert "episode" in kinds, "no episode-level progress on the wire"
                    assert all(
                        event["request_id"] == request.request_id for event in events
                    )
                    status, payload = _call(port, "GET", f"/requests/{ticket}/result")
                    assert status == 200, f"result returned {status}: {payload}"
                    assert payload["served_from_store"] is False
                    restored = ExploreResult.from_dict(
                        json.loads(json.dumps(payload["result"]))
                    )
                    assert restored.to_dict() == payload["result"], "lossy round-trip"
                    assert restored.operations, "empty session"
                    results.append(payload["result"])
                assert results[1]["stage_names"]["session_generator"] == "atena"

                # -- identical resubmission is served from the store ------------
                status, resubmitted = _call(port, "POST", "/requests", requests[0].to_dict())
                assert status == 202
                assert resubmitted["served_from_store"] is True, resubmitted
                assert resubmitted["state"] == "done"
                replay_ticket = resubmitted["ticket"]
                replay_events = _stream_events(port, replay_ticket)
                assert [event["kind"] for event in replay_events] == [
                    "request_started",
                    "request_finished",
                ]
                status, replay = _call(port, "GET", f"/requests/{replay_ticket}/result")
                assert status == 200 and replay["served_from_store"] is True
                assert replay["result"] == results[0], "store replay changed the payload"

                status, stats = _call(port, "GET", "/stats")
                assert stats["store"]["writes"] == 2
                assert stats["store"]["hits"] >= 1
                engine_cache = stats["engine_cache"]
                assert "plan_entries" in engine_cache, engine_cache
                assert "plan_hits" in engine_cache, engine_cache
                for result in results:
                    cache_stats = result["cache_stats"]
                    assert "plan_hits" in cache_stats, cache_stats
                    assert "plan_hit_rate" in cache_stats, cache_stats
                print("serve smoke ok:")
                for request, result in zip(requests, results):
                    print(
                        f"  {request.request_id}: generator="
                        f"{result['stage_names']['session_generator']}, "
                        f"operations={len(result['operations'])}, "
                        f"compliant={result['fully_compliant']}, "
                        f"plan_hit_rate={result['cache_stats']['plan_hit_rate']}"
                    )
                print(f"  store: {stats['store']}")
                print(f"  scheduler: {stats['scheduler']['states']}")
                print(
                    "  engine cache: "
                    f"plan_entries={engine_cache['plan_entries']}, "
                    f"plan_hits={engine_cache['plan_hits']}"
                )
        finally:
            scheduler.shutdown()
            store.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
