"""Serving walkthrough: the LINX engine as an HTTP service.

The serving tier stacks four components (all stdlib + numpy, no web
framework):

* `LinxEngine` — the pipeline (derive -> generate -> render -> insights),
* `RequestScheduler` — bounded queue, lifecycle states, canonical-hash
  deduplication, per-request timeout and cooperative cancellation,
* `ResultStore` — schema-versioned sqlite keyed by request hash, so an
  identical resubmission is served from the store without re-training,
* `LinxHttpServer` — asyncio HTTP front-end with Server-Sent-Events
  progress (`python -m repro.engine.server` runs it standalone).

This script hosts the server in-process on an ephemeral port, then acts as
an HTTP client: submits two requests (one swapping the session generator to
the ATENA baseline *by registry name*), renders their SSE event streams as
a progress ticker, fetches the results, and resubmits the first request to
show the store serving it idempotently.

Run with::

    python examples/serve.py
"""

import http.client
import json
import tempfile
from pathlib import Path

from repro.cdrl import CdrlConfig
from repro.engine import ExploreRequest, LinxEngine, RequestScheduler, ResultStore
from repro.engine.server import ServerThread

LDX = """
ROOT CHILDREN <A1,A2>
A1 LIKE [F,country,eq,(?<X>.*)] and CHILDREN {B1}
B1 LIKE [G,(?<Y>.*),count,.*]
A2 LIKE [F,country,neq,(?<X>.*)] and CHILDREN {B2}
B2 LIKE [G,(?<Y>.*),count,.*]
"""


def call(port: int, method: str, path: str, body: dict | None = None) -> tuple[int, dict]:
    """One JSON request against the local server."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=300)
    try:
        connection.request(
            method,
            path,
            body=json.dumps(body) if body is not None else None,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


def follow_events(port: int, ticket: str) -> int:
    """Consume the ticket's SSE stream, printing a compact progress ticker."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=600)
    count = 0
    try:
        connection.request("GET", f"/requests/{ticket}/events")
        response = connection.getresponse()
        while True:
            line = response.readline()
            if not line:
                return count
            text = line.decode("utf-8").strip()
            if not text.startswith("data:"):
                continue
            event = json.loads(text.split(":", 1)[1])
            count += 1
            if event["kind"] == "episode":
                episode = event["payload"]["episode"]
                if episode % 10 == 0:
                    print(f"    episode {episode:>3}  return={event['payload']['return']:.3f}")
            else:
                stage = f" {event['stage']}" if event["stage"] else ""
                print(f"    {event['kind']}{stage}")
    finally:
        connection.close()


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="linx-serve-") as tmp:
        store = ResultStore(Path(tmp) / "results.sqlite")
        engine = LinxEngine(cdrl_config=CdrlConfig(episodes=40))
        scheduler = RequestScheduler(
            engine, store=store, max_workers=2, default_timeout=600
        )
        requests = [
            ExploreRequest(
                goal="Find a country with different viewing habits than the rest of the world",
                dataset="netflix",
                num_rows=400,
                ldx_text=LDX,
                seed=0,
                request_id="serve-cdrl",
            ),
            ExploreRequest(
                goal="Characterise the catalogue",
                dataset="netflix",
                num_rows=400,
                ldx_text="ROOT CHILDREN <A1>\nA1 LIKE [G,.*]",
                episodes=30,
                seed=1,
                stages={"session_generator": "atena"},  # registry name, over the wire
                request_id="serve-atena",
            ),
        ]
        try:
            with ServerThread(scheduler) as hosted:
                port = hosted.port
                print(f"serving on http://127.0.0.1:{port}\n")
                _, stages = call(port, "GET", "/stages")
                print(f"registered stages: {json.dumps(stages['stages'])}\n")

                tickets = []
                for request in requests:
                    status, submitted = call(port, "POST", "/requests", request.to_dict())
                    assert status == 202, submitted
                    print(
                        f"submitted {request.request_id}: ticket={submitted['ticket']} "
                        f"hash={submitted['request_hash'][:12]}…"
                    )
                    tickets.append(submitted["ticket"])

                for request, ticket in zip(requests, tickets):
                    print(f"\n[{request.request_id}] streaming progress:")
                    follow_events(port, ticket)
                    status, body = call(port, "GET", f"/requests/{ticket}/result")
                    assert status == 200, body
                    result = body["result"]
                    print(
                        f"  -> generator={result['stage_names']['session_generator']} "
                        f"operations={len(result['operations'])} "
                        f"compliant={result['fully_compliant']}"
                    )

                print("\nresubmitting serve-cdrl verbatim:")
                status, replay = call(port, "POST", "/requests", requests[0].to_dict())
                print(
                    f"  -> state={replay['state']} served_from_store="
                    f"{replay['served_from_store']} (no re-training)"
                )

                _, stats = call(port, "GET", "/stats")
                print(f"\nstore: {json.dumps(stats['store'])}")
                print(f"scheduler: {json.dumps(stats['scheduler']['states'])}")
        finally:
            scheduler.shutdown()
            store.close()


if __name__ == "__main__":
    main()
