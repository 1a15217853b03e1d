"""Engine smoke check: two requests through the request scheduler.

Run by CI (``python -m repro.engine.smoke``) to catch wiring regressions in
the service layer: it runs two requests on a small dataset — one with an
explicit LDX specification, one through NL derivation — concurrently
through a 2-thread :class:`~repro.engine.scheduler.RequestScheduler`,
rebuilds each result with :meth:`ExploreResult.from_dict`, and asserts
that

* both requests complete with a generated session,
* serialized results parse back losslessly
  (``from_dict(json.loads(json.dumps(payload)))``),
* the shared execution cache was actually exercised, and
* the first request re-run afterwards, on the same engine and on a fresh
  one, gives the same result: the engine-wide state (execution cache,
  exploration context) never leaks between requests.
"""

from __future__ import annotations

import dataclasses
import json
import sys

from repro.cdrl.agent import CdrlConfig

from .core import LinxEngine
from .request import ExploreRequest
from .result import ExploreResult
from .scheduler import TICKET_DONE, RequestScheduler

SMOKE_LDX = """
ROOT CHILDREN <A1,A2>
A1 LIKE [F,country,eq,(?<X>.*)] and CHILDREN {B1}
B1 LIKE [G,(?<Y>.*),count,.*]
A2 LIKE [F,country,neq,(?<X>.*)] and CHILDREN {B2}
B2 LIKE [G,(?<Y>.*),count,.*]
"""


def _differing_fields(mine: ExploreResult, theirs: ExploreResult) -> list[str]:
    """Compared fields of two results that differ (timings and cache deltas
    are not compared)."""
    return [
        item.name
        for item in dataclasses.fields(ExploreResult)
        if item.compare and getattr(mine, item.name) != getattr(theirs, item.name)
    ]


def main() -> int:
    config = CdrlConfig(episodes=12)
    engine = LinxEngine(cdrl_config=config)
    requests = [
        ExploreRequest(
            goal="Find a country with different viewing habits than the rest of the world",
            dataset="netflix",
            num_rows=300,
            ldx_text=SMOKE_LDX,
            seed=0,
            request_id="smoke-explicit-ldx",
        ),
        ExploreRequest(
            goal="Find a country with different viewing habits than the rest of the world",
            dataset="netflix",
            num_rows=300,
            episodes=12,
            seed=1,
            request_id="smoke-derived-ldx",
        ),
    ]
    with RequestScheduler(engine, max_workers=2) as scheduler:
        tickets = [scheduler.submit(request) for request in requests]
        payloads = []
        for ticket in tickets:
            snapshot = scheduler.wait(ticket.ticket_id, timeout=600)
            assert snapshot["state"] == TICKET_DONE, (
                f"{ticket.request.request_id}: {snapshot['state']} {snapshot['error']}"
            )
            payloads.append(scheduler.result_payload(ticket.ticket_id))
    results = [ExploreResult.from_dict(payload) for payload in payloads]
    for payload, result in zip(payloads, results):
        assert result.operations, f"{result.request['request_id']}: empty session"
        assert result.notebook_markdown, "notebook rendering failed"
        restored = ExploreResult.from_dict(json.loads(json.dumps(payload)))
        assert restored == result, "serialized result did not round-trip"
        assert restored.to_dict() == payload, "round-trip changed the payload"
    stats = engine.cache_stats()
    assert stats["hits"] + stats["misses"] > 0, "shared cache never exercised"
    # Engine-wide state must never leak between requests: the first request
    # re-run afterwards, on this engine and on a fresh one, gives the
    # scheduled result.
    for label, rerun_engine in (("this", engine), ("a fresh", LinxEngine(cdrl_config=config))):
        differing = _differing_fields(results[0], rerun_engine.explore(requests[0]))
        assert not differing, (
            f"{requests[0].request_id}: re-run on {label} engine differs in {differing}"
        )
    print("engine smoke ok:")
    for result in results:
        print(
            f"  {result.request['request_id']}: "
            f"queries={len([op for op in result.operations if op[0] != 'B'])}, "
            f"compliant={result.fully_compliant}, "
            f"fallback={result.derivation_fallback}, "
            f"cache={result.cache_stats}"
        )
    print(f"  engine cache: {stats}")
    print(f"  exploration context: {engine.exploration_context.describe()}")
    print("  re-runs of the first request (same and fresh engine): identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
