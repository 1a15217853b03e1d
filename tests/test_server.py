"""Tests for the asyncio HTTP front-end (routes, SSE, error mapping)."""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.cdrl import CdrlConfig
from repro.engine import (
    ExploreRequest,
    ExploreResult,
    LinxEngine,
    RequestScheduler,
    ResultStore,
    SessionOutcome,
)
from repro.engine.server import ServerThread
from repro.explore import session_from_operations
from repro.explore.operations import FilterOperation, GroupAggOperation
from harness import call, first_difference, stream_events

LDX = "ROOT CHILDREN <A1>\nA1 LIKE [G,.*]"


class StubGenerator:
    name = "stub"

    def __init__(self, release: threading.Event | None = None):
        self.release = release

    def generate(self, table, ldx_text, *, episodes=None, seed=None, cache=None,
                 on_episode=None):
        if on_episode is not None:
            on_episode(0, 1.0, None)
        if self.release is not None:
            assert self.release.wait(30), "release event never set"
        session = session_from_operations(
            table,
            [
                FilterOperation("country", "eq", "India"),
                GroupAggOperation("type", "count", "type"),
            ],
            cache=cache,
        )
        return SessionOutcome(session=session, episodes_trained=1)


@pytest.fixture
def served(tmp_path):
    """A running server over a stub engine + store; yields (port, store)."""
    store = ResultStore(tmp_path / "results.sqlite")
    scheduler = RequestScheduler(
        LinxEngine(session_generator=StubGenerator()), store=store, max_workers=1
    )
    with ServerThread(scheduler) as hosted:
        yield hosted.port, store
    scheduler.shutdown()
    store.close()


def _payload(**overrides) -> dict:
    request = dict(goal="explore", dataset="netflix", num_rows=60, ldx_text=LDX)
    request.update(overrides)
    return request


class TestRoutes:
    def test_healthz(self, served):
        port, _ = served
        status, body = call(port, "GET", "/healthz")
        assert status == 200
        # Liveness + readiness: status plus the load-balancer signals.
        assert body["status"] == "ok"
        assert body["leases_held"] == 0
        assert body["queue_depth"] == 0
        assert body["replica_id"]

    def test_stages_lists_registry(self, served):
        port, _ = served
        status, body = call(port, "GET", "/stages")
        assert status == 200
        assert "cdrl" in body["stages"]["session_generator"]
        assert "atena" in body["stages"]["session_generator"]

    def test_unknown_route_404(self, served):
        port, _ = served
        status, _ = call(port, "GET", "/no/such/route")
        assert status == 404

    def test_wrong_method_on_known_route_405(self, served):
        port, _ = served
        status, body = call(port, "GET", "/requests")
        assert status == 405
        assert "POST" in body["error"]
        status, _ = call(port, "POST", "/healthz")
        assert status == 405

    def test_negative_content_length_400(self, served):
        port, _ = served
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            connection.putrequest("POST", "/requests", skip_accept_encoding=True)
            connection.putheader("Content-Length", "-5")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
        finally:
            connection.close()

    def test_unknown_ticket_404(self, served):
        port, _ = served
        for path in ("/requests/t-999", "/requests/t-999/result", "/requests/t-999/events"):
            status, _ = call(port, "GET", path)
            assert status == 404, path

    def test_stats_exposes_all_tiers(self, served):
        port, _ = served
        status, body = call(port, "GET", "/stats")
        assert status == 200
        assert {"scheduler", "engine_cache", "exploration_context", "store"} <= set(body)
        assert {
            "path", "entries", "hits", "misses", "writes", "write_retries", "leases",
        } <= set(body["store"])

    def test_store_surfaces_flat_stats_and_healthz(self, tmp_path):
        store = ResultStore(tmp_path / "results.sqlite")
        store.commit_result("ns", "h1", "{}")
        scheduler = RequestScheduler(
            LinxEngine(session_generator=StubGenerator()), store=store, max_workers=1
        )
        try:
            with ServerThread(scheduler) as hosted:
                status, body = call(hosted.port, "GET", "/stats")
                assert status == 200
                assert body["store"]["entries"] == 1
                assert body["store"]["write_retries"] == 0
                assert "shards" not in body["store"]
                assert "num_shards" not in body["store"]
                status, health = call(hosted.port, "GET", "/healthz")
                assert status == 200
                assert health["store_entries"] == 1
                assert health["store_write_retries"] == 0
                assert "store_shards" not in health
        finally:
            scheduler.shutdown()
            store.close()


class TestSubmitAndResult:
    def test_submit_runs_and_serves_result(self, served):
        port, store = served
        status, submitted = call(port, "POST", "/requests", _payload(request_id="r1"))
        assert status == 202
        ticket = submitted["ticket"]
        assert submitted["state"] in ("queued", "running")
        events = stream_events(port, ticket, timeout=60)
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "request_started"
        assert kinds[-1] == "request_finished"
        assert "episode" in kinds
        status, body = call(port, "GET", f"/requests/{ticket}/result")
        assert status == 200
        result = ExploreResult.from_dict(body["result"])
        assert result.operations == [
            ["F", "country", "eq", "India"],
            ["G", "type", "count", "type"],
        ]
        assert len(store) == 1

    def test_identical_resubmission_served_from_store(self, served):
        port, _ = served
        status, first = call(port, "POST", "/requests", _payload())
        assert status == 202
        stream_events(port, first["ticket"], timeout=60)  # run to completion
        status, second = call(port, "POST", "/requests", _payload())
        assert status == 202
        assert second["served_from_store"] is True
        assert second["state"] == "done"
        assert second["ticket"] != first["ticket"]
        _, first_result = call(port, "GET", f"/requests/{first['ticket']}/result")
        _, second_result = call(port, "GET", f"/requests/{second['ticket']}/result")
        assert first_result["result"] == second_result["result"]

    def test_result_of_live_ticket_is_202(self, tmp_path):
        release = threading.Event()
        scheduler = RequestScheduler(
            LinxEngine(session_generator=StubGenerator(release=release)), max_workers=1
        )
        try:
            with ServerThread(scheduler) as hosted:
                status, submitted = call(hosted.port, "POST", "/requests", _payload())
                assert status == 202
                status, body = call(
                    hosted.port, "GET", f"/requests/{submitted['ticket']}/result"
                )
                assert status == 202
                assert body["state"] in ("queued", "running")
                release.set()
        finally:
            release.set()
            scheduler.shutdown()


class TestServedEngine:
    def test_cdrl_and_atena_requests_over_http(self, tmp_path, comparison_query):
        """The real engine behind the full HTTP path: episode progress on the
        wire, lossless results, stage selection by name, and a resubmission
        replayed from the store unchanged."""
        store = ResultStore(tmp_path / "results.sqlite")
        scheduler = RequestScheduler(
            LinxEngine(cdrl_config=CdrlConfig(episodes=12)), store=store, max_workers=2
        )
        requests = [
            ExploreRequest(
                goal="Find a country with different viewing habits than the rest of the world",
                dataset="netflix", num_rows=300, ldx_text=comparison_query.render(), seed=0,
                request_id="served-cdrl",
            ),
            ExploreRequest(
                goal="Characterise the catalogue", dataset="netflix", num_rows=300,
                ldx_text=LDX, episodes=10, seed=1,
                stages={"session_generator": "atena"}, request_id="served-atena",
            ),
        ]
        try:
            with ServerThread(scheduler) as hosted:
                port = hosted.port
                tickets = []
                for request in requests:
                    status, submitted = call(port, "POST", "/requests", request.to_dict())
                    assert status == 202, submitted
                    tickets.append(submitted["ticket"])
                results = []
                for request, ticket in zip(requests, tickets):
                    events = stream_events(port, ticket)
                    kinds = [event["kind"] for event in events]
                    assert kinds[0] == "request_started" and kinds[-1] == "request_finished"
                    assert "episode" in kinds, "no episode-level progress on the wire"
                    assert {event["request_id"] for event in events} == {request.request_id}
                    status, body = call(port, "GET", f"/requests/{ticket}/result")
                    assert status == 200 and body["served_from_store"] is False, body
                    result = body["result"]
                    assert ExploreResult.from_dict(result).to_dict() == result
                    assert result["operations"]
                    assert {"plan_hits", "plan_hit_rate"} <= set(result["cache_stats"])
                    results.append(result)
                assert results[1]["stage_names"]["session_generator"] == "atena"

                status, resubmitted = call(port, "POST", "/requests", requests[0].to_dict())
                assert status == 202 and resubmitted["served_from_store"] is True
                assert resubmitted["state"] == "done"
                replay_ticket = resubmitted["ticket"]
                assert [event["kind"] for event in stream_events(port, replay_ticket)] == [
                    "request_started", "request_finished",
                ]
                status, replay = call(port, "GET", f"/requests/{replay_ticket}/result")
                assert status == 200 and replay["served_from_store"] is True
                differs = first_difference(results[0], replay["result"])
                assert differs is None, f"store replay changed the payload at {differs}"

                _, stats = call(port, "GET", "/stats")
                assert stats["store"]["writes"] == 2 and stats["store"]["hits"] >= 1
                assert {"plan_entries", "plan_hits"} <= set(stats["engine_cache"])
        finally:
            scheduler.shutdown()
            store.close()


class TestErrorMapping:
    def test_invalid_json_body_400(self, served):
        port, _ = served
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            connection.request("POST", "/requests", body="{not json",
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            assert response.status == 400
            assert "invalid JSON" in json.loads(response.read())["error"]
        finally:
            connection.close()

    def test_validation_errors_are_structured_400(self, served):
        port, _ = served
        status, body = call(port, "POST", "/requests", _payload(dataset="nope"))
        assert status == 400
        assert body["errors"][0]["field"] == "dataset"

    def test_unknown_request_field_400(self, served):
        port, _ = served
        status, body = call(port, "POST", "/requests", _payload(bogus=1))
        assert status == 400
        assert body["errors"][0]["field"] == "bogus"

    def test_full_queue_maps_to_429(self, tmp_path):
        release = threading.Event()
        scheduler = RequestScheduler(
            LinxEngine(session_generator=StubGenerator(release=release)),
            max_workers=1,
            max_pending=1,
        )
        try:
            with ServerThread(scheduler) as hosted:
                status, _ = call(hosted.port, "POST", "/requests", _payload(seed=1))
                assert status == 202
                status, body = call(hosted.port, "POST", "/requests", _payload(seed=2))
                assert status == 429
                assert "full" in body["error"]
                release.set()
        finally:
            release.set()
            scheduler.shutdown()

    def test_failed_request_result_is_409(self, tmp_path):
        class Exploding:
            name = "boom"

            def generate(self, table, ldx_text, **kwargs):
                raise RuntimeError("kaput")

        scheduler = RequestScheduler(
            LinxEngine(session_generator=Exploding()), max_workers=1
        )
        try:
            with ServerThread(scheduler) as hosted:
                status, submitted = call(hosted.port, "POST", "/requests", _payload())
                assert status == 202
                events = stream_events(hosted.port, submitted["ticket"], timeout=60)
                assert events[-1]["kind"] == "request_failed"
                status, body = call(
                    hosted.port, "GET", f"/requests/{submitted['ticket']}/result"
                )
                assert status == 409
                assert body["state"] == "failed"
                assert "kaput" in body["error"]
        finally:
            scheduler.shutdown()


class TestCancelEndpoint:
    def test_cancel_queued_request_over_http(self, tmp_path):
        release = threading.Event()
        scheduler = RequestScheduler(
            LinxEngine(session_generator=StubGenerator(release=release)), max_workers=1
        )
        try:
            with ServerThread(scheduler) as hosted:
                call(hosted.port, "POST", "/requests", _payload(seed=1))
                status, queued = call(hosted.port, "POST", "/requests", _payload(seed=2))
                assert status == 202
                status, body = call(
                    hosted.port, "POST", f"/requests/{queued['ticket']}/cancel"
                )
                assert status == 202
                assert body["cancel_effective"] is True
                assert body["state"] == "cancelled"
                events = stream_events(hosted.port, queued["ticket"], timeout=30)
                assert events[-1]["kind"] == "request_cancelled"
                release.set()
        finally:
            release.set()
            scheduler.shutdown()


class TestSSEFraming:
    def test_event_stream_replays_for_finished_ticket(self, served):
        """A consumer attaching after completion still gets the full log."""
        port, _ = served
        status, submitted = call(port, "POST", "/requests", _payload())
        ticket = submitted["ticket"]
        live = stream_events(port, ticket, timeout=60)
        replayed = stream_events(port, ticket, timeout=30)
        assert [event["kind"] for event in replayed] == [
            event["kind"] for event in live
        ]
        assert all(set(event) == {"request_id", "kind", "stage", "payload"}
                   for event in replayed)


class TestDrainOverHttp:
    def test_drain_then_submit_is_503_and_healthz_reports_draining(self, tmp_path):
        scheduler = RequestScheduler(
            LinxEngine(session_generator=StubGenerator()), max_workers=1
        )
        try:
            with ServerThread(scheduler) as hosted:
                status, _ = call(hosted.port, "POST", "/requests", _payload(seed=1))
                assert status == 202
                scheduler.drain()
                status, health = call(hosted.port, "GET", "/healthz")
                assert status == 200
                assert health["status"] == "draining"
                status, body = call(hosted.port, "POST", "/requests", _payload(seed=2))
                assert status == 503
                assert "draining" in body["error"]
        finally:
            scheduler.shutdown()
