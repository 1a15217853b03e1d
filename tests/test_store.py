"""Tests for the persistent result store (idempotency, replay, versioning)."""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.cdrl import CdrlConfig
from repro.datasets import load_dataset
from repro.engine import (
    ExploreRequest,
    ExploreResult,
    LinxEngine,
    RequestScheduler,
    ResultStore,
    SessionOutcome,
)
from repro.engine.store import STORE_SCHEMA_VERSION
from repro.explore import session_from_operations
from repro.explore.operations import FilterOperation, GroupAggOperation

LDX = "ROOT CHILDREN <A1>\nA1 LIKE [G,.*]"

#: Namespace used by direct-store tests (the scheduler uses the engine's
#: config fingerprint).
NS = "test-namespace"


@pytest.fixture
def store_path(tmp_path):
    return tmp_path / "results.sqlite"


@pytest.fixture
def request_() -> ExploreRequest:
    return ExploreRequest(
        goal="explore the catalogue",
        dataset="netflix",
        num_rows=120,
        ldx_text=LDX,
        episodes=6,
        seed=0,
    )


@pytest.fixture
def executed(request_) -> ExploreResult:
    engine = LinxEngine(cdrl_config=CdrlConfig(episodes=6))
    return engine.explore(request_)


class CountingGenerator:
    """A session generator that counts executions (store-idempotency probe)."""

    name = "counting"

    def __init__(self):
        self.calls = 0

    def generate(self, table, ldx_text, *, episodes=None, seed=None, cache=None,
                 on_episode=None):
        self.calls += 1
        if on_episode is not None:
            on_episode(0, 1.0, None)
        session = session_from_operations(
            table,
            [
                FilterOperation("country", "eq", "India"),
                GroupAggOperation("type", "count", "type"),
            ],
            cache=cache,
        )
        return SessionOutcome(session=session, episodes_trained=1)


class TestRoundTrip:
    def test_put_get_round_trips_losslessly(self, store_path, request_, executed):
        with ResultStore(store_path) as store:
            store.put(NS, request_.canonical_hash(), executed)
            loaded = store.get(NS, request_.canonical_hash())
        assert loaded == executed
        assert loaded.to_dict() == executed.to_dict()
        assert loaded.artifacts is None

    def test_payload_is_canonical_json(self, store_path, request_, executed):
        with ResultStore(store_path) as store:
            store.put(NS, request_.canonical_hash(), executed)
            payload = store.get_payload(NS, request_.canonical_hash())
        assert payload == json.loads(json.dumps(executed.to_dict()))

    def test_get_unknown_hash_is_a_miss(self, store_path):
        with ResultStore(store_path) as store:
            assert store.get(NS, "no-such-hash") is None
            assert store.misses == 1
            assert store.hits == 0

    def test_survives_reopen(self, store_path, request_, executed):
        store = ResultStore(store_path)
        store.put(NS, request_.canonical_hash(), executed)
        store.close()
        reopened = ResultStore(store_path)
        assert not reopened.invalidated
        assert len(reopened) == 1
        assert reopened.get(NS, request_.canonical_hash()) == executed
        reopened.close()

    def test_contains_delete_clear(self, store_path, request_, executed):
        with ResultStore(store_path) as store:
            key = request_.canonical_hash()
            assert not store.contains(NS, key)
            store.put(NS, key, executed)
            assert store.contains(NS, key)
            assert store.request_hashes() == [key]
            assert store.request_hashes(NS) == [key]
            assert store.request_hashes("other") == []
            assert store.delete(NS, key)
            assert not store.delete(NS, key)
            store.put(NS, key, executed)
            store.clear()
            assert len(store) == 0

    def test_namespaces_isolate_identical_hashes(self, store_path, request_, executed):
        """One hash stored under two namespaces is two independent rows."""
        with ResultStore(store_path) as store:
            key = request_.canonical_hash()
            store.put("config-a", key, executed)
            assert store.get("config-b", key) is None
            store.put("config-b", key, executed)
            assert len(store) == 2
            assert store.delete("config-a", key)
            assert store.get("config-b", key) == executed

    def test_prune_removes_only_old_rows(self, store_path, request_, executed):
        with ResultStore(store_path) as store:
            key = request_.canonical_hash()
            store.put(NS, key, executed)
            store.put(NS, "fresh-hash", executed)
            # Age the first row artificially; prune must be selective.
            with store._conn:
                store._conn.execute(
                    "UPDATE results SET created_at = created_at - 3600"
                    " WHERE request_hash = ?",
                    (key,),
                )
            assert store.prune(older_than=1800) == 1
            assert store.pruned == 1
            assert not store.contains(NS, key)
            assert store.contains(NS, "fresh-hash")
            assert store.prune(older_than=1800) == 0
            with pytest.raises(ValueError):
                store.prune(older_than=-1)
            assert store.describe()["pruned"] == 1


class TestIdempotentServing:
    def test_same_request_twice_hits_store_without_reexecution(self, store_path):
        generator = CountingGenerator()
        engine = LinxEngine(session_generator=generator)
        store = ResultStore(store_path)
        with RequestScheduler(engine, store=store, max_workers=1) as scheduler:
            request = ExploreRequest(goal="g", dataset="netflix", num_rows=60,
                                     ldx_text=LDX)
            first = scheduler.submit(request)
            scheduler.wait(first.ticket_id, timeout=120)
            assert generator.calls == 1
            second = scheduler.submit(request)
            snapshot = scheduler.wait(second.ticket_id, timeout=30)
            assert snapshot["served_from_store"] is True
            assert generator.calls == 1  # the probe: no second execution
            assert scheduler.result_payload(
                first.ticket_id
            ) == scheduler.result_payload(second.ticket_id)
        store.close()

    def test_differently_configured_engines_never_share_results(self, store_path):
        """Store keys are namespaced by the engine's config fingerprint."""
        request = ExploreRequest(goal="g", dataset="netflix", num_rows=60, ldx_text=LDX)
        store = ResultStore(store_path)
        with RequestScheduler(
            LinxEngine(cdrl_config=CdrlConfig(episodes=5)), store=store, max_workers=1
        ) as scheduler:
            ticket = scheduler.submit(request)
            scheduler.wait(ticket.ticket_id, timeout=120)
        store.close()
        # Same store file, different episode budget: must re-execute, not
        # serve the 5-episode result for a 9-episode configuration.
        reopened = ResultStore(store_path)
        with RequestScheduler(
            LinxEngine(cdrl_config=CdrlConfig(episodes=9)), store=reopened, max_workers=1
        ) as scheduler:
            ticket = scheduler.submit(request)
            snapshot = scheduler.wait(ticket.ticket_id, timeout=120)
            assert snapshot["served_from_store"] is False
            payload = scheduler.result_payload(ticket.ticket_id)
            assert payload["episodes_trained"] == 9
        assert len(reopened) == 2  # both configurations stored side by side
        reopened.close()

    def test_store_spans_scheduler_restarts(self, store_path):
        request = ExploreRequest(goal="g", dataset="netflix", num_rows=60, ldx_text=LDX)
        first_gen = CountingGenerator()
        store = ResultStore(store_path)
        with RequestScheduler(
            LinxEngine(session_generator=first_gen), store=store, max_workers=1
        ) as scheduler:
            ticket = scheduler.submit(request)
            scheduler.wait(ticket.ticket_id, timeout=120)
        store.close()
        # A fresh scheduler + store on the same file serves without running.
        second_gen = CountingGenerator()
        reopened = ResultStore(store_path)
        with RequestScheduler(
            LinxEngine(session_generator=second_gen), store=reopened, max_workers=1
        ) as scheduler:
            ticket = scheduler.submit(request)
            snapshot = scheduler.wait(ticket.ticket_id, timeout=30)
            assert snapshot["served_from_store"] is True
            assert second_gen.calls == 0
        reopened.close()

    def test_semantics_version_bump_never_serves_older_rows(
        self, store_path, monkeypatch
    ):
        """A row written by code with older result semantics is re-executed."""
        import repro.engine.core as core

        request = ExploreRequest(goal="g", dataset="netflix", num_rows=60, ldx_text=LDX)
        current = core.RESULT_SEMANTICS_VERSION
        monkeypatch.setattr(core, "RESULT_SEMANTICS_VERSION", current - 1)
        old_engine = LinxEngine(session_generator=CountingGenerator())
        old_namespace = old_engine.config_fingerprint()
        store = ResultStore(store_path)
        with RequestScheduler(old_engine, store=store, max_workers=1) as scheduler:
            scheduler.wait(scheduler.submit(request).ticket_id, timeout=120)
        assert store.request_hashes(old_namespace) == [request.canonical_hash()]
        monkeypatch.setattr(core, "RESULT_SEMANTICS_VERSION", current)

        generator = CountingGenerator()
        engine = LinxEngine(session_generator=generator)
        assert engine.config_fingerprint() != old_namespace
        with RequestScheduler(engine, store=store, max_workers=1) as scheduler:
            snapshot = scheduler.wait(scheduler.submit(request).ticket_id, timeout=120)
            assert snapshot["served_from_store"] is False
            assert generator.calls == 1
        assert len(store) == 2
        store.close()


class TestReplay:
    def test_rebuild_session_from_stored_result_matches_live_trace(
        self, store_path, request_, executed
    ):
        with ResultStore(store_path) as store:
            store.put(NS, request_.canonical_hash(), executed)
            loaded = store.get(NS, request_.canonical_hash())
        table = load_dataset(
            request_.dataset, num_rows=request_.num_rows, seed=request_.dataset_seed
        )
        rebuilt = loaded.rebuild_session(table)
        live = executed.artifacts.session
        assert [node.signature() for node in rebuilt.query_nodes()] == [
            node.signature() for node in live.query_nodes()
        ]
        assert [list(op.signature()) for op in rebuilt.operations] == loaded.operations


class TestSchemaVersioning:
    def test_version_mismatch_drops_store_wholesale(self, store_path, request_, executed):
        store = ResultStore(store_path)
        store.put(NS, request_.canonical_hash(), executed)
        store.close()
        with sqlite3.connect(store_path) as connection:
            connection.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(STORE_SCHEMA_VERSION + 1),),
            )
        reopened = ResultStore(store_path)
        assert reopened.invalidated
        assert len(reopened) == 0
        assert reopened.get(NS, request_.canonical_hash()) is None
        # ... and the store is usable again at the current version.
        reopened.put(NS, request_.canonical_hash(), executed)
        assert reopened.get(NS, request_.canonical_hash()) == executed
        reopened.close()
        third = ResultStore(store_path)
        assert not third.invalidated
        assert len(third) == 1
        third.close()

    def test_corrupt_payload_behaves_like_miss_and_is_removed(
        self, store_path, request_, executed
    ):
        store = ResultStore(store_path)
        key = request_.canonical_hash()
        store.put(NS, key, executed)
        store.close()
        with sqlite3.connect(store_path) as connection:
            connection.execute(
                "UPDATE results SET payload = '{not json' WHERE request_hash = ?",
                (key,),
            )
        reopened = ResultStore(store_path)
        assert reopened.get(NS, key) is None
        assert len(reopened) == 0  # the bad row cannot keep failing
        reopened.close()

    def test_describe_reports_counters(self, store_path, request_, executed):
        with ResultStore(store_path) as store:
            store.put(NS, request_.canonical_hash(), executed)
            store.get(NS, request_.canonical_hash())
            store.get(NS, "missing")
            summary = store.describe()
        assert summary["entries"] == 1
        assert summary["writes"] == 1
        assert summary["hits"] == 1
        assert summary["misses"] == 1
        assert summary["schema_version"] == STORE_SCHEMA_VERSION
        assert summary["invalidated"] is False


class TestLeases:
    """The compare-and-claim lease table behind exactly-once execution."""

    def test_claim_is_exclusive_until_released(self, store_path):
        with ResultStore(store_path) as store:
            assert store.claim(NS, "h1", "replica-a", 30.0)
            assert not store.claim(NS, "h1", "replica-b", 30.0)
            lease = store.lease(NS, "h1")
            assert lease["replica_id"] == "replica-a"
            assert lease["expires_at"] > lease["claimed_at"]
            # Only the holder can renew or release.
            assert not store.renew(NS, "h1", "replica-b", 30.0)
            assert store.renew(NS, "h1", "replica-a", 30.0)
            assert not store.release(NS, "h1", "replica-b")
            assert store.release(NS, "h1", "replica-a")
            assert store.lease(NS, "h1") is None
            assert store.claim(NS, "h1", "replica-b", 30.0)

    def test_reclaim_by_holder_is_idempotent(self, store_path):
        with ResultStore(store_path) as store:
            assert store.claim(NS, "h1", "replica-a", 30.0)
            # The holder re-claiming its own live lease succeeds (crash-restart
            # of the same replica must not deadlock on itself).
            assert store.claim(NS, "h1", "replica-a", 30.0)

    def test_expired_lease_is_taken_over(self, store_path):
        import time as _time

        with ResultStore(store_path) as store:
            assert store.claim(NS, "h1", "replica-a", 0.1)
            _time.sleep(0.15)
            assert store.claim(NS, "h1", "replica-b", 30.0)
            assert store.lease(NS, "h1")["replica_id"] == "replica-b"
            assert store.describe()["leases"]["takeovers"] == 1
            # An expired lease cannot be renewed back by the old holder.
            assert not store.renew(NS, "h1", "replica-a", 30.0)

    def test_release_all_drops_only_that_replica(self, store_path):
        with ResultStore(store_path) as store:
            store.claim(NS, "h1", "replica-a", 30.0)
            store.claim(NS, "h2", "replica-a", 30.0)
            store.claim(NS, "h3", "replica-b", 30.0)
            assert sorted(store.leases_held("replica-a")) == ["h1", "h2"]
            assert store.release_all("replica-a") == 2
            assert store.leases_held("replica-a") == []
            assert store.leases_held("replica-b") == ["h3"]

    def test_expire_leases_sweeps_only_stale_rows(self, store_path):
        import time as _time

        with ResultStore(store_path) as store:
            store.claim(NS, "stale", "replica-a", 0.05)
            store.claim(NS, "live", "replica-b", 30.0)
            _time.sleep(0.1)
            assert store.expire_leases() == 1
            assert store.lease(NS, "stale") is None
            assert store.lease(NS, "live") is not None

    def test_leases_survive_reopen_but_not_schema_bump(self, store_path):
        store = ResultStore(store_path)
        store.claim(NS, "h1", "replica-a", 30.0)
        store.close()
        reopened = ResultStore(store_path)
        assert reopened.lease(NS, "h1")["replica_id"] == "replica-a"
        reopened.close()
