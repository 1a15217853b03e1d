"""Tests for the persistent result store (idempotency, replay, versioning, leases)."""

from __future__ import annotations

import json
import sqlite3
import threading
import time

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
from store_helpers import contains, delete, get, get_payload, put

LDX = "ROOT CHILDREN <A1>\nA1 LIKE [G,.*]"

#: Namespace used by direct-store tests (the scheduler uses the engine's
#: config fingerprint).
NS = "test-namespace"

#: Hex keys shaped like real canonical request hashes (blake2b hex).
HEX_KEYS = [
    f"{(value * 2654435761) % 2**32:08x}{value:032x}" for value in range(42)
]


def _payload(key: str) -> str:
    return json.dumps({"key": key, "value": len(key)})


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
            put(store, NS, request_.canonical_hash(), executed)
            loaded = get(store, NS, request_.canonical_hash())
        assert loaded == executed
        assert loaded.to_dict() == executed.to_dict()
        assert loaded.artifacts is None

    def test_payload_is_canonical_json(self, store_path, request_, executed):
        with ResultStore(store_path) as store:
            put(store, NS, request_.canonical_hash(), executed)
            payload = get_payload(store, NS, request_.canonical_hash())
        assert payload == json.loads(json.dumps(executed.to_dict()))

    def test_get_unknown_hash_is_a_miss(self, store_path):
        with ResultStore(store_path) as store:
            assert get(store, NS, "no-such-hash") is None
            assert store.misses == 1
            assert store.hits == 0

    def test_survives_reopen(self, store_path, request_, executed):
        store = ResultStore(store_path)
        put(store, NS, request_.canonical_hash(), executed)
        store.close()
        reopened = ResultStore(store_path)
        assert not reopened.invalidated
        assert len(reopened) == 1
        assert get(reopened, NS, request_.canonical_hash()) == executed
        reopened.close()

    def test_contains_delete_clear(self, store_path, request_, executed):
        with ResultStore(store_path) as store:
            key = request_.canonical_hash()
            assert not contains(store, NS, key)
            put(store, NS, key, executed)
            assert contains(store, NS, key)
            assert store.request_hashes() == [key]
            assert store.request_hashes(NS) == [key]
            assert store.request_hashes("other") == []
            assert delete(store, NS, key)
            assert not delete(store, NS, key)
            put(store, NS, key, executed)
            store.clear()
            assert len(store) == 0

    def test_namespaces_isolate_identical_hashes(self, store_path, request_, executed):
        """One hash stored under two namespaces is two independent rows."""
        with ResultStore(store_path) as store:
            key = request_.canonical_hash()
            put(store, "config-a", key, executed)
            assert get(store, "config-b", key) is None
            put(store, "config-b", key, executed)
            assert len(store) == 2
            assert delete(store, "config-a", key)
            assert get(store, "config-b", key) == executed

    def test_prune_removes_only_old_rows(self, store_path, request_, executed):
        with ResultStore(store_path) as store:
            key = request_.canonical_hash()
            put(store, NS, key, executed)
            put(store, NS, "fresh-hash", executed)
            # Age the first row artificially; prune must be selective.
            with sqlite3.connect(store_path) as connection:
                connection.execute(
                    "UPDATE results SET created_at = created_at - 3600"
                    " WHERE request_hash = ?",
                    (key,),
                )
            assert store.prune(older_than=1800) == 1
            assert store.pruned == 1
            assert not contains(store, NS, key)
            assert contains(store, NS, "fresh-hash")
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
            put(store, NS, request_.canonical_hash(), executed)
            loaded = get(store, NS, request_.canonical_hash())
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
        put(store, NS, request_.canonical_hash(), executed)
        store.close()
        with sqlite3.connect(store_path) as connection:
            connection.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(STORE_SCHEMA_VERSION + 1),),
            )
        reopened = ResultStore(store_path)
        assert reopened.invalidated
        assert len(reopened) == 0
        assert get(reopened, NS, request_.canonical_hash()) is None
        # ... and the store is usable again at the current version.
        put(reopened, NS, request_.canonical_hash(), executed)
        assert get(reopened, NS, request_.canonical_hash()) == executed
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
        put(store, NS, key, executed)
        store.close()
        with sqlite3.connect(store_path) as connection:
            connection.execute(
                "UPDATE results SET payload = '{not json' WHERE request_hash = ?",
                (key,),
            )
        reopened = ResultStore(store_path)
        assert get(reopened, NS, key) is None
        assert len(reopened) == 0  # the bad row cannot keep failing
        reopened.close()

    def test_corrupt_payload_text_is_removed_as_miss(self, store_path):
        with ResultStore(store_path) as store:
            key = HEX_KEYS[0]
            store.commit_result(NS, key, _payload(key))
            with sqlite3.connect(store_path) as connection:
                connection.execute(
                    "UPDATE results SET payload = ? WHERE request_hash = ?",
                    (b"{not json", key),
                )
            assert store.get_payload_text(NS, key) is None
            assert store.misses == 1
            assert len(store) == 0

    def test_repair_under_a_held_write_lock_is_a_miss(self, store_path):
        # Another process holds the file's write lock: removing the
        # unreadable row cannot happen now, but the lookup must still be a
        # plain miss, and the next lookup repairs the row.
        with ResultStore(store_path, timeout=0.05) as store:
            key = HEX_KEYS[0]
            store.commit_result(NS, key, _payload(key))
            blocker = sqlite3.connect(store_path, isolation_level=None)
            try:
                blocker.execute(
                    "UPDATE results SET payload = ? WHERE request_hash = ?",
                    (b"\xff\xfe not utf-8", key),
                )
                blocker.execute("BEGIN IMMEDIATE")
                assert store.get_payload_text(NS, key) is None
                assert store.misses == 1
                assert store.write_retries > 0
                blocker.execute("ROLLBACK")
            finally:
                blocker.close()
            assert len(store) == 1  # left for the next lookup...
            assert store.get_payload_text(NS, key) is None
            assert len(store) == 0  # ...which removes it
            assert store.misses == 2

    def test_describe_reports_counters(self, store_path, request_, executed):
        with ResultStore(store_path) as store:
            put(store, NS, request_.canonical_hash(), executed)
            get(store, NS, request_.canonical_hash())
            get(store, NS, "missing")
            summary = store.describe()
        assert summary["entries"] == 1
        assert summary["writes"] == 1
        assert summary["hits"] == 1
        assert summary["misses"] == 1
        assert summary["schema_version"] == STORE_SCHEMA_VERSION
        assert summary["invalidated"] is False


def _write_single_file_v3_store(path, rows, *, num_shards=1):
    """A store file laid out exactly as the sharded store wrote shard 0."""
    with sqlite3.connect(path) as connection:
        connection.execute("CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT)")
        connection.executemany(
            "INSERT INTO meta (key, value) VALUES (?, ?)",
            [
                ("schema_version", str(STORE_SCHEMA_VERSION)),
                ("num_shards", str(num_shards)),
                ("shard_index", "0"),
            ],
        )
        connection.execute(
            "CREATE TABLE results ("
            " namespace TEXT NOT NULL, request_hash TEXT NOT NULL,"
            " request_id TEXT NOT NULL, dataset TEXT NOT NULL,"
            " payload BLOB NOT NULL, created_at REAL NOT NULL,"
            " PRIMARY KEY (namespace, request_hash))"
        )
        connection.execute(
            "CREATE TABLE leases ("
            " namespace TEXT NOT NULL, request_hash TEXT NOT NULL,"
            " replica_id TEXT NOT NULL, expires_at REAL NOT NULL,"
            " claimed_at REAL NOT NULL, PRIMARY KEY (namespace, request_hash))"
        )
        connection.executemany(
            "INSERT INTO results VALUES (?, ?, '', '', ?, ?)",
            [(NS, key, _payload(key).encode("utf-8"), time.time()) for key in rows],
        )
    connection.close()


class TestMigration:
    def test_single_file_store_reopens_with_its_rows(self, store_path):
        _write_single_file_v3_store(store_path, HEX_KEYS[:5])
        with ResultStore(store_path) as store:
            assert store.invalidated is False
            assert sorted(store.request_hashes(NS)) == sorted(HEX_KEYS[:5])
            for key in HEX_KEYS[:5]:
                assert store.get_payload_text(NS, key) == _payload(key)

    def test_multi_shard_file_is_dropped_wholesale(self, store_path):
        # Shard 0 of a 4-shard store holds only a quarter of the keys: it
        # is dropped, never served as if it were the whole store.
        _write_single_file_v3_store(store_path, HEX_KEYS[:5], num_shards=4)
        with ResultStore(store_path) as store:
            assert store.invalidated is True
            assert len(store) == 0
            store.commit_result(NS, HEX_KEYS[0], _payload(HEX_KEYS[0]))
        with ResultStore(store_path) as store:
            assert store.invalidated is False
            assert store.get_payload_text(NS, HEX_KEYS[0]) == _payload(HEX_KEYS[0])


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
            for key in HEX_KEYS[:9]:
                assert store.claim(NS, key, "replica-a", 30.0)
            assert store.claim(NS, HEX_KEYS[9], "replica-b", 30.0)
            # Oldest claim first.
            assert store.leases_held("replica-a") == HEX_KEYS[:9]
            assert store.release_all("replica-a") == 9
            assert store.lease_releases == 9
            assert store.leases_held("replica-a") == []
            assert store.leases_held("replica-b") == [HEX_KEYS[9]]

    def test_expire_leases_sweeps_only_stale_rows(self, store_path):
        import time as _time

        with ResultStore(store_path) as store:
            for key in HEX_KEYS[:9]:
                store.claim(NS, key, "replica-a", 0.05)
            store.claim(NS, "live", "replica-b", 30.0)
            _time.sleep(0.1)
            assert store.expire_leases() == 9
            assert store.expire_leases() == 0
            assert store.lease(NS, HEX_KEYS[0]) is None
            assert store.lease(NS, "live") is not None

    def test_leases_survive_reopen_but_not_schema_bump(self, store_path):
        store = ResultStore(store_path)
        store.claim(NS, "h1", "replica-a", 30.0)
        store.close()
        reopened = ResultStore(store_path)
        assert reopened.lease(NS, "h1")["replica_id"] == "replica-a"
        reopened.close()
        with sqlite3.connect(store_path) as connection:
            connection.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(STORE_SCHEMA_VERSION + 1),),
            )
        connection.close()
        bumped = ResultStore(store_path)
        assert bumped.invalidated
        assert bumped.lease(NS, "h1") is None
        bumped.close()

    def test_commit_result_releases_lease_atomically(self, store_path):
        with ResultStore(store_path) as store:
            key = HEX_KEYS[0]
            assert store.claim(NS, key, "replica-a", ttl=30.0)
            released = store.commit_result(
                NS, key, _payload(key), replica_id="replica-a"
            )
            assert released is True
            assert store.lease(NS, key) is None
            assert store.lease_releases == 1
            # Without a lease (or a replica_id), commit still stores the
            # row and reports nothing released.
            assert store.commit_result(NS, HEX_KEYS[1], _payload(HEX_KEYS[1])) is False

    def test_commit_result_leaves_other_replicas_lease_alone(self, store_path):
        with ResultStore(store_path) as store:
            key = HEX_KEYS[0]
            assert store.claim(NS, key, "replica-a", ttl=30.0)
            assert store.commit_result(
                NS, key, _payload(key), replica_id="replica-b"
            ) is False
            assert store.lease(NS, key)["replica_id"] == "replica-a"

    def test_renew_many_extends_only_held_live_leases(self, store_path):
        with ResultStore(store_path) as store:
            held = HEX_KEYS[:9]
            for key in held:
                assert store.claim(NS, key, "replica-a", ttl=30.0)
            other = HEX_KEYS[9]
            assert store.claim(NS, other, "replica-b", ttl=30.0)
            before = {key: store.lease(NS, key)["expires_at"] for key in held}
            renewed = store.renew_many(NS, held + [other], "replica-a", ttl=120.0)
            assert renewed == len(held)
            assert store.lease_renewals == len(held)
            for key in held:
                assert store.lease(NS, key)["expires_at"] > before[key]
            # replica-b's lease was untouched by replica-a's batch renew.
            assert store.lease(NS, other)["expires_at"] < before[held[0]] + 120.0

    def test_renew_many_of_nothing_is_a_no_op(self, store_path):
        with ResultStore(store_path) as store:
            assert store.renew_many(NS, [], "replica-a", ttl=30.0) == 0

    def test_expiry_sweep_does_not_inflate_takeover_counters(self, store_path):
        # A swept (deleted) lease leaves no row, so a later claim is a
        # plain claim, not a takeover — takeovers count only live-row
        # replacements of a *different* replica.
        with ResultStore(store_path) as store:
            key = HEX_KEYS[0]
            assert store.claim(NS, key, "replica-a", ttl=0.0001)
            time.sleep(0.01)
            assert store.expire_leases() == 1
            assert store.claim(NS, key, "replica-b", ttl=30.0)
            assert store.lease_takeovers == 0
            # An expired-but-unswept lease, by contrast, IS a takeover.
            key2 = HEX_KEYS[1]
            assert store.claim(NS, key2, "replica-a", ttl=0.0001)
            time.sleep(0.01)
            assert store.claim(NS, key2, "replica-b", ttl=30.0)
            assert store.lease_takeovers == 1


class TestConcurrentReads:
    def test_parallel_readers_see_consistent_rows(self, store_path):
        # 8 reader threads over per-thread pooled connections while a
        # writer keeps committing: every read must return either a miss or
        # the full, valid payload — never a torn row.
        with ResultStore(store_path) as store:
            keys = HEX_KEYS[:40]
            for key in keys[:20]:
                store.commit_result(NS, key, _payload(key))
            failures: list[str] = []
            stop = threading.Event()

            def read_loop():
                while not stop.is_set():
                    for key in keys:
                        text = store.get_payload_text(NS, key)
                        if text is not None and json.loads(text)["key"] != key:
                            failures.append(key)

            readers = [threading.Thread(target=read_loop) for _ in range(8)]
            for thread in readers:
                thread.start()
            for key in keys[20:]:
                store.commit_result(NS, key, _payload(key))
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
            assert not failures
            assert len(store) == len(keys)
