"""Tests that pin the one-file store against the layouts of the old sharded one.

The result store once striped keys over several sqlite files. It is now
one pooled file. These cases keep what the
sharded layout promised: every key round-trips whatever the write
concurrency, batched lease operations reach every row, a file written at
one shard reopens with its rows, and a schema bump drops both a fresh
file and one left by the sharded layout.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time

import pytest

from repro.engine.store import STORE_SCHEMA_VERSION, ResultStore

NS = "shard-test-namespace"

#: Hex keys shaped like real canonical request hashes (blake2b hex).
HEX_KEYS = [
    f"{(value * 2654435761) % 2**32:08x}{value:032x}" for value in range(42)
]


def _payload(key: str) -> str:
    return json.dumps({"key": key, "value": len(key)})


def _record_shard_layout(path, num_shards: int) -> None:
    """Add the meta rows the sharded layout wrote into its shard 0 file."""
    with sqlite3.connect(path) as connection:
        connection.executemany(
            "INSERT OR REPLACE INTO meta (key, value) VALUES (?, ?)",
            [("num_shards", str(num_shards)), ("shard_index", "0")],
        )
    connection.close()


def _bump_schema_version(path) -> None:
    with sqlite3.connect(path) as connection:
        connection.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'",
            (str(STORE_SCHEMA_VERSION + 1),),
        )
    connection.close()


class TestShardedResultStore:
    @pytest.mark.parametrize("writers", [1, 3, 8])
    def test_all_keys_round_trip(self, tmp_path, writers):
        # Writer threads share the one write connection; every key lands
        # and reads back whole, before and after a re-open.
        path = tmp_path / "results.sqlite"
        failures: list[BaseException] = []

        def commit(keys):
            try:
                for key in keys:
                    store.commit_result(NS, key, _payload(key))
            except BaseException as exc:  # surfaced by the assert below
                failures.append(exc)

        with ResultStore(path) as store:
            threads = [
                threading.Thread(target=commit, args=(HEX_KEYS[i::writers],))
                for i in range(writers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not failures
            assert len(store) == len(HEX_KEYS)
            for key in HEX_KEYS:
                assert store.get_payload_text(NS, key) == _payload(key)
        with ResultStore(path) as store:
            assert not store.invalidated
            assert sorted(store.request_hashes(NS)) == sorted(HEX_KEYS)
            for key in HEX_KEYS:
                assert store.get_payload_text(NS, key) == _payload(key)

    def test_legacy_store_survives_at_one_shard(self, tmp_path):
        # A file the sharded store wrote at one shard records num_shards=1:
        # it holds the whole key space and keeps its rows.
        path = tmp_path / "results.sqlite"
        with ResultStore(path) as store:
            store.commit_result(NS, HEX_KEYS[0], _payload(HEX_KEYS[0]))
        _record_shard_layout(path, 1)
        with ResultStore(path) as store:
            assert not store.invalidated
            assert store.get_payload_text(NS, HEX_KEYS[0]) == _payload(HEX_KEYS[0])


class TestShardedLeases:
    def test_batch_expiry_sweeps_every_shard(self, tmp_path):
        # Keys that once routed to different shards are swept by the one
        # batched statement; a live lease survives it.
        with ResultStore(tmp_path / "results.sqlite") as store:
            expired = HEX_KEYS[:9]
            for key in expired:
                assert store.claim(NS, key, "replica-a", ttl=0.0001)
            live = HEX_KEYS[9]
            assert store.claim(NS, live, "replica-a", ttl=60.0)
            time.sleep(0.01)
            assert store.expire_leases() == len(expired)
            assert store.expire_leases() == 0
            assert store.lease(NS, live) is not None
            assert all(store.lease(NS, key) is None for key in expired)

    def test_release_all_fans_out_across_shards(self, tmp_path):
        with ResultStore(tmp_path / "results.sqlite") as store:
            for key in HEX_KEYS[:9]:
                assert store.claim(NS, key, "replica-a", ttl=30.0)
            assert store.claim(NS, HEX_KEYS[9], "replica-b", ttl=30.0)
            assert store.release_all("replica-a") == 9
            assert store.leases_held("replica-a") == []
            assert store.leases_held("replica-b") == [HEX_KEYS[9]]


class TestSchemaVersion:
    def test_schema_bump_drops_single_and_sharded_stores(self, tmp_path):
        # Both a plain one-file store and one that records the sharded
        # layout at one shard are dropped when the schema version moves.
        for recorded_shards in (None, 1):
            path = tmp_path / f"results-{recorded_shards}.sqlite"
            with ResultStore(path) as store:
                store.commit_result(NS, HEX_KEYS[0], _payload(HEX_KEYS[0]))
            if recorded_shards is not None:
                _record_shard_layout(path, recorded_shards)
            _bump_schema_version(path)
            with ResultStore(path) as store:
                assert store.invalidated
                assert len(store) == 0
