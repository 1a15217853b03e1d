"""Tests for the tiered (memory + sqlite) execution cache."""

from __future__ import annotations

import multiprocessing
import sqlite3

import numpy as np
import pytest

from eager_oracle import run_one
from repro.dataframe.column import Column
from repro.dataframe.table import DataTable
from repro.datasets import load_dataset
from repro.engine import ExploreRequest, LinxEngine
from repro.cdrl.agent import CdrlConfig
from repro.explore.cache import ExecutionCache
from repro.explore.diskcache import (
    DISK_SCHEMA_VERSION,
    DiskCacheTier,
    deserialize_table,
    encode_key,
    serialize_table,
)
from repro.explore.executor import ExecutionError, QueryExecutor
from repro.explore.operations import FilterOperation, GroupAggOperation
from repro.plan import canonicalize, plan_from_operations


@pytest.fixture()
def flights():
    return load_dataset("flights", num_rows=300)


@pytest.fixture()
def db_path(tmp_path):
    return tmp_path / "execution_cache.sqlite"


def plan_for(operation):
    """The canonical one-operation plan a step on the base view is keyed by."""
    return canonicalize(plan_from_operations([operation]))


OPS = [
    FilterOperation("airline", "eq", "AA"),
    FilterOperation("distance", "gt", 500),
    GroupAggOperation("airline", "mean", "departure_delay"),
    GroupAggOperation("month", "count", "month"),
]


class TestSerialization:
    def test_typed_table_round_trips_with_fingerprint(self, flights):
        rebuilt = deserialize_table(serialize_table(flights))
        assert rebuilt == flights
        assert rebuilt.fingerprint() == flights.fingerprint()
        assert rebuilt.schema() == flights.schema()

    def test_object_backed_column_round_trips(self):
        mixed = Column.from_raw("mixed", [1, "two", None, 3.5, "four"])
        table = DataTable([mixed, Column("n", [1, 2, 3, 4, 5])], name="adhoc")
        rebuilt = deserialize_table(serialize_table(table))
        assert rebuilt == table
        assert rebuilt.fingerprint() == table.fingerprint()
        assert rebuilt.column("mixed").values == mixed.values

    def test_empty_result_round_trips(self, flights):
        empty = flights.filter_rows(np.zeros(len(flights), dtype=bool))
        rebuilt = deserialize_table(serialize_table(empty))
        assert rebuilt == empty
        assert len(rebuilt) == 0
        assert rebuilt.fingerprint() == empty.fingerprint()

    def test_key_encoding_is_stable_and_discriminating(self, flights):
        key_a = ExecutionCache.plan_key_for(flights, plan_for(OPS[0]))
        key_b = ExecutionCache.plan_key_for(flights, plan_for(OPS[1]))
        assert encode_key(key_a) == encode_key(key_a)
        assert encode_key(key_a) != encode_key(key_b)


class TestDiskRoundTrip:
    def test_second_process_reads_first_processs_results(self, flights, db_path):
        cache = ExecutionCache(disk=db_path)
        executor = QueryExecutor(cache=cache)
        first = [run_one(executor, flights, op) for op in OPS]
        cache.close()  # close() flushes

        warm = ExecutionCache(disk=db_path)
        executor2 = QueryExecutor(cache=warm)
        second = [run_one(executor2, flights, op) for op in OPS]
        for a, b in zip(first, second):
            assert a == b
            assert a.fingerprint() == b.fingerprint()
        summary = warm.describe()
        assert summary["disk_hits"] == len(OPS)
        assert summary["disk_misses"] == 0
        assert warm.stats.hits == len(OPS)
        warm.close()

    def test_write_behind_batches_and_flushes(self, flights, db_path):
        cache = ExecutionCache(disk=db_path, write_batch_size=3)
        executor = QueryExecutor(cache=cache)
        run_one(executor, flights, OPS[0])
        run_one(executor, flights, OPS[1])
        assert cache.pending_writes == 2
        assert len(cache.disk) == 0
        run_one(executor, flights, OPS[2])  # hits the batch size -> auto flush
        assert cache.pending_writes == 0
        assert len(cache.disk) == 3
        assert cache.disk.flushes == 1
        cache.close()

    def test_pending_entry_survives_memory_eviction(self, flights, db_path):
        cache = ExecutionCache(disk=db_path, max_entries=1, write_batch_size=100)
        executor = QueryExecutor(cache=cache)
        first = run_one(executor, flights, OPS[0])
        run_one(executor, flights, OPS[1])  # evicts OPS[0] from the memory LRU
        assert cache.stats.evictions >= 1
        again = run_one(executor, flights, OPS[0])  # served from the pending buffer
        assert again is first
        assert cache.disk.hits == 0
        cache.close()

    def test_errors_stay_memory_only(self, flights, db_path):
        cache = ExecutionCache(disk=db_path)
        executor = QueryExecutor(cache=cache)
        bad = GroupAggOperation("airline", "mean", "airline")  # mean over strings
        with pytest.raises(ExecutionError):
            run_one(executor, flights, bad)
        cache.flush()
        assert cache.negative_entries == 1
        assert len(cache.disk) == 0
        cache.close()


class TestVersionInvalidation:
    def test_version_mismatch_drops_entries(self, flights, db_path):
        cache = ExecutionCache(disk=db_path)
        executor = QueryExecutor(cache=cache)
        for op in OPS:
            run_one(executor, flights, op)
        cache.close()

        with sqlite3.connect(db_path) as conn:
            conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(DISK_SCHEMA_VERSION + 1),),
            )

        reopened = DiskCacheTier(db_path)
        assert reopened.invalidated
        assert len(reopened) == 0
        with sqlite3.connect(db_path) as conn:
            version = conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()[0]
        assert version == str(DISK_SCHEMA_VERSION)
        reopened.close()

    def test_matching_version_keeps_entries(self, flights, db_path):
        cache = ExecutionCache(disk=db_path)
        executor = QueryExecutor(cache=cache)
        for op in OPS:
            run_one(executor, flights, op)
        cache.close()
        reopened = DiskCacheTier(db_path)
        assert not reopened.invalidated
        assert len(reopened) == len(OPS)
        reopened.close()


def _writer_process(db_path: str, which: int) -> None:
    table = load_dataset("flights", num_rows=300)
    cache = ExecutionCache(disk=db_path, write_batch_size=2)
    executor = QueryExecutor(cache=cache)
    ops = OPS if which == 0 else [
        FilterOperation("airline", "eq", "DL"),
        FilterOperation("distance", "le", 800),
        GroupAggOperation("day_of_week", "mean", "arrival_delay"),
        GroupAggOperation("month", "count", "month"),  # overlaps with OPS
    ]
    for op in ops:
        run_one(executor, table, op)
    cache.close()


class TestConcurrentWriters:
    def test_two_processes_share_one_store(self, flights, db_path):
        processes = [
            multiprocessing.Process(target=_writer_process, args=(str(db_path), which))
            for which in (0, 1)
        ]
        for proc in processes:
            proc.start()
        for proc in processes:
            proc.join(timeout=120)
            assert proc.exitcode == 0
        tier = DiskCacheTier(db_path)
        # 4 + 4 operations with one overlap -> 7 distinct entries.
        assert len(tier) == 7
        for op in OPS:
            key = ExecutionCache.plan_key_for(flights, plan_for(op))
            assert tier.get(key) is not None
        tier.close()


class TestDescribe:
    def test_describe_covers_both_tiers(self, flights, db_path):
        cache = ExecutionCache(disk=db_path, write_batch_size=2)
        executor = QueryExecutor(cache=cache)
        for op in OPS:
            run_one(executor, flights, op)
            run_one(executor, flights, op)  # memory hit
        summary = cache.describe()
        assert summary["tiers"] == "memory+disk"
        assert summary["hits"] == len(OPS)
        assert summary["misses"] == len(OPS)
        assert summary["entries"] == len(OPS)
        assert summary["disk_writes"] >= 2
        assert summary["pending_writes"] == len(OPS) - summary["disk_writes"]
        assert summary["disk_schema_version"] == DISK_SCHEMA_VERSION
        cache.flush()
        assert cache.describe()["pending_writes"] == 0
        assert cache.describe()["disk_entries"] == len(OPS)
        cache.close()


class TestEngineIntegration:
    def test_engine_warm_starts_from_disk(self, db_path):
        request = ExploreRequest(
            goal="Explore delays",
            dataset="flights",
            num_rows=200,
            ldx_text="ROOT CHILDREN <A1>\nA1 LIKE [G,.*]",
            episodes=8,
            seed=3,
        )
        config = CdrlConfig(episodes=8)
        cold = LinxEngine(cdrl_config=config, disk_cache_path=db_path)
        first = cold.explore(request)
        assert cold.cache_stats()["disk_entries"] > 0

        warm = LinxEngine(cdrl_config=config, disk_cache_path=db_path)
        second = warm.explore(request)
        stats = warm.cache_stats()
        assert stats["disk_hits"] > 0
        assert first.operations == second.operations

    def test_process_pool_matches_thread_pool(self, db_path):
        requests = [
            ExploreRequest(
                goal="Explore delays",
                dataset="flights",
                num_rows=200,
                ldx_text="ROOT CHILDREN <A1>\nA1 LIKE [G,.*]",
                episodes=6,
                seed=seed,
                request_id=f"r{seed}",
            )
            for seed in (1, 2)
        ]
        config = CdrlConfig(episodes=6)
        engine = LinxEngine(cdrl_config=config, disk_cache_path=db_path)
        via_processes = engine.explore_many(requests, workers="process", max_workers=2)
        via_threads = LinxEngine(cdrl_config=config).explore_many(
            requests, workers="thread"
        )
        for p, t in zip(via_processes, via_threads):
            assert p.operations == t.operations
            assert p.fully_compliant == t.fully_compliant
        # Process results are lossless JSON round-trips without live artifacts.
        assert via_processes[0].artifacts is None
        assert via_processes[0].to_dict() == type(via_processes[0]).from_dict(
            via_processes[0].to_dict()
        ).to_dict()

    def test_process_pool_rejects_custom_stages(self):
        class NullRenderer:
            name = "null"

            def render(self, session, goal):
                raise NotImplementedError

        engine = LinxEngine(notebook_renderer=NullRenderer())
        with pytest.raises(ValueError):
            engine.explore_many(
                [ExploreRequest(goal="g", dataset="flights")], workers="process"
            )
