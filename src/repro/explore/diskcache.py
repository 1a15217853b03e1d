"""The persistent, sqlite-backed tier under the in-memory execution cache.

An in-memory LRU dies with its process, so every benchmark sweep, every
engine restart and every process-pool worker would start cold.
:class:`DiskCacheTier` is the durable tier that
:class:`~repro.explore.cache.ExecutionCache` reads through to on a memory
miss and writes behind to in batches (``ExecutionCache(disk=...)``): a
sharded sqlite store of serialized result views keyed by a canonical hash
of the cache key (base fingerprint + canonical plan fingerprint).  Keys
stripe over ``num_shards`` WAL files by a stable digest prefix (see
:mod:`repro.shards`), each with its own write lock and per-thread read
connections, so concurrent lookups never queue behind each other or behind
a writer and write-behind flushes become one ``executemany`` batch per
shard.  A schema-version (or shard-count) row per shard invalidates a stale
shard wholesale when the payload, digest format or key→shard routing
changes (stale formats are *dropped*, never misread).

Results are serialized structurally — per-column dtype string, raw data
buffer and null-mask bytes — not as pickled object graphs, so a
deserialized view reconstructs the exact buffers and therefore the exact
fingerprint: a view read back from disk keys downstream cache lookups
identically to the view that was stored, across processes.  Failure
outcomes (negative cache) stay memory-only; an error message is cheap to
recompute and not worth a durable row.
"""

from __future__ import annotations

import hashlib
import pickle
import sqlite3
import struct
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Optional

import numpy as np

from repro.dataframe.column import Column
from repro.dataframe.table import DataTable
from repro.reliability import (
    SITE_CACHE_PAYLOAD,
    SITE_CACHE_WRITE,
    fault_point,
    retry_sqlite,
)
from repro.shards import ShardedSqlite, prepare_shard_meta

if TYPE_CHECKING:
    from .cache import CacheKey

#: Version of the on-disk layout (sqlite schema + payload encoding + cache
#: key digest format).  Bump on any incompatible change: a mismatching
#: store is dropped and recreated on open, so stale formats are ignored
#: rather than misinterpreted.  The fingerprint digest format changed in
#: the numpy-columnar rewrite (PR 3) — that is exactly the class of change
#: this guards against.  Version 2 introduced canonical-plan keys (the
#: ``("PLAN", fingerprint)`` second component) alongside per-operation
#: keys; stores written before the planner are dropped wholesale rather
#: than serving a mixed keyspace.
DISK_SCHEMA_VERSION = 2

#: Default number of buffered inserts per write-behind flush.
DEFAULT_WRITE_BATCH = 32


# -- canonical key encoding ---------------------------------------------------------------

def _feed(digest, value: Any) -> None:
    """Recursively absorb *value* into *digest* with a type-tagged encoding.

    Cache keys are nested tuples of primitives (the table fingerprint and
    the tagged plan fingerprint).  ``pickle`` output is not canonical across
    processes (its memoisation depends on object identity, e.g. string
    interning), so keys are hashed through this fixed encoding instead.
    """
    if isinstance(value, (tuple, list)):
        digest.update(b"T" + str(len(value)).encode() + b":")
        for item in value:
            _feed(digest, item)
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        digest.update(b"S" + str(len(raw)).encode() + b":" + raw)
    elif isinstance(value, bool):
        digest.update(b"B1" if value else b"B0")
    elif isinstance(value, int):
        raw = str(value).encode()
        digest.update(b"I" + str(len(raw)).encode() + b":" + raw)
    elif isinstance(value, float):
        digest.update(b"F" + struct.pack("<d", value))
    elif isinstance(value, (bytes, bytearray)):
        digest.update(b"Y" + str(len(value)).encode() + b":" + bytes(value))
    elif value is None:
        digest.update(b"N")
    else:
        raise TypeError(f"cannot canonically encode {type(value).__name__} in cache key")


def encode_key(key: CacheKey) -> bytes:
    """The canonical 160-bit digest a cache key is stored under."""
    digest = hashlib.blake2b(digest_size=20)
    _feed(digest, key)
    return digest.digest()


# -- structural table serialization -------------------------------------------------------

def serialize_table(table: DataTable) -> bytes:
    """Encode *table* column-by-column from its raw buffers.

    Typed columns store ``(dtype string, numpy dtype str, data bytes, mask
    bytes)``; object-backed columns (coercion-bypassing mixed/NUL columns)
    store their Python value list.  The encoding reconstructs buffers — and
    therefore fingerprints — exactly.
    """
    columns: list[tuple] = []
    for name in table.columns:
        column = table.column(name)
        data, mask = column.buffers()
        if data.dtype == object:
            columns.append(("object", name, column.dtype, list(column.values)))
        else:
            columns.append(
                (
                    "typed",
                    name,
                    column.dtype,
                    data.dtype.str,
                    data.tobytes(),
                    mask.tobytes(),
                )
            )
    return pickle.dumps((table.name, len(table), columns), protocol=4)


def deserialize_table(payload: bytes) -> DataTable:
    """Rebuild a :func:`serialize_table` payload into a :class:`DataTable`."""
    name, length, columns = pickle.loads(payload)
    rebuilt: list[Column] = []
    for entry in columns:
        if entry[0] == "typed":
            _, col_name, dtype, dtype_str, data_bytes, mask_bytes = entry
            data = np.frombuffer(data_bytes, dtype=np.dtype(dtype_str))
            mask = np.frombuffer(mask_bytes, dtype=bool)
            rebuilt.append(Column._from_buffers(col_name, dtype, data, mask))
        else:
            _, col_name, dtype, values = entry
            data = np.empty(len(values), dtype=object)
            data[:] = list(values)
            mask = np.fromiter(
                (value is None for value in values), dtype=bool, count=len(values)
            )
            rebuilt.append(Column._from_buffers(col_name, dtype, data, mask))
    table = DataTable(rebuilt, name=name)
    if len(table) != length:
        raise ValueError(
            f"corrupt cache payload: expected {length} rows, rebuilt {len(table)}"
        )
    return table


# -- the disk tier ------------------------------------------------------------------------

class DiskCacheTier:
    """Persistent, sharded sqlite store of serialized execution results.

    Keys stripe over ``num_shards`` WAL files by a stable digest prefix,
    so writers to different shards never collide and each shard's WAL
    journaling still allows concurrent readers alongside its one writer;
    ``busy_timeout`` serialises competing write transactions on the same
    shard instead of failing them.  Lookups run on per-thread pooled read
    connections with no lock at all; writes serialize per shard on that
    shard's write lock, so one tier instance is shared across threads.

    Parameters
    ----------
    path:
        The sqlite file of shard 0 (parent directories are created).
        Conventionally ``<dir>/execution_cache.sqlite``; shards 1..N-1
        live at ``execution_cache.sqlite.shard<k>`` alongside it.
    timeout:
        Seconds a writer waits on a locked database before giving up.
    num_shards:
        How many sqlite files the key space is striped over.  ``1``
        (default) keeps the legacy single-file layout; a cache opened at a
        different count than it was written with is dropped wholesale
        (per-shard meta guards the routing — a dropped cache repopulates,
        it never mis-routes).
    """

    def __init__(self, path: str | Path, timeout: float = 30.0, num_shards: int = 1):
        self.path = Path(path)
        self.num_shards = num_shards
        self._lock = threading.Lock()  # guards counters only, never I/O
        #: Lookups served from disk / fallen through / rows written.
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.flushes = 0
        #: Transient ``database is locked`` failures absorbed by the shared
        #: backoff helper (telemetry for multi-replica write contention).
        self.write_retries = 0
        #: True when a version/shard-count mismatch dropped existing rows.
        self.invalidated = False
        # A corrupt/truncated shard file is quarantine-renamed and rebuilt
        # fresh, mirroring the wholesale schema-version drop — cache
        # corruption must never fail engine construction.
        self._pool = ShardedSqlite(self.path, num_shards, timeout, self._initialize)
        #: Where a corrupt pre-existing shard file was renamed on open, if any.
        quarantined = self._pool.quarantined_paths()
        self.quarantined_path: Optional[str] = quarantined[0] if quarantined else None

    # -- schema -------------------------------------------------------------------
    @property
    def _conn(self) -> sqlite3.Connection:
        """Shard 0's write connection (compatibility handle for tests/tools)."""
        return self._pool.shards[0].conn

    def _initialize(self, conn: sqlite3.Connection, shard_index: int) -> None:
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        with conn:
            if prepare_shard_meta(
                conn,
                schema_version=DISK_SCHEMA_VERSION,
                num_shards=self.num_shards,
                shard_index=shard_index,
            ):
                # A stale digest/payload format or key→shard routing: drop
                # everything, never attempt to reinterpret old rows.
                conn.execute("DROP TABLE IF EXISTS entries")
                self.invalidated = True
            conn.execute(
                "CREATE TABLE IF NOT EXISTS entries ("
                " key BLOB PRIMARY KEY,"
                " payload BLOB NOT NULL,"
                " rows INTEGER NOT NULL,"
                " created_at REAL NOT NULL)"
            )

    # -- lookups ------------------------------------------------------------------
    def get(self, key: CacheKey) -> Optional[DataTable]:
        """The stored result view under *key*, or ``None``."""
        encoded = encode_key(key)
        shard = self._pool.shard_for_digest(encoded)
        row = shard.read_conn().execute(
            "SELECT payload FROM entries WHERE key = ?", (encoded,)
        ).fetchone()
        if row is None:
            with self._lock:
                self.misses += 1
            return None
        try:
            table = deserialize_table(row[0])
        except Exception:
            # An unreadable payload behaves like a miss (and is removed so
            # it cannot keep failing).
            with shard.write_lock, shard.conn:
                shard.conn.execute("DELETE FROM entries WHERE key = ?", (encoded,))
            with self._lock:
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
        return table

    def put_many(self, items: Iterable[tuple[CacheKey, DataTable]]) -> int:
        """Insert (or replace) a batch of results, one transaction per shard.

        The batch is partitioned by owning shard and lands as one
        ``executemany`` per shard file, so a flush touches each shard's
        write lock at most once.  Transient lock contention from sibling
        replicas retries with backoff (``write_retries`` counts the
        absorbed failures); the
        :data:`~repro.reliability.SITE_CACHE_PAYLOAD` seam lets the fault
        harness tear a payload mid-write, which :meth:`get` must then
        repair as a miss.
        """
        now = time.time()
        rows = []
        for key, table in items:
            payload = serialize_table(table)
            spec = fault_point(SITE_CACHE_PAYLOAD)
            if spec is not None:
                # A torn write: persist only the first half of the payload,
                # exactly what a crash mid-write leaves behind.
                payload = payload[: max(1, len(payload) // 2)]
            rows.append((encode_key(key), payload, len(table), now))
        if not rows:
            return 0

        def count_retry(attempt: int, exc: BaseException, delay: float) -> None:
            with self._lock:
                self.write_retries += 1

        groups = self._pool.group_by_shard(
            rows, lambda row: self._pool.shard_for_digest(row[0])
        )
        for shard, batch in groups.items():

            def insert(shard=shard, batch=batch) -> None:
                with shard.write_lock, shard.conn:
                    fault_point(SITE_CACHE_WRITE)
                    shard.conn.executemany(
                        "INSERT OR REPLACE INTO entries (key, payload, rows, created_at)"
                        " VALUES (?, ?, ?, ?)",
                        batch,
                    )
                with self._lock:
                    self.writes += len(batch)

            retry_sqlite(insert, on_retry=count_retry)
        with self._lock:
            self.flushes += 1
        return len(rows)

    def put(self, key: CacheKey, table: DataTable) -> None:
        self.put_many([(key, table)])

    # -- maintenance ---------------------------------------------------------------
    def __len__(self) -> int:
        return sum(
            int(
                shard.read_conn()
                .execute("SELECT COUNT(*) FROM entries")
                .fetchone()[0]
            )
            for shard in self._pool.shards
        )

    def stored_rows(self) -> int:
        """Total result rows persisted (the disk analogue of ``cached_rows``)."""
        return sum(
            int(
                shard.read_conn()
                .execute("SELECT COALESCE(SUM(rows), 0) FROM entries")
                .fetchone()[0]
            )
            for shard in self._pool.shards
        )

    def clear(self) -> None:
        """Drop every persisted entry (the schema version rows stay)."""
        for shard in self._pool.shards:
            with shard.write_lock, shard.conn:
                shard.conn.execute("DELETE FROM entries")

    def shard_stats(self) -> list[dict[str, Any]]:
        """Per-shard occupancy (one row per shard file, for telemetry)."""
        return [
            {
                "shard": shard.index,
                "path": str(shard.path),
                "entries": int(
                    shard.read_conn()
                    .execute("SELECT COUNT(*) FROM entries")
                    .fetchone()[0]
                ),
            }
            for shard in self._pool.shards
        ]

    def describe(self) -> dict[str, Any]:
        return {
            "path": str(self.path),
            "schema_version": DISK_SCHEMA_VERSION,
            "num_shards": self.num_shards,
            "entries": len(self),
            "stored_rows": self.stored_rows(),
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "flushes": self.flushes,
            "write_retries": self.write_retries,
            "invalidated": self.invalidated,
            "quarantined_path": self.quarantined_path,
            "shards": self.shard_stats(),
        }

    def close(self) -> None:
        self._pool.close()

    def __enter__(self) -> "DiskCacheTier":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
