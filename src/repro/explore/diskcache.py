"""The persistent, sqlite-backed tier under the in-memory execution cache.

An in-memory LRU dies with its process, so every benchmark sweep, every
engine restart and every process-pool worker would start cold.
:class:`DiskCacheTier` is the durable tier that
:class:`~repro.explore.cache.ExecutionCache` reads through to on a memory
miss and writes behind to in batches (``ExecutionCache(disk=...)``): one
WAL sqlite file of serialized result views keyed by a canonical hash of
the cache key (base fingerprint + canonical plan fingerprint).  Lookups
run on per-thread read connections (see :mod:`repro.sqlite_file`), so they
never queue behind each other or behind the writer, and a write-behind
flush is one ``executemany`` transaction.  A schema-version row
invalidates a stale file wholesale when the payload or digest format
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
import struct
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Optional

import numpy as np

from repro.dataframe.column import Column
from repro.dataframe.table import DataTable
from repro.reliability import SITE_CACHE_PAYLOAD, SITE_CACHE_WRITE, fault_point
from repro.sqlite_file import SqliteFile

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
    """Persistent sqlite store of serialized execution results.

    One WAL sqlite file (see :mod:`repro.sqlite_file`): lookups run on
    per-thread pooled read connections with no lock at all, and writes
    serialize on the file's one write connection, so one tier instance is
    shared across threads; ``busy_timeout`` serialises competing write
    transactions from other processes instead of failing them.

    Parameters
    ----------
    path:
        The sqlite file (parent directories are created), conventionally
        ``<dir>/execution_cache.sqlite``.
    timeout:
        Seconds a writer waits on a locked database before giving up.
    """

    def __init__(self, path: str | Path, timeout: float = 30.0):
        self.path = Path(path)
        self._lock = threading.Lock()  # guards counters only, never I/O
        #: Lookups served from disk / fallen through / rows written.
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.flushes = 0
        # A corrupt/truncated file is quarantine-renamed and rebuilt fresh,
        # mirroring the wholesale schema-version drop — cache corruption
        # must never fail engine construction.
        self._file = SqliteFile(
            self.path,
            timeout=timeout,
            schema_version=DISK_SCHEMA_VERSION,
            tables=("entries",),
            schema=(
                "CREATE TABLE IF NOT EXISTS entries ("
                " key BLOB PRIMARY KEY,"
                " payload BLOB NOT NULL,"
                " rows INTEGER NOT NULL,"
                " created_at REAL NOT NULL)",
            ),
            write_site=SITE_CACHE_WRITE,
        )
        #: True when a version mismatch dropped existing rows on open.
        self.invalidated = self._file.invalidated
        #: Where a corrupt pre-existing file was renamed on open, if any.
        self.quarantined_path = self._file.quarantined_path

    @property
    def write_retries(self) -> int:
        """Transient ``database is locked`` write failures absorbed by retries."""
        return self._file.write_retries

    def _count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, name, getattr(self, name) + amount)

    # -- lookups ------------------------------------------------------------------
    def get(self, key: CacheKey) -> Optional[DataTable]:
        """The stored result view under *key*, or ``None``.

        An unreadable payload behaves like a miss and is removed so it
        cannot keep failing (when the write lock cannot be taken, the row
        stays for the next lookup to remove).
        """
        encoded = encode_key(key)
        row = self._file.read().execute(
            "SELECT payload FROM entries WHERE key = ?", (encoded,)
        ).fetchone()
        if row is None:
            self._count("misses")
            return None
        try:
            table = deserialize_table(row[0])
        except Exception:
            self._file.repair("DELETE FROM entries WHERE key = ?", (encoded,))
            self._count("misses")
            return None
        self._count("hits")
        return table

    def put_many(self, items: Iterable[tuple[CacheKey, DataTable]]) -> int:
        """Insert (or replace) a batch of results in one transaction.

        Transient lock contention from sibling replicas retries with
        backoff (``write_retries`` counts the absorbed failures); the
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
        self._file.write(
            lambda conn: conn.executemany(
                "INSERT OR REPLACE INTO entries (key, payload, rows, created_at)"
                " VALUES (?, ?, ?, ?)",
                rows,
            )
        )
        with self._lock:
            self.writes += len(rows)
            self.flushes += 1
        return len(rows)

    def put(self, key: CacheKey, table: DataTable) -> None:
        self.put_many([(key, table)])

    # -- maintenance ---------------------------------------------------------------
    def __len__(self) -> int:
        return self._file.read().execute("SELECT COUNT(*) FROM entries").fetchone()[0]

    def stored_rows(self) -> int:
        """Total result rows persisted (the disk analogue of ``cached_rows``)."""
        return self._file.read().execute(
            "SELECT COALESCE(SUM(rows), 0) FROM entries"
        ).fetchone()[0]

    def clear(self) -> None:
        """Drop every persisted entry (the schema version row stays)."""
        self._file.write(lambda conn: conn.execute("DELETE FROM entries"))

    def describe(self) -> dict[str, Any]:
        return {
            "path": str(self.path),
            "schema_version": DISK_SCHEMA_VERSION,
            "entries": len(self),
            "stored_rows": self.stored_rows(),
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "flushes": self.flushes,
            "write_retries": self.write_retries,
            "invalidated": self.invalidated,
            "quarantined_path": self.quarantined_path,
        }

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "DiskCacheTier":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
