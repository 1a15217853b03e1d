"""One sqlite file shared by many threads: a locked writer, pooled readers.

The result store (:class:`~repro.engine.store.ResultStore`) is one
WAL-journaled sqlite file built on :class:`SqliteFile`, which owns the
file's concurrency and recovery:

* **The open.** The file is opened through
  :func:`~repro.reliability.open_sqlite_verified`, so a corrupt file is
  quarantine-renamed and rebuilt instead of failing construction.  The
  WAL pragmas, the owning store's schema and the ``meta`` check all run in
  that open: a file whose recorded schema version differs, or which is
  shard 0 of a store once written over several files (a recorded shard
  count other than 1), has its tables dropped wholesale — stale formats
  are discarded, never misread.
* **Writes.** One write connection behind one lock (one writer per WAL
  file is a sqlite invariant anyway).  :meth:`write` runs a callback in a
  transaction at the owning store's fault site, retrying transient
  ``database is locked`` failures from sibling processes through
  :func:`~repro.reliability.retry_sqlite` and counting them in
  :attr:`write_retries`.
* **Reads.** :meth:`read` hands each calling thread its own pooled
  ``query_only`` connection with a generous ``mmap_size``, so lookups run
  beside each other and beside the writer without taking any lock.

Like :mod:`repro.reliability`, this module is stdlib-only and imports
nothing above it, so :mod:`repro.engine` can depend on it without cycles.
"""

from __future__ import annotations

import sqlite3
import threading
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, TypeVar

from repro.reliability import (
    fault_point,
    is_transient_sqlite_error,
    open_sqlite_verified,
    retry_sqlite,
)

T = TypeVar("T")

#: ``mmap_size`` pragma applied to read connections: lookups become
#: page-cache reads instead of read() syscalls.  64 MiB comfortably covers
#: a serving store; sqlite treats it as an upper bound, not an allocation.
READ_MMAP_BYTES = 64 * 1024 * 1024


class SqliteFile:
    """One WAL sqlite file: a single write connection + lock, per-thread readers.

    Parameters
    ----------
    path:
        The sqlite file (parent directories are created).
    timeout:
        Seconds a connection waits on a locked database before giving up.
    schema_version:
        The owning store's on-disk layout version, recorded in ``meta``.
    tables:
        The owning store's tables, dropped wholesale on a meta mismatch.
    schema:
        ``CREATE ... IF NOT EXISTS`` statements run on every open.
    write_site:
        The :func:`~repro.reliability.fault_point` site every
        :meth:`write` transaction passes through.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        timeout: float,
        schema_version: int,
        tables: Sequence[str],
        schema: Sequence[str],
        write_site: str,
    ):
        self.path = Path(path)
        self.timeout = timeout
        self._schema_version = str(schema_version)
        self._tables = tuple(tables)
        self._schema = tuple(schema)
        self._write_site = write_site
        self._write_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        #: Transient ``database is locked`` write failures absorbed by the
        #: shared backoff helper (telemetry for multi-process contention).
        self.write_retries = 0
        #: True when a meta mismatch dropped existing rows on open.
        self.invalidated = False
        self._conn, quarantined = open_sqlite_verified(
            self.path, timeout, initialize=self._initialize
        )
        #: Where a corrupt pre-existing file was renamed on open, if any.
        self.quarantined_path: Optional[str] = (
            str(quarantined) if quarantined is not None else None
        )
        self._read_local = threading.local()
        self._read_conns: list[sqlite3.Connection] = []
        self._read_conns_lock = threading.Lock()
        self._closed = False

    def _initialize(self, conn: sqlite3.Connection) -> None:
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        with conn:
            conn.execute("CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)")
            recorded = dict(conn.execute("SELECT key, value FROM meta").fetchall())
            if recorded and (
                recorded.get("schema_version") != self._schema_version
                or recorded.get("num_shards", "1") != "1"
            ):
                for table in self._tables:
                    conn.execute(f"DROP TABLE IF EXISTS {table}")
                conn.execute("DELETE FROM meta")
                self.invalidated = True
            conn.execute(
                "INSERT OR REPLACE INTO meta (key, value) VALUES ('schema_version', ?)",
                (self._schema_version,),
            )
            for statement in self._schema:
                conn.execute(statement)

    def write(self, operation: Callable[[sqlite3.Connection], T]) -> T:
        """Run ``operation(conn)`` in one write transaction, retrying lock contention.

        The transaction holds the write lock, passes the owning store's
        fault site, and commits on return (rolls back on raise).
        Transient ``database is locked`` errors retry with backoff and are
        counted in :attr:`write_retries`; anything else propagates.
        """

        def attempt() -> T:
            with self._write_lock, self._conn:
                fault_point(self._write_site)
                return operation(self._conn)

        return retry_sqlite(attempt, on_retry=self._count_retry)

    def repair(self, sql: str, params: Sequence[Any]) -> None:
        """Best-effort :meth:`write` of one statement on a read path.

        Removing an unreadable row must never fail the lookup that found
        it: when the write lock stays taken through every retry, the row is
        left for the next lookup to repair.
        """
        try:
            self.write(lambda conn: conn.execute(sql, params))
        except sqlite3.OperationalError as exc:
            if not is_transient_sqlite_error(exc):
                raise

    def _count_retry(self, attempt: int, exc: BaseException, delay: float) -> None:
        with self._counter_lock:
            self.write_retries += 1

    def read(self) -> sqlite3.Connection:
        """This thread's pooled read connection (opened lazily, reused forever).

        ``query_only`` guards against accidental writes outside the write
        lock; ``mmap_size`` turns repeat lookups into page-cache reads.
        Python's sqlite3 caches prepared statements per connection, so a
        thread re-running the same lookup skips re-parsing the SQL too.
        """
        conn = getattr(self._read_local, "conn", None)
        if conn is not None:
            return conn
        if self._closed:
            raise sqlite3.ProgrammingError("cannot read from a closed sqlite file")
        conn = sqlite3.connect(
            str(self.path), timeout=self.timeout, check_same_thread=False
        )
        conn.execute(f"PRAGMA mmap_size={READ_MMAP_BYTES}")
        conn.execute("PRAGMA query_only=ON")
        self._read_local.conn = conn
        with self._read_conns_lock:
            self._read_conns.append(conn)
        return conn

    def close(self) -> None:
        self._closed = True
        with self._read_conns_lock:
            for conn in self._read_conns:
                try:
                    conn.close()
                except Exception:  # noqa: BLE001 — close is best-effort
                    pass
            self._read_conns.clear()
        self._read_local = threading.local()
        with self._write_lock:
            self._conn.close()


__all__ = ["READ_MMAP_BYTES", "SqliteFile"]
