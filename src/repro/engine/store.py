"""A persistent sqlite store of explore results keyed by request hash.

The scheduler executes a request at most once: results land here under
``(namespace, canonical_hash)``, so an identical resubmission — same goal,
dataset, seeds, episode budget and stage selection — is served from disk
byte-for-byte instead of re-training, and
:meth:`ExploreResult.rebuild_session` turns the stored operation trace back
into a live session for warm replay.  The *namespace* is the submitting
engine's :meth:`~repro.engine.core.LinxEngine.config_fingerprint`, so one
store shared across servers with different configurations never serves
one configuration's results for another's requests; the composite primary
key doubles as the covering index for the hot lookup path.

Beyond results, the store is the cluster's **coordination point**: the
``leases`` table implements single-transaction compare-and-claim
(:meth:`claim` / :meth:`renew` / :meth:`release`), so N server replicas
sharing one store never execute the same canonical hash concurrently — and
a lease whose holder stops renewing (a crashed replica) expires and is
*taken over* by the next replica to ask.

The store is one WAL sqlite file (see :mod:`repro.sqlite_file`): writes
serialize on one write connection, and every reader thread gets its own
pooled connection, so concurrent lookups run beside each other and beside
the writer instead of queueing on a lock.  One transaction per commit (a
crashed request never leaves a half-written row), and a ``meta`` row that
drops a stale store *wholesale* on a version mismatch — old formats are
discarded, never misread.  A corrupt file is quarantine-renamed and
rebuilt on open, and every write rides
:func:`~repro.reliability.retry_sqlite` so transient ``database is
locked`` contention between replicas degrades to a retry.  Payloads are
the canonical JSON wire format (:meth:`ExploreResult.to_dict`) stored as
UTF-8 blobs; :meth:`get_payload_text` hands the serving tier the raw JSON
text so the hot dedup path never re-parses a stored result.  Long-running
servers bound disk growth with :meth:`prune`, the disk analogue of the
scheduler's terminal-ticket GC.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path
from typing import Any, Iterable, Optional

from repro.reliability import (
    SITE_CLAIM_ACQUIRED,
    SITE_STORE_COMMIT,
    SITE_STORE_WRITE,
    fault_point,
)
from repro.sqlite_file import SqliteFile

#: Version of the on-disk layout (sqlite schema + result payload format).
#: Bump on any incompatible change: a mismatching store is dropped and
#: recreated on open (see :class:`~repro.sqlite_file.SqliteFile`).
#: v2: namespace split into its own column; composite primary key
#: ``(namespace, request_hash)``; ``created_at`` index for :meth:`prune`.
#: v3: payloads stored as UTF-8 BLOBs (the raw-text read path never
#: re-encodes).  Shard 0 of a store once written over several files (a
#: recorded shard count other than 1) is dropped wholesale too.
STORE_SCHEMA_VERSION = 3

_SCHEMA = (
    # The composite primary key IS the covering index for the hot
    # ``(namespace, request_hash)`` lookup; created_at gets its own index
    # so prune() is a range scan, not a table scan.
    "CREATE TABLE IF NOT EXISTS results ("
    " namespace TEXT NOT NULL,"
    " request_hash TEXT NOT NULL,"
    " request_id TEXT NOT NULL,"
    " dataset TEXT NOT NULL,"
    " payload BLOB NOT NULL,"
    " created_at REAL NOT NULL,"
    " PRIMARY KEY (namespace, request_hash))",
    "CREATE INDEX IF NOT EXISTS idx_results_created_at ON results (created_at)",
    # The coordination table: at most one replica holds the lease for a
    # (namespace, hash) at a time; expiry makes crashed holders recoverable.
    "CREATE TABLE IF NOT EXISTS leases ("
    " namespace TEXT NOT NULL,"
    " request_hash TEXT NOT NULL,"
    " replica_id TEXT NOT NULL,"
    " expires_at REAL NOT NULL,"
    " claimed_at REAL NOT NULL,"
    " PRIMARY KEY (namespace, request_hash))",
)


class ResultStore:
    """Persistent mapping of ``(namespace, request hash)`` → serialized result.

    Lookups run on per-thread pooled read connections (no lock at all);
    writes serialize on the file's one write connection, so one store
    instance is shared across the scheduler's worker threads while WAL
    journaling handles concurrent *processes* on the same file — sqlite's
    file write lock makes :meth:`claim` a genuine cross-process
    compare-and-claim.

    Parameters
    ----------
    path:
        The sqlite file (parent directories are created), conventionally
        ``<dir>/results.sqlite``.  A corrupt file is renamed to
        ``<name>.corrupt-<stamp>`` and rebuilt in place
        (``quarantined_path`` records the rename).
    timeout:
        Seconds a writer waits on a locked database before giving up.
    """

    def __init__(self, path: str | Path, timeout: float = 30.0):
        self.path = Path(path)
        self._lock = threading.Lock()  # guards counters only, never I/O
        #: Lookups served / fallen through / results written / rows pruned.
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.pruned = 0
        #: Lease telemetry: successful claims, takeovers of expired leases,
        #: renewals, releases.
        self.lease_claims = 0
        self.lease_takeovers = 0
        self.lease_renewals = 0
        self.lease_releases = 0
        self._file = SqliteFile(
            self.path,
            timeout=timeout,
            schema_version=STORE_SCHEMA_VERSION,
            tables=("results", "leases"),
            schema=_SCHEMA,
            write_site=SITE_STORE_WRITE,
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

    # -- lookups ----------------------------------------------------------------------
    def get_payload_text(self, namespace: str, request_hash: str) -> Optional[str]:
        """The stored result as raw JSON text, or ``None`` — the hot serving path.

        Runs on this thread's pooled read connection: no lock, no JSON
        parse, no re-encode — the serving layer splices the text straight
        into its response.  A payload that is not valid UTF-8 or not a
        JSON object at the byte level behaves like a miss and is removed
        so it cannot keep failing (when the write lock cannot be taken,
        the row stays for the next lookup to remove).
        """
        row = self._file.read().execute(
            "SELECT payload FROM results WHERE namespace = ? AND request_hash = ?",
            (namespace, request_hash),
        ).fetchone()
        if row is None:
            self._count("misses")
            return None
        raw = row[0]
        try:
            text = raw.decode("utf-8") if isinstance(raw, bytes) else str(raw)
        except UnicodeDecodeError:
            text = ""  # unreadable: repaired below like any non-object payload
        stripped = text.strip()
        if not (stripped.startswith("{") and stripped.endswith("}")):
            self._file.repair(
                "DELETE FROM results WHERE namespace = ? AND request_hash = ?",
                (namespace, request_hash),
            )
            self._count("misses")
            return None
        self._count("hits")
        return text

    # -- writes -----------------------------------------------------------------------
    def commit_result(
        self,
        namespace: str,
        request_hash: str,
        payload_text: str,
        *,
        request_id: str = "",
        dataset: str = "",
        replica_id: Optional[str] = None,
    ) -> bool:
        """Persist pre-serialized *payload_text* — and release the lease — atomically.

        One transaction: ``INSERT OR REPLACE`` the result row and, with
        *replica_id*, delete that replica's lease on the same key.  Merging
        the two closes the window where a result is durable but its lease
        still held (a crash there previously left siblings waiting out the
        TTL), and saves a write transaction per execution.  Returns True
        when a lease row was released.

        ``INSERT OR REPLACE`` keeps the store idempotent under concurrent
        executions of the same request (last writer wins; both wrote
        identical work).
        """
        payload = payload_text.encode("utf-8")
        fault_point(SITE_STORE_COMMIT)

        def insert(conn) -> int:
            conn.execute(
                "INSERT OR REPLACE INTO results"
                " (namespace, request_hash, request_id, dataset, payload, created_at)"
                " VALUES (?, ?, ?, ?, ?, ?)",
                (namespace, request_hash, request_id, dataset, payload, time.time()),
            )
            if replica_id is None:
                return 0
            return conn.execute(
                "DELETE FROM leases WHERE namespace = ? AND request_hash = ?"
                " AND replica_id = ?",
                (namespace, request_hash, replica_id),
            ).rowcount

        released = self._file.write(insert)
        self._count("writes")
        if released:
            self._count("lease_releases", released)
        return bool(released)

    # -- leases (cross-replica exactly-once coordination) -----------------------------
    def claim(
        self, namespace: str, request_hash: str, replica_id: str, ttl: float
    ) -> bool:
        """Compare-and-claim the execution lease for ``(namespace, request_hash)``.

        One atomic upsert: the claim succeeds when no lease row exists, the
        existing lease has **expired** (its holder stopped renewing — a
        takeover, counted in ``lease_takeovers``), or *replica_id* already
        holds it (re-entrant).  A live lease held by another replica leaves
        the row untouched and returns ``False``.  Sqlite's file write lock
        makes this safe across processes sharing the store.
        """
        if ttl <= 0:
            raise ValueError(f"lease ttl must be positive, got {ttl}")

        def upsert(conn) -> tuple[bool, bool]:
            now = time.time()
            row = conn.execute(
                "SELECT replica_id, expires_at FROM leases"
                " WHERE namespace = ? AND request_hash = ?",
                (namespace, request_hash),
            ).fetchone()
            cursor = conn.execute(
                "INSERT INTO leases"
                " (namespace, request_hash, replica_id, expires_at, claimed_at)"
                " VALUES (?, ?, ?, ?, ?)"
                " ON CONFLICT(namespace, request_hash) DO UPDATE SET"
                "  replica_id = excluded.replica_id,"
                "  expires_at = excluded.expires_at,"
                "  claimed_at = excluded.claimed_at"
                "  WHERE leases.expires_at <= ?"
                "     OR leases.replica_id = excluded.replica_id",
                (namespace, request_hash, replica_id, now + ttl, now, now),
            )
            claimed = cursor.rowcount > 0
            takeover = claimed and row is not None and row[0] != replica_id
            return claimed, takeover

        claimed, takeover = self._file.write(upsert)
        if claimed:
            with self._lock:
                self.lease_claims += 1
                if takeover:
                    self.lease_takeovers += 1
            # The crash-after-claim seam: the lease row is durable, the
            # work has not started.  A crash here is exactly the failure
            # expiry-based takeover exists to recover.
            fault_point(SITE_CLAIM_ACQUIRED)
        return claimed

    def renew(
        self, namespace: str, request_hash: str, replica_id: str, ttl: float
    ) -> bool:
        """Extend a lease *replica_id* still holds; False when it was lost."""
        return self.renew_many(namespace, [request_hash], replica_id, ttl) > 0

    def renew_many(
        self,
        namespace: str,
        request_hashes: Iterable[str],
        replica_id: str,
        ttl: float,
    ) -> int:
        """Extend every listed lease *replica_id* still holds; returns the count.

        The heartbeat path: one ``UPDATE ... WHERE request_hash IN (...)``
        statement instead of a transaction per lease.
        """
        if ttl <= 0:
            raise ValueError(f"lease ttl must be positive, got {ttl}")
        hashes = list(dict.fromkeys(request_hashes))
        if not hashes:
            return 0

        def extend(conn) -> int:
            now = time.time()
            placeholders = ",".join("?" for _ in hashes)
            return conn.execute(
                "UPDATE leases SET expires_at = ?"
                f" WHERE namespace = ? AND request_hash IN ({placeholders})"
                "  AND replica_id = ? AND expires_at > ?",
                [now + ttl, namespace, *hashes, replica_id, now],
            ).rowcount

        renewed = self._file.write(extend)
        if renewed:
            self._count("lease_renewals", renewed)
        return renewed

    def release(self, namespace: str, request_hash: str, replica_id: str) -> bool:
        """Drop the lease iff *replica_id* holds it; True when a row was removed."""
        released = self._file.write(
            lambda conn: conn.execute(
                "DELETE FROM leases WHERE namespace = ? AND request_hash = ?"
                " AND replica_id = ?",
                (namespace, request_hash, replica_id),
            ).rowcount
        )
        if released:
            self._count("lease_releases", released)
        return released > 0

    def release_all(self, replica_id: str) -> int:
        """Drop every lease held by *replica_id* (drain cleanup)."""
        released = self._file.write(
            lambda conn: conn.execute(
                "DELETE FROM leases WHERE replica_id = ?", (replica_id,)
            ).rowcount
        )
        if released:
            self._count("lease_releases", released)
        return released

    def lease(self, namespace: str, request_hash: str) -> Optional[dict[str, Any]]:
        """The **live** lease on the key, or ``None`` (expired rows don't count)."""
        row = self._file.read().execute(
            "SELECT replica_id, expires_at, claimed_at FROM leases"
            " WHERE namespace = ? AND request_hash = ? AND expires_at > ?",
            (namespace, request_hash, time.time()),
        ).fetchone()
        if row is None:
            return None
        return {"replica_id": row[0], "expires_at": row[1], "claimed_at": row[2]}

    def leases_held(self, replica_id: str) -> list[str]:
        """Request hashes whose live lease *replica_id* holds (oldest claim first)."""
        rows = self._file.read().execute(
            "SELECT request_hash FROM leases"
            " WHERE replica_id = ? AND expires_at > ?"
            " ORDER BY claimed_at, request_hash",
            (replica_id, time.time()),
        ).fetchall()
        return [request_hash for (request_hash,) in rows]

    def expire_leases(self) -> int:
        """Delete expired lease rows in one ``DELETE``; returns the count.

        Housekeeping only — claims handle expired rows in place (and count
        takeovers); this sweep just keeps the lease table from
        accumulating corpses.
        """
        return self._file.write(
            lambda conn: conn.execute(
                "DELETE FROM leases WHERE expires_at <= ?", (time.time(),)
            ).rowcount
        )

    # -- maintenance ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._file.read().execute("SELECT COUNT(*) FROM results").fetchone()[0]

    def request_hashes(self, namespace: Optional[str] = None) -> list[str]:
        """Stored hashes, oldest first (the replay/audit index).

        With *namespace*, only that configuration's hashes; without, every
        stored hash across namespaces.
        """
        if namespace is None:
            rows = self._file.read().execute(
                "SELECT request_hash FROM results ORDER BY created_at, request_hash"
            ).fetchall()
        else:
            rows = self._file.read().execute(
                "SELECT request_hash FROM results WHERE namespace = ?"
                " ORDER BY created_at, request_hash",
                (namespace,),
            ).fetchall()
        return [request_hash for (request_hash,) in rows]

    def prune(self, older_than: float) -> int:
        """Delete results written more than *older_than* seconds ago.

        The disk analogue of the scheduler's terminal-ticket GC: a
        long-running server calls this periodically so the store stays
        bounded while recent results remain servable.  Expired lease rows
        ride along in the same transaction.  Returns the number of result
        rows removed.
        """
        if older_than < 0:
            raise ValueError(f"older_than must be >= 0, got {older_than}")
        cutoff = time.time() - older_than

        def sweep(conn) -> int:
            removed = conn.execute(
                "DELETE FROM results WHERE created_at < ?", (cutoff,)
            ).rowcount
            conn.execute("DELETE FROM leases WHERE expires_at <= ?", (time.time(),))
            return removed

        removed = self._file.write(sweep)
        self._count("pruned", removed)
        return removed

    def clear(self) -> None:
        """Drop every stored result and lease (the schema version row stays)."""

        def wipe(conn) -> None:
            conn.execute("DELETE FROM results")
            conn.execute("DELETE FROM leases")

        self._file.write(wipe)

    def describe(self) -> dict[str, Any]:
        return {
            "path": str(self.path),
            "schema_version": STORE_SCHEMA_VERSION,
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "pruned": self.pruned,
            "write_retries": self.write_retries,
            "invalidated": self.invalidated,
            "quarantined_path": self.quarantined_path,
            "leases": {
                "claims": self.lease_claims,
                "takeovers": self.lease_takeovers,
                "renewals": self.lease_renewals,
                "releases": self.lease_releases,
            },
        }

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
