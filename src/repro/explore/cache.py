"""Memoized query execution: one LRU cache of canonical-plan results.

The exploration agents take thousands of MDP steps per training run, and the
factored action space is small enough that the same pipeline is applied to
the same dataset over and over across episodes.  Because
:class:`~repro.dataframe.table.DataTable` views are immutable, the result of
executing a pipeline is a pure function of

* the base view's content fingerprint (:meth:`DataTable.fingerprint` —
  name, row count, schema and a per-column content digest, computed once
  per instance), and
* the fingerprint of the pipeline's *canonical* logical plan
  (:func:`repro.plan.canonicalize`).

:class:`ExecutionCache` memoises those results in an LRU map keyed
``(base fingerprint, ("PLAN", canonical plan fingerprint))``; the entries are
written by :meth:`~repro.explore.executor.QueryExecutor.execute_step`, one
operation extending a canonical prefix.  Pipelines that differ only in
filter ordering, duplicated predicates or undone (back) steps collapse to
one entry; ``stats.plan_hits`` counts the lookups served that way.  A hit returns the
*same* immutable ``DataTable`` object that the original execution produced,
so repeated episodes share views (and all the per-view memoised statistics
that hang off them) instead of re-scanning the data.

Successful executions are cached as result views; runtime *failures* are
cached too, in a separate bounded negative map (``(view fingerprint,
operation signature)`` -> error message).  Validity testing is mostly
static — :meth:`QueryExecutor.can_execute` is a schema-only check and
:meth:`ActionSpace.valid_mask` batches it per head for policy-side action
masking — but operations that pass the static check and still fail at
runtime (e.g. an ``AggregationError`` over mixed-type values) would
otherwise re-execute from scratch on every repeat; the negative cache
short-circuits them.

Every operation holds the cache's reentrant lock, so one cache can be shared
across a thread pool (the :class:`~repro.engine.core.LinxEngine` does).  An
uncontended acquire and release costs about 0.4 µs (2-core x86 container,
Python 3.11), a negligible share of a step, so single-threaded trainers pay
it too rather than keeping a second, unlocked class.

Bounding is two-dimensional: ``max_entries`` caps the *number* of cached
result views, and the optional ``max_cached_rows`` caps the approximate
*volume* (total rows across all cached views), so thousands of near-full
filtered copies of a large dataset cannot accumulate before count-based
eviction kicks in.

For persistence across processes and restarts, pass ``disk=`` a path or a
:class:`~repro.explore.diskcache.DiskCacheTier`: the memory LRU then reads
through to the schema-versioned sqlite tier on a miss (promoting hits) and
writes behind in batches of ``write_batch_size``.  Without a disk tier,
:meth:`ExecutionCache.flush` and :meth:`ExecutionCache.close` do nothing.
"""

from __future__ import annotations

import logging
import sqlite3
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Optional

from repro.dataframe.table import DataTable

from .diskcache import DEFAULT_WRITE_BATCH, DISK_SCHEMA_VERSION, DiskCacheTier
from .operations import Operation

#: Default maximum number of cached result views.
DEFAULT_MAX_ENTRIES = 4096

#: Default maximum number of cached failure outcomes.
DEFAULT_MAX_ERROR_ENTRIES = 1024

#: Cache key: (view fingerprint, plan tag + fingerprint *or* operation signature).
CacheKey = tuple[tuple, tuple[str, ...]]

#: First element of the second component of a result key.  Result keys are
#: persisted by the disk tier, so the tag is part of the on-disk key format.
PLAN_KEY_TAG = "PLAN"

logger = logging.getLogger(__name__)


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of an :class:`ExecutionCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Lookups answered from the negative (cached-failure) map.
    negative_hits: int = 0
    #: Hits served under a canonical-plan key (a subset of ``hits``).
    plan_hits: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, float | int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "negative_hits": self.negative_hits,
            "plan_hits": self.plan_hits,
            "hit_rate": round(self.hit_rate, 4),
        }

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.negative_hits = 0
        self.plan_hits = 0


class ExecutionCache:
    """Thread-safe LRU cache mapping ``(base, canonical plan)`` -> result view.

    Parameters
    ----------
    max_entries:
        Upper bound on cached results; the least recently used entry is
        evicted when the bound is exceeded.  Must be positive.
    max_cached_rows:
        Optional upper bound on the approximate cached volume: the sum of
        ``len(view)`` over all cached result views.  When exceeded, least
        recently used entries are evicted until the budget is met again
        (the most recent entry is always kept, even if it alone exceeds
        the budget).  ``None`` (the default) disables volume bounding.
    max_error_entries:
        Upper bound on cached *failure* outcomes (runtime execution errors
        memoised by :meth:`put_error`); the least recently used failure is
        dropped when exceeded.  Failures are bounded separately from
        results because an error entry is just a message string.  Failures
        never reach the disk tier: a message is cheap to recompute.
    disk:
        Optional persistent tier: a :class:`DiskCacheTier` or the sqlite
        path to open one at.  Reads are **read-through** — a memory miss
        consults the write-behind buffer and then the disk, promoting any
        hit back into the LRU.  Writes are **write-behind** — results land
        in memory at once and on disk in one transaction per
        *write_batch_size* inserts, on :meth:`flush` and on :meth:`close`.
        ``stats`` keeps the combined outcome; the disk tier's own counters
        appear in :meth:`describe` under ``disk_*`` keys.
    write_batch_size:
        Buffered inserts per write-behind flush (disk tier only).
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_cached_rows: int | None = None,
        max_error_entries: int = DEFAULT_MAX_ERROR_ENTRIES,
        disk: DiskCacheTier | str | Path | None = None,
        write_batch_size: int = DEFAULT_WRITE_BATCH,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        if max_cached_rows is not None and max_cached_rows < 1:
            raise ValueError("max_cached_rows must be positive when given")
        if max_error_entries < 1:
            raise ValueError("max_error_entries must be positive")
        if write_batch_size < 1:
            raise ValueError("write_batch_size must be positive")
        self.max_entries = max_entries
        self.max_cached_rows = max_cached_rows
        self.max_error_entries = max_error_entries
        self.write_batch_size = write_batch_size
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._entries: "OrderedDict[CacheKey, DataTable]" = OrderedDict()
        self._row_counts: dict[CacheKey, int] = {}
        self._cached_rows = 0
        self._errors: "OrderedDict[CacheKey, str]" = OrderedDict()
        #: Canonical plans by (prefix plan fingerprint, operation signature),
        #: bounded by ``max_entries`` (cleared wholesale when reached).
        self._extensions: dict[tuple[str, tuple[str, ...]], Any] = {}
        if disk is not None and not isinstance(disk, DiskCacheTier):
            disk = DiskCacheTier(disk)
        self.disk: Optional[DiskCacheTier] = disk
        self._pending: "OrderedDict[CacheKey, DataTable]" = OrderedDict()
        #: Flushes abandoned because the disk tier stayed locked through
        #: every retry: the cache degrades to memory-only for that batch.
        self.write_failures = 0

    @staticmethod
    def key_for(view: DataTable, operation: Operation) -> CacheKey:
        """The negative-map key of executing *operation* against *view*."""
        return (view.fingerprint(), operation.signature())

    @staticmethod
    def plan_key_for(base: DataTable, plan) -> CacheKey:
        """The semantic cache key of executing *plan* against *base*.

        *plan* is a canonical :class:`~repro.plan.nodes.LogicalPlan`
        (duck-typed on ``fingerprint()`` to keep this module free of a plan
        dependency).  Every operation ordering that canonicalizes to the
        same plan shares this key, across the memory and disk tiers alike.
        """
        return (base.fingerprint(), (PLAN_KEY_TAG, plan.fingerprint()))

    # -- results --------------------------------------------------------------------
    def get_plan(self, base: DataTable, plan) -> DataTable | None:
        """The view cached under ``(base, canonical plan)``, or ``None``.

        Counts a hit (and a plan hit) or a miss.  With a disk tier, a memory
        miss falls through to the write-behind buffer and then to disk.
        """
        key = self.plan_key_for(base, plan)
        with self._lock:
            result = self._entries.get(key)
            if result is not None:
                self._entries.move_to_end(key)
            elif self.disk is not None:
                # Evicted from memory but not yet flushed: the buffer has it.
                result = self._pending.get(key)
                if result is None:
                    result = self.disk.get(key)
                if result is not None:
                    self._store(key, result)
            if result is None:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            self.stats.plan_hits += 1
            return result

    def put_plan(self, base: DataTable, plan, result: DataTable) -> None:
        """Store the result of executing the canonical *plan* on *base*."""
        key = self.plan_key_for(base, plan)
        with self._lock:
            self._store(key, result)
            if self.disk is not None:
                self._pending[key] = result
                if len(self._pending) >= self.write_batch_size:
                    self.flush()

    def _store(self, key: CacheKey, result: DataTable) -> None:
        """Insert *result* under *key*, evicting per the entry/row budgets."""
        rows = len(result)
        if key in self._row_counts:
            self._cached_rows -= self._row_counts[key]
        self._entries[key] = result
        self._entries.move_to_end(key)
        self._row_counts[key] = rows
        self._cached_rows += rows
        while len(self._entries) > self.max_entries or (
            self.max_cached_rows is not None
            and self._cached_rows > self.max_cached_rows
            and len(self._entries) > 1
        ):
            evicted_key, _ = self._entries.popitem(last=False)
            self._cached_rows -= self._row_counts.pop(evicted_key)
            self.stats.evictions += 1

    def extension(self, plan, signature: tuple[str, ...], extend: Callable[[], Any]):
        """*plan* extended by the operation of *signature* (``extend()`` on a
        miss), memoised under (*plan*'s fingerprint, *signature*): canonical
        extension depends on node signatures only, as the fingerprint does."""
        key = (plan.fingerprint(), signature)
        extended = self._extensions.get(key)
        if extended is None:
            extended = extend()
            with self._lock:
                if len(self._extensions) >= self.max_entries:
                    self._extensions.clear()
                self._extensions[key] = extended
        return extended

    # -- failures -------------------------------------------------------------------
    def get_error(self, view: DataTable, signature: tuple[str, ...]) -> str | None:
        """The memoised failure message for *view* and an operation's *signature*.

        A hit counts towards ``stats.negative_hits``; a miss is silent (the
        caller is about to look up the result and will count that).
        """
        key = (view.fingerprint(), signature)
        with self._lock:
            message = self._errors.get(key)
            if message is None:
                return None
            self._errors.move_to_end(key)
            self.stats.negative_hits += 1
            return message

    def put_error(self, view: DataTable, signature: tuple[str, ...], message: str) -> None:
        """Memoise a runtime execution failure for *view* and an operation's *signature*."""
        key = (view.fingerprint(), signature)
        with self._lock:
            self._errors[key] = message
            self._errors.move_to_end(key)
            while len(self._errors) > self.max_error_entries:
                self._errors.popitem(last=False)

    # -- write-behind control -------------------------------------------------------
    @property
    def pending_writes(self) -> int:
        """Results buffered in memory but not yet persisted."""
        return len(self._pending)

    def flush(self) -> int:
        """Persist the write-behind buffer in one transaction; returns rows written.

        A no-op without a disk tier.  A disk tier that stays locked through
        every backoff retry must not fail the request that triggered the
        flush: the batch is dropped (its entries remain servable from the
        memory LRU), the degradation is logged, and later flushes try again
        with fresh batches — a graceful memory-only fallback.
        """
        with self._lock:
            if not self._pending:
                return 0
            try:
                written = self.disk.put_many(self._pending.items())
            except sqlite3.OperationalError as exc:
                self.write_failures += 1
                logger.warning(
                    "disk cache flush of %d entries failed (%s); "
                    "degrading to memory-only for this batch",
                    len(self._pending),
                    exc,
                )
                written = 0
            self._pending.clear()
            return written

    def close(self) -> None:
        """Flush outstanding writes and close the disk tier (if any)."""
        with self._lock:
            if self.disk is not None:
                self.flush()
                self.disk.close()

    def __enter__(self) -> "ExecutionCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- bookkeeping ----------------------------------------------------------------
    @property
    def cached_rows(self) -> int:
        """Approximate cached volume: total rows across all cached views."""
        return self._cached_rows

    @property
    def negative_entries(self) -> int:
        """Number of memoised failure outcomes."""
        return len(self._errors)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every memory entry, failure and pending write; reset the stats.

        Disk rows stay; use ``cache.disk.clear()`` to also wipe that tier.
        """
        with self._lock:
            self._entries.clear()
            self._row_counts.clear()
            self._cached_rows = 0
            self._errors.clear()
            self._extensions.clear()
            self._pending.clear()
            self.stats.reset()

    def describe(self) -> dict[str, Any]:
        """Hit/miss counters plus occupancy (of both tiers), for telemetry."""
        with self._lock:
            summary: dict[str, Any] = dict(self.stats.as_dict())
            summary["entries"] = len(self._entries)
            summary["plan_entries"] = len(self._entries)  # every entry is plan-keyed
            summary["cached_rows"] = self._cached_rows
            summary["negative_entries"] = len(self._errors)
            summary["max_entries"] = self.max_entries
            summary["max_cached_rows"] = self.max_cached_rows
            summary["max_error_entries"] = self.max_error_entries
            if self.disk is not None:
                summary["tiers"] = "memory+disk"
                summary["pending_writes"] = len(self._pending)
                summary["write_failures"] = self.write_failures
                summary["disk_hits"] = self.disk.hits
                summary["disk_misses"] = self.disk.misses
                summary["disk_writes"] = self.disk.writes
                summary["disk_flushes"] = self.disk.flushes
                summary["disk_entries"] = len(self.disk)
                summary["disk_stored_rows"] = self.disk.stored_rows()
                summary["disk_schema_version"] = DISK_SCHEMA_VERSION
            return summary

    def snapshot_counters(self) -> CacheStats:
        """A consistent copy of :attr:`stats`, for the engine's per-request deltas."""
        with self._lock:
            return replace(self.stats)

    def __repr__(self) -> str:
        return (
            f"ExecutionCache(entries={len(self)}/{self.max_entries}, "
            f"rows={self._cached_rows}, "
            f"hits={self.stats.hits}, misses={self.stats.misses}, "
            f"hit_rate={self.stats.hit_rate:.2%})"
        )
