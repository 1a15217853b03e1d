"""One execution cache shared by many threads stays consistent.

Eight threads drive ``execute_step`` chains and ``session_from_operations``
replays against one small :class:`ExecutionCache` (tight entry and row budgets, so
evictions run concurrently with hits and inserts).  Afterwards the cache's bounds, row accounting
and counters must agree with what the threads actually did, and every view
a thread got back must equal a single-threaded replay of the same call.

A lost ``+=`` update is rare to observe on CPython, so the test also makes
every counter write prove it holds the cache's lock.
"""

from __future__ import annotations

import random
import sys
import threading

from eager_oracle import same_view
from repro.datasets import load_dataset
from repro.explore.cache import CacheStats, ExecutionCache
from repro.explore.executor import QueryExecutor
from repro.explore.operations import FilterOperation, GroupAggOperation
from repro.explore.session import session_from_operations
from repro.plan import LogicalPlan

NUM_THREADS = 8
TASKS_PER_THREAD = 24
MAX_ENTRIES = 6
MAX_CACHED_ROWS = 300

FILTERS = [
    FilterOperation("airline", "neq", "AA"),
    FilterOperation("distance", "gt", 300),
    FilterOperation("month", "le", 9),
    FilterOperation("day_of_week", "ge", 2),
]
GROUPS = [
    GroupAggOperation("airline", "count", "airline"),
    GroupAggOperation("month", "mean", "departure_delay"),
]


class LockCheckedStats(CacheStats):
    """Counters that fail any write made without the owning cache's lock."""

    def __setattr__(self, name, value):
        owner = self.__dict__.get("owner")
        if owner is not None and not owner._lock._is_owned():
            raise AssertionError(f"stats.{name} written without the cache lock")
        object.__setattr__(self, name, value)


def _tasks(seed: int) -> list[tuple[str, list]]:
    """A thread's deterministic mix of step chains and session replays.

    Every chain is 1-3 filters, then a group-by for replays and optionally
    for step chains.
    """
    rng = random.Random(seed)
    tasks = []
    for _ in range(TASKS_PER_THREAD):
        filters = rng.sample(FILTERS, rng.randint(1, 3))
        if rng.random() < 0.5:
            tasks.append(("replay", filters + [rng.choice(GROUPS)]))
        else:
            tail = [rng.choice(GROUPS)] if rng.random() < 0.5 else []
            tasks.append(("step", filters + tail))
    return tasks


def _run(executor, table, task) -> list:
    """Execute one task; returns every view it produced (one per lookup)."""
    kind, operations = task
    if kind == "replay":
        return session_from_operations(table, operations, executor=executor).views()
    views, plan, view = [], LogicalPlan(()), table
    for operation in operations:
        view, plan = executor.execute_step(table, plan, view, operation)
        views.append(view)
    return views


def test_threads_sharing_one_cache_keep_it_consistent():
    table = load_dataset("flights", num_rows=200)
    cache = ExecutionCache(max_entries=MAX_ENTRIES, max_cached_rows=MAX_CACHED_ROWS)
    stats = LockCheckedStats()
    stats.owner = cache
    cache.stats = stats
    executor = QueryExecutor(cache=cache)
    workloads = [_tasks(seed) for seed in range(NUM_THREADS)]
    results: list = [None] * NUM_THREADS
    errors: list = []
    barrier = threading.Barrier(NUM_THREADS)

    def worker(index: int) -> None:
        try:
            barrier.wait()
            results[index] = [_run(executor, table, task) for task in workloads[index]]
        except BaseException as exc:  # surfaced below, not swallowed
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # force fine-grained interleaving
    try:
        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(NUM_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert all(not thread.is_alive() for thread in threads)

    # Bounds and row accounting.
    assert len(cache) <= MAX_ENTRIES
    assert cache.cached_rows == sum(len(view) for view in cache._entries.values())
    # Every executed operation issues exactly one lookup, its extended plan
    # (no failures occur, so the negative map never answers).
    lookups = sum(len(views) for per_thread in results for views in per_thread)
    assert cache.stats.hits + cache.stats.misses == lookups

    # Every returned view equals a single-threaded replay of the same task.
    reference = QueryExecutor(cache=ExecutionCache())
    for per_thread, tasks in zip(results, workloads):
        for views, task in zip(per_thread, tasks):
            expected = _run(reference, table, task)
            assert len(views) == len(expected)
            for got, want in zip(views, expected):
                assert same_view(got, want), task
