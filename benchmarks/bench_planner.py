"""Benchmark — query planner: plan-level caching across commuted orderings.

One workload on the flights dataset, mirroring how exploration pipelines
actually execute: a filter→filter→filter→group-by chain replayed through
:func:`~repro.explore.session.session_from_operations` (one
:meth:`~repro.explore.executor.QueryExecutor.execute_step` per operation),
then the same chain with its filters commuted.  The commuted replay hits
the canonical-plan cache entries of the first one, in the memory tier and
— from a fresh process's perspective (new memory tier, same sqlite file) —
in the disk tier.

Results land in ``BENCH_planner.json`` in the repository root.

Acceptance gates (enforced as assertions, run in CI):

* commuted orderings are served from the plan cache in both tiers
  (memory ``plan_hits`` >= 1, warm ``plan_hits`` >= 1 and ``disk_hits`` >= 1),
* the commuted replay returns the first replay's view (the same object in
  memory, the same fingerprint from disk).
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from pathlib import Path

from conftest import print_table, scale

from repro.datasets import load_dataset
from repro.explore.cache import ExecutionCache
from repro.explore.operations import FilterOperation, GroupAggOperation
from repro.explore.session import session_from_operations

#: Where the machine-readable result lands (repository root).
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_planner.json"

#: Minimum plan hits of the commuted replay: memory tier, warm disk tier
#: (plan hits and raw disk hits).
GATES = {"min_memory_plan_hits": 1, "min_disk_plan_hits": 1, "min_disk_hits": 1}

#: A 4-operation chain with keep-most filters (the common exploration shape:
#: narrowing predicates that keep the bulk of the rows, then an aggregate).
CHAIN = [
    FilterOperation("distance", "gt", 50),
    FilterOperation("month", "le", 11),
    FilterOperation("day_of_week", "ge", 1),
    GroupAggOperation("airline", "mean", "departure_delay"),
]
#: The same chain with the filters commuted (same canonical plan).
COMMUTED_CHAIN = [CHAIN[2], CHAIN[0], CHAIN[1], CHAIN[3]]


def _replay(table, operations, cache):
    """The final view of a session replay of *operations* through *cache*."""
    return session_from_operations(table, operations, cache=cache).current.view


def _run_planner_benchmark():
    table = load_dataset("flights", num_rows=scale(20000, 100000))

    cache = ExecutionCache()
    started = time.perf_counter()
    cold_result = _replay(table, CHAIN, cache)
    cold_seconds = time.perf_counter() - started
    started = time.perf_counter()
    commuted_result = _replay(table, COMMUTED_CHAIN, cache)
    commuted_seconds = time.perf_counter() - started
    memory_summary = cache.describe()

    tier_dir = tempfile.mkdtemp(prefix="repro-planner-bench-")
    try:
        db_path = Path(tier_dir) / "execution_cache.sqlite"
        cold_tier = ExecutionCache(disk=db_path)
        _replay(table, CHAIN, cold_tier)
        cold_tier.close()  # flushes the write-behind buffer
        # A fresh process's perspective: empty memory tier, same sqlite file.
        warm_tier = ExecutionCache(disk=db_path)
        warm_result = _replay(table, COMMUTED_CHAIN, warm_tier)
        warm_summary = warm_tier.describe()
        warm_tier.close()
    finally:
        shutil.rmtree(tier_dir, ignore_errors=True)

    return [
        {
            "workload": "plan cache: commuted filter orderings share entries",
            "kind": "plan_cache",
            "rows": len(table),
            "cold_seconds": round(cold_seconds, 4),
            "commuted_seconds": round(commuted_seconds, 4),
            "speedup": round(cold_seconds / max(commuted_seconds, 1e-9), 2),
            "memory_plan_hits": memory_summary["plan_hits"],
            "memory_plan_entries": memory_summary["plan_entries"],
            "disk_plan_hits": warm_summary["plan_hits"],
            "disk_hits": warm_summary["disk_hits"],
            "bit_identical": (
                commuted_result is cold_result
                and warm_result.fingerprint() == cold_result.fingerprint()
            ),
        }
    ]


def _emit_json(rows: list[dict]) -> None:
    payload = {
        "benchmark": "query_planner",
        "dataset": "flights",
        "chain": [list(op.signature()) for op in CHAIN],
        "gates": GATES,
        "workloads": rows,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def test_planner_speedups(benchmark):
    rows = benchmark.pedantic(_run_planner_benchmark, iterations=1, rounds=1)
    for row in rows:
        print_table(row["workload"], [row])
    _emit_json(rows)
    for row in rows:
        assert row["bit_identical"], row
        assert row["memory_plan_hits"] >= GATES["min_memory_plan_hits"], row
        assert row["disk_plan_hits"] >= GATES["min_disk_plan_hits"], row
        assert row["disk_hits"] >= GATES["min_disk_hits"], row
