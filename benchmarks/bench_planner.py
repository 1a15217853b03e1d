"""Benchmark — lazy query planner: fused execution and plan-level caching.

Two workloads on the flights dataset, mirroring how exploration pipelines
actually execute:

* **fused vs eager 4-op chains** — a filter→filter→filter→group-by chain
  executed eagerly (one ``DataTable.filter`` / ``DataTable.groupby_agg``
  call at a time, each filter materialising an intermediate view) against
  :meth:`~repro.explore.executor.QueryExecutor.execute_plan`, which
  AND-combines the three predicate masks and feeds the combined mask
  straight into the group-by factorisation — zero intermediate views.
  Both paths run uncached so the ratio is pure execution, and the fused
  result must be bit-identical to the eager one (asserted).
* **plan-cache sharing across commuted orderings** — the same filter chain
  submitted in a different order hits the canonical-plan cache entry of
  the first submission, in the memory tier and — from a fresh process's
  perspective (new memory tier, same sqlite file) — in the disk tier.

Results land in ``BENCH_planner.json`` in the repository root.

Acceptance gates (enforced as assertions, run in CI):

* fused plan execution reaches >= 2x the eager ops/sec on 4-op chains,
* commuted orderings are served from the plan cache in both tiers
  (``plan_hits`` > 0, warm ``disk_hits`` > 0),
* fused results are bit-identical to the eager reference.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from pathlib import Path

from conftest import print_table, scale

from repro.dataframe.expressions import Predicate
from repro.datasets import load_dataset
from repro.explore.cache import ExecutionCache
from repro.explore.executor import QueryExecutor
from repro.explore.operations import FilterOperation, GroupAggOperation
from repro.plan import canonicalize, plan_from_operations

#: Minimum fused/eager ops-per-second ratio (acceptance criterion).
#: Wall-clock ratios are load-sensitive, so noisy shared runners may lower
#: the gate via the environment; the bit-identity assertions always gate.
MIN_FUSED_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_FUSED_SPEEDUP", "2.0"))

#: Where the machine-readable result lands (repository root).
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_planner.json"

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


def _run_eager(table, operations):
    """One operation at a time through the DataTable kernels: uncached, no plans."""
    view = table
    for operation in operations:
        if isinstance(operation, FilterOperation):
            view = view.filter(Predicate(operation.attr, operation.op, operation.term))
        else:
            view = view.groupby_agg(
                operation.group_attr, operation.agg_func, operation.agg_attr
            )
    return view


def _run_fused(table, plan):
    return QueryExecutor().execute_plan(table, plan)


def _run_planner_benchmark():
    table = load_dataset("flights", num_rows=scale(20000, 100000))
    iterations = scale(40, 80)
    workloads = []

    # -- fused vs eager -----------------------------------------------------------
    plan = canonicalize(plan_from_operations(CHAIN))
    eager_result = _run_eager(table, CHAIN)  # warm-up + reference
    fused_result = _run_fused(table, plan)
    bit_identical = (
        fused_result == eager_result
        and fused_result.fingerprint() == eager_result.fingerprint()
    )

    started = time.perf_counter()
    for _ in range(iterations):
        _run_eager(table, CHAIN)
    eager_ops_per_s = iterations * len(CHAIN) / (time.perf_counter() - started)

    started = time.perf_counter()
    for _ in range(iterations):
        _run_fused(table, plan)
    fused_ops_per_s = iterations * len(CHAIN) / (time.perf_counter() - started)

    workloads.append(
        {
            "workload": "fused plan vs eager per-op execution (4-op chain)",
            "kind": "fused_execution",
            "rows": len(table),
            "iterations": iterations,
            "eager_ops_per_s": round(eager_ops_per_s, 1),
            "fused_ops_per_s": round(fused_ops_per_s, 1),
            "speedup": round(fused_ops_per_s / eager_ops_per_s, 2),
            "bit_identical": bit_identical,
        }
    )

    # -- plan-cache sharing across commuted orderings -----------------------------
    cache = ExecutionCache()
    executor = QueryExecutor(cache=cache)
    started = time.perf_counter()
    cold_result = executor.execute_plan(table, plan_from_operations(CHAIN))
    cold_seconds = time.perf_counter() - started
    started = time.perf_counter()
    commuted_result = executor.execute_plan(table, plan_from_operations(COMMUTED_CHAIN))
    commuted_seconds = time.perf_counter() - started
    memory_summary = cache.describe()

    tier_dir = tempfile.mkdtemp(prefix="repro-planner-bench-")
    try:
        db_path = Path(tier_dir) / "execution_cache.sqlite"
        cold_tier = ExecutionCache(disk=db_path)
        QueryExecutor(cache=cold_tier).execute_plan(
            table, plan_from_operations(CHAIN)
        )
        cold_tier.close()  # flushes the write-behind buffer
        # A fresh process's perspective: empty memory tier, same sqlite file.
        warm_tier = ExecutionCache(disk=db_path)
        warm_result = QueryExecutor(cache=warm_tier).execute_plan(
            table, plan_from_operations(COMMUTED_CHAIN)
        )
        warm_summary = warm_tier.describe()
        warm_tier.close()
    finally:
        shutil.rmtree(tier_dir, ignore_errors=True)

    workloads.append(
        {
            "workload": "plan cache: commuted filter orderings share entries",
            "kind": "plan_cache",
            "rows": len(table),
            "cold_seconds": round(cold_seconds, 4),
            "commuted_seconds": round(commuted_seconds, 4),
            "speedup": round(cold_seconds / max(commuted_seconds, 1e-9), 2),
            "memory_plan_hits": memory_summary["plan_hits"],
            "memory_plan_entries": memory_summary["plan_entries"],
            "fusion_count": memory_summary["fusion_count"],
            "disk_plan_hits": warm_summary["plan_hits"],
            "disk_hits": warm_summary["disk_hits"],
            "bit_identical": (
                commuted_result is cold_result
                and warm_result.fingerprint() == cold_result.fingerprint()
            ),
        }
    )
    return workloads


def _emit_json(rows: list[dict]) -> None:
    payload = {
        "benchmark": "lazy_query_planner",
        "dataset": "flights",
        "chain": [list(op.signature()) for op in CHAIN],
        "gates": {"min_fused_speedup": MIN_FUSED_SPEEDUP},
        "workloads": rows,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def test_planner_speedups(benchmark):
    rows = benchmark.pedantic(_run_planner_benchmark, iterations=1, rounds=1)
    for row in rows:
        printable = {k: v for k, v in row.items() if not isinstance(v, dict)}
        print_table(row["workload"], [printable])
    _emit_json(rows)
    assert all(row["bit_identical"] for row in rows)
    for row in rows:
        if row["kind"] == "fused_execution":
            assert row["speedup"] >= MIN_FUSED_SPEEDUP, row
        elif row["kind"] == "plan_cache":
            assert row["memory_plan_hits"] >= 1, row
            assert row["disk_plan_hits"] >= 1, row
            assert row["disk_hits"] >= 1, row
