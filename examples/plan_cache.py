"""Commuted pipelines share one plan-cache entry — a tour of the lazy planner.

Two analysts narrow the flights dataset with the same two predicates in
opposite orders and then aggregate.  Syntactically these are different
operation lists; semantically they are one relation.  The planner
canonicalizes both to one `LogicalPlan`, so the second pipeline is served
from the cache entry the first one wrote — no re-execution, in the memory
tier and (shown at the end) across processes through the sqlite disk tier.

Run with:  PYTHONPATH=src python examples/plan_cache.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.datasets import load_dataset
from repro.explore.cache import ExecutionCache
from repro.explore.executor import QueryExecutor
from repro.explore.operations import FilterOperation, GroupAggOperation
from repro.explore.session import session_from_operations
from repro.plan import canonicalize, plan_from_operations

PIPELINE_A = [
    FilterOperation("airline", "eq", "AA"),
    FilterOperation("distance", "gt", 500),
    GroupAggOperation("month", "mean", "departure_delay"),
]
# The same pipeline with its filters commuted.
PIPELINE_B = [PIPELINE_A[1], PIPELINE_A[0], PIPELINE_A[2]]


def main() -> None:
    flights = load_dataset("flights", num_rows=2000)

    plan_a = canonicalize(plan_from_operations(PIPELINE_A))
    plan_b = canonicalize(plan_from_operations(PIPELINE_B))
    print("pipeline A:", " -> ".join(op.describe() for op in PIPELINE_A))
    print("pipeline B:", " -> ".join(op.describe() for op in PIPELINE_B))
    print("canonical plan (both):", plan_a.describe())
    assert plan_a == plan_b and plan_a.fingerprint() == plan_b.fingerprint()

    # -- memory tier: the commuted replay is a pure plan hit ----------------
    cache = ExecutionCache()
    session_a = session_from_operations(flights, PIPELINE_A, cache=cache)
    print(
        f"\nafter pipeline A: entries={len(cache)} "
        f"plan_hits={cache.stats.plan_hits} fusions={cache.stats.fusion_count}"
    )
    session_b = session_from_operations(flights, PIPELINE_B, cache=cache)
    print(
        f"after pipeline B: entries={len(cache)} "
        f"plan_hits={cache.stats.plan_hits} (B's final view came from A's entry)"
    )
    assert session_a.current.view == session_b.current.view

    # -- fused whole-plan execution is bit-identical to the step path -------
    fused = QueryExecutor().execute_plan(flights, plan_a)
    assert fused.fingerprint() == session_a.current.view.fingerprint()
    print("\nfused execute_plan() result (bit-identical to the step path):")
    for record in fused.to_records()[:3]:
        print(" ", record)

    # -- disk tier: a second process's commuted pipeline warm-starts --------
    with tempfile.TemporaryDirectory(prefix="plan-cache-example-") as tmp:
        db_path = Path(tmp) / "execution_cache.sqlite"
        first = ExecutionCache(disk=db_path)
        QueryExecutor(cache=first).execute_plan(flights, plan_from_operations(PIPELINE_A))
        first.close()  # flush the write-behind buffer

        second = ExecutionCache(disk=db_path)  # fresh memory tier, same file
        QueryExecutor(cache=second).execute_plan(
            flights, plan_from_operations(PIPELINE_B)
        )
        summary = second.describe()
        print(
            f"\nsecond process, commuted order: disk_hits={summary['disk_hits']} "
            f"plan_hits={summary['plan_hits']} (served from the first process's entry)"
        )
        second.close()


if __name__ == "__main__":
    main()
