"""Commuted pipelines share one plan-cache entry — a tour of the query planner.

Two analysts narrow the flights dataset with the same two predicates in
opposite orders and then aggregate.  Syntactically these are different
operation lists; semantically they are one relation.  Each session node
carries the canonical `LogicalPlan` of its view, and both pipelines end at
the same canonical plan, so the second pipeline's final view is served from
the cache entry the first one wrote — no re-execution.

Run with:  PYTHONPATH=src python examples/plan_cache.py
"""

from __future__ import annotations

from repro.datasets import load_dataset
from repro.explore.cache import ExecutionCache
from repro.explore.operations import FilterOperation, GroupAggOperation
from repro.explore.session import session_from_operations

PIPELINE_A = [
    FilterOperation("airline", "eq", "AA"),
    FilterOperation("distance", "gt", 500),
    GroupAggOperation("month", "mean", "departure_delay"),
]
# The same pipeline with its filters commuted.
PIPELINE_B = [PIPELINE_A[1], PIPELINE_A[0], PIPELINE_A[2]]


def main() -> None:
    flights = load_dataset("flights", num_rows=2000)
    print("pipeline A:", " -> ".join(op.describe() for op in PIPELINE_A))
    print("pipeline B:", " -> ".join(op.describe() for op in PIPELINE_B))

    cache = ExecutionCache()
    session_a = session_from_operations(flights, PIPELINE_A, cache=cache)
    print(f"\nafter pipeline A: entries={len(cache)} plan_hits={cache.stats.plan_hits}")
    session_b = session_from_operations(flights, PIPELINE_B, cache=cache)
    print(
        f"after pipeline B: entries={len(cache)} "
        f"plan_hits={cache.stats.plan_hits} (B's final view came from A's entry)"
    )
    plan_a, plan_b = session_a.current.plan, session_b.current.plan
    print("canonical plan (both):", plan_a.describe())
    assert plan_a == plan_b and plan_a.fingerprint() == plan_b.fingerprint()
    assert session_b.current.view is session_a.current.view
    for record in session_a.current.view.to_records()[:3]:
        print(" ", record)


if __name__ == "__main__":
    main()
