"""Diversity of an exploration session.

The generic reward (Section 5.1) includes a diversity term: the minimal
distance between the newest query and any previous query, using a distance
over query results.  Sessions that keep producing near-identical views are
penalised; sessions that examine genuinely different slices are rewarded.
"""

from __future__ import annotations

from repro.dataframe.table import DataTable

from .interestingness import _reference_interest
from .operations import Operation


def _top_values(column) -> set:
    """The column's first ten distinct values, memoised on the column."""
    memo = _reference_interest(column)
    top = memo.get("top10")
    if top is None:
        top = memo["top10"] = set(column.unique()[:10])
    return top


def result_distance(a: DataTable, b: DataTable) -> float:
    """Distance in [0, 1] between two result views.

    Combines three signals: schema overlap (Jaccard over column names),
    relative size difference, and overlap of the top categorical values in
    shared columns.  Identical views are at distance 0, views with disjoint
    schemas at distance 1.
    """
    cols_a, cols_b = set(a.columns), set(b.columns)
    union = cols_a | cols_b
    if not union:
        return 0.0
    schema_similarity = len(cols_a & cols_b) / len(union)

    size_a, size_b = len(a), len(b)
    if max(size_a, size_b) == 0:
        size_similarity = 1.0
    else:
        size_similarity = min(size_a, size_b) / max(size_a, size_b)

    # Shared columns in ``a``'s column order, not set order: the float sum
    # below must not depend on the interpreter's string-hash seed.
    shared = [column for column in a.columns if column in cols_b]
    if shared:
        overlaps = []
        for column in shared:
            top_a = _top_values(a.column(column))
            top_b = _top_values(b.column(column))
            if not top_a and not top_b:
                overlaps.append(1.0)
                continue
            union_vals = top_a | top_b
            overlaps.append(len(top_a & top_b) / len(union_vals) if union_vals else 1.0)
        content_similarity = sum(overlaps) / len(overlaps)
    else:
        content_similarity = 0.0

    similarity = 0.4 * schema_similarity + 0.2 * size_similarity + 0.4 * content_similarity
    return 1.0 - similarity


def operation_distance(a: Operation, b: Operation) -> float:
    """Syntactic distance in [0, 1] between two operations (used as a tie-breaker)."""
    sig_a, sig_b = a.signature(), b.signature()
    if sig_a[0] != sig_b[0]:
        return 1.0
    fields_a, fields_b = sig_a[1:], sig_b[1:]
    length = max(len(fields_a), len(fields_b))
    if length == 0:
        return 0.0
    differing = sum(
        1
        for i in range(length)
        if (fields_a[i] if i < len(fields_a) else None)
        != (fields_b[i] if i < len(fields_b) else None)
    )
    return differing / length


def session_diversity(new_view: DataTable, previous_views: list[DataTable]) -> float:
    """Diversity contribution of the newest view: min distance to any previous view."""
    if not previous_views:
        return 1.0
    return min(result_distance(new_view, view) for view in previous_views)
