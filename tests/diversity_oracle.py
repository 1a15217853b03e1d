"""The DataTable-walking result distance, kept as the reference for the
reward scorer's per-view summaries.

:func:`result_distance` reads both views column by column on every call;
production summarises each view once
(:func:`repro.explore.diversity.summarize`) and computes
:func:`~repro.explore.diversity.summary_distance` from two summaries.  The
two must agree bit for bit.
"""

from __future__ import annotations

from repro.dataframe.table import DataTable


def _top_values(column) -> set:
    """The column's first ten distinct values, in first-appearance order."""
    return set(column.unique()[:10])


def result_distance(a: DataTable, b: DataTable) -> float:
    """Distance in [0, 1] between two result views.

    Combines three signals: schema overlap (Jaccard over column names),
    relative size difference, and the overlap, per shared column, of the
    first ten distinct values in first-appearance order.  Identical views
    are at distance 0, views with disjoint schemas at distance 1.
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


def session_diversity(new_view: DataTable, previous_views: list[DataTable]) -> float:
    """Diversity contribution of the newest view: min distance to any previous view."""
    if not previous_views:
        return 1.0
    return min(result_distance(new_view, view) for view in previous_views)
