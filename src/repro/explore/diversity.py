"""Diversity of an exploration session.

The generic reward (Section 5.1) includes a diversity term: the minimal
distance between the newest query and any previous query, using a distance
over query results.  Sessions that keep producing near-identical views are
penalised; sessions that examine genuinely different slices are rewarded.

A view is read once, into a :class:`ViewSummary` (:func:`summarize`), and
distances are computed between summaries, so the reward scorer keeps one
summary per view fingerprint and a new view costs one pass.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.dataframe.table import DataTable

from .operations import Operation


class ViewSummary(NamedTuple):
    """Everything :func:`summary_distance` reads of a view; ``top`` maps each
    column, in schema order, to its first ten distinct values."""

    columns: tuple[str, ...]
    column_set: frozenset[str]
    size: int
    top: dict[str, frozenset]


def summarize(view: DataTable) -> ViewSummary:
    """The distance summary of *view*: one pass over its columns."""
    top = {name: frozenset(view.column(name).unique()[:10]) for name in view.columns}
    return ViewSummary(tuple(top), frozenset(top), len(view), top)


def summary_distance(a: ViewSummary, b: ViewSummary) -> float:
    """Distance in [0, 1] between two summarised result views.

    Combines three signals: schema overlap (Jaccard over column names),
    relative size difference, and the Jaccard overlap, per shared column, of
    the first ten distinct values in first-appearance order.  Identical
    views are at distance 0, views with disjoint schemas at distance 1.
    """
    union = a.column_set | b.column_set
    if not union:
        return 0.0
    schema_similarity = len(a.column_set & b.column_set) / len(union)

    size_a, size_b = a.size, b.size
    if max(size_a, size_b) == 0:
        size_similarity = 1.0
    else:
        size_similarity = min(size_a, size_b) / max(size_a, size_b)

    # Shared columns in ``a``'s column order, not set order: the float sum
    # below must not depend on the interpreter's string-hash seed.
    overlaps = []
    for column in a.columns:
        top_b = b.top.get(column)
        if top_b is None:
            continue
        top_a = a.top[column]
        union_vals = top_a | top_b
        overlaps.append(len(top_a & top_b) / len(union_vals) if union_vals else 1.0)
    content_similarity = sum(overlaps) / len(overlaps) if overlaps else 0.0

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
