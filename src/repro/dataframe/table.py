"""The :class:`DataTable`: an immutable, columnar, in-memory table.

This is the engine that replaces pandas in the LINX pipeline.  It supports
exactly the operations the paper's exploration model requires:

* schema inspection (column names, dtypes, distinct counts),
* row filtering with :class:`~repro.dataframe.expressions.Predicate`,
* group-and-aggregate with the functions in
  :mod:`repro.dataframe.aggregates`,
* ordering, projection and sampling helpers used by the notebook renderer.

Tables are immutable: each operation returns a new table, so every node of
an exploration tree holds an independent view of the data.

Since the numpy-columnar rewrite the relational kernels are vectorised:
filtering gathers rows with one fancy-index per column, sorting is a stable
``np.argsort`` over a typed key buffer, group-and-aggregate derives integer
group codes with ``np.unique`` and reduces with ``np.bincount``-style
kernels, and :meth:`fingerprint` hashes the raw buffers (``ndarray.tobytes``)
instead of ``repr``-ing Python tuples.  Object-backed (coercion-bypassing)
columns transparently fall back to the original pure-Python paths, so mixed
int/str columns keep their type-aware ordering.

Immutability enables two per-instance memoisations used by the memoized
execution subsystem (:mod:`repro.explore.cache`):

* :meth:`DataTable.fingerprint` — a cheap content fingerprint (schema,
  length and a per-column buffer digest) computed once and reused as the
  cache key for repeated ``(view, operation)`` executions;
* a group-code map per group-by column, so several aggregate functions
  over the same view share one grouping pass.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Mapping, Sequence
from typing import Any

import numpy as np

from .aggregates import apply_aggregation, canonical_agg, numeric_only
from .column import Column, infer_dtype
from .errors import (
    AggregationError,
    ColumnNotFoundError,
    SchemaError,
)
from .expressions import Predicate


#: Distinct-count threshold above which string group keys factorise via
#: vectorised 64-bit hashes instead of binary-searching the (wide) unicode
#: buffer.  Below it the searchsorted path wins (tiny constant factors).
HASH_FACTORIZE_MIN_DISTINCT = 64

#: Multiplier seeding the per-character-position hash weights (the 64-bit
#: golden ratio, as in splitmix64); weights are forced odd so every
#: character position contributes an invertible term.
_HASH_WEIGHT_SEED = 0x9E3779B97F4A7C15


def _hash_weights(width: int) -> np.ndarray:
    """Independent odd 64-bit weights, one per character position.

    Each position's weight runs through the splitmix64 finaliser: linearly
    related weights (e.g. ``(p+1) * seed``) make the key hash a small-integer
    combination of character codes, which collides catastrophically on
    digit-pattern keys; the avalanche mixing decorrelates positions so
    distinct keys collide with ~2^-64 pair probability.
    """
    x = np.arange(1, width + 1, dtype=np.uint64) * np.uint64(_HASH_WEIGHT_SEED)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x | np.uint64(1)


class DataTable:
    """An immutable columnar table.

    Construct from a mapping of column name -> sequence of values, from a
    list of row dictionaries (:meth:`from_records`) or from a delimited file
    (:func:`repro.dataframe.io.read_delimited`).
    """

    def __init__(self, columns: Mapping[str, Sequence[Any]] | Sequence[Column], name: str = "table"):
        self.name = name
        cols: list[Column] = []
        if isinstance(columns, Mapping):
            for col_name, values in columns.items():
                cols.append(Column(str(col_name), list(values)))
        else:
            for col in columns:
                if not isinstance(col, Column):
                    raise SchemaError(f"expected Column instances, got {type(col).__name__}")
                cols.append(col)
        lengths = {len(c) for c in cols}
        if len(lengths) > 1:
            raise SchemaError(f"columns have differing lengths: {sorted(lengths)}")
        names = [c.name for c in cols]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names: {names}")
        self._columns: dict[str, Column] = {c.name: c for c in cols}
        self._length = lengths.pop() if lengths else 0
        # Per-instance memos (sound because tables are immutable).
        self._fingerprint: tuple | None = None
        self._group_rows: dict[str, tuple[list[Any], np.ndarray, int]] = {}

    # -- constructors ---------------------------------------------------------------
    @classmethod
    def from_records(cls, records: Sequence[Mapping[str, Any]], name: str = "table") -> "DataTable":
        """Build a table from a list of row dictionaries.

        Missing keys become nulls; the union of keys defines the schema in
        first-appearance order.
        """
        columns: dict[str, list[Any]] = {}
        for record in records:
            for key in record:
                if key not in columns:
                    columns[key] = []
        for record in records:
            for key in columns:
                columns[key].append(record.get(key))
        return cls(columns, name=name)

    @classmethod
    def empty(cls, schema: Sequence[str], name: str = "table") -> "DataTable":
        """Create an empty table with the given column names."""
        return cls({col: [] for col in schema}, name=name)

    # -- basic protocol ---------------------------------------------------------------
    def __len__(self) -> int:
        return self._length

    def __contains__(self, column: str) -> bool:
        return column in self._columns

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataTable):
            return NotImplemented
        return self.columns == other.columns and all(
            self._columns[c] == other._columns[c] for c in self._columns
        )

    def __repr__(self) -> str:
        return f"DataTable(name={self.name!r}, rows={len(self)}, columns={self.columns})"

    # -- schema -----------------------------------------------------------------------
    @property
    def columns(self) -> list[str]:
        """Column names in schema order."""
        return list(self._columns)

    @property
    def num_rows(self) -> int:
        return self._length

    def schema(self) -> dict[str, str]:
        """Mapping of column name -> dtype."""
        return {name: col.dtype for name, col in self._columns.items()}

    def fingerprint(self) -> tuple:
        """A cheap, hashable content fingerprint of this table.

        Combines the table name, row count, schema and a 128-bit blake2b
        digest over every column's raw buffers (``ndarray.tobytes()`` for
        the data and the null mask).  Tables that are equal (same name,
        schema and values) share a fingerprint, so it can key execution
        caches across distinct-but-identical view objects; distinct
        contents get distinct digests (Python's ``hash`` is deliberately
        avoided — ``hash(-1) == hash(-2)`` would alias views).  Computed
        once per instance.

        Unicode buffers are re-packed to their minimal fixed width before
        hashing so equal contents digest identically regardless of the
        width the buffer happened to be allocated with; object-backed
        columns digest their value ``repr`` in chunks.  Note the digest
        format changed with the numpy-columnar rewrite, so fingerprints
        (and any cache keys persisted from older builds) are not comparable
        across versions.
        """
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=16)
            for column in self._columns.values():
                digest.update(repr((column.name, column.dtype)).encode())
                data, mask = column.buffers()
                if data.dtype == object:
                    values = column.values
                    if all(
                        v is None or (isinstance(v, str) and "\x00" not in v)
                        for v in values
                    ):
                        # All-string object columns canonicalise to the same
                        # unicode buffer a typed column would hold, so equal
                        # tables share a fingerprint regardless of which
                        # construction path produced them.
                        data = np.asarray(
                            ["" if v is None else v for v in values], dtype=str
                        )
                    else:
                        # Mixed / NUL-carrying columns (no typed twin can
                        # exist): digest the value repr in fixed-size chunks
                        # so huge columns never repr() into one giant
                        # transient string.
                        for start in range(0, len(values), 8192):
                            digest.update(repr(values[start : start + 8192]).encode())
                        continue
                if data.dtype.kind == "U":
                    width = max(1, int(np.char.str_len(data).max())) if data.size else 1
                    if data.dtype.itemsize != 4 * width:
                        data = data.astype(f"<U{width}")
                digest.update(data.dtype.str.encode())
                digest.update(data.tobytes())
                digest.update(mask.tobytes())
            self._fingerprint = (
                self.name,
                self._length,
                tuple((c.name, c.dtype) for c in self._columns.values()),
                digest.digest(),
            )
        return self._fingerprint

    def schema_key(self) -> tuple:
        """The hashable ``((name, dtype), ...)`` schema part of :meth:`fingerprint`."""
        return self.fingerprint()[2]

    def column(self, name: str) -> Column:
        """Return the named column, raising :class:`ColumnNotFoundError` if absent."""
        if name not in self._columns:
            raise ColumnNotFoundError(name, self.columns)
        return self._columns[name]

    def numeric_columns(self) -> list[str]:
        """Names of numeric (int/float) columns."""
        return [name for name, col in self._columns.items() if col.is_numeric]

    def categorical_columns(self) -> list[str]:
        """Names of string columns."""
        return [name for name, col in self._columns.items() if not col.is_numeric]

    # -- row access ---------------------------------------------------------------------
    def row(self, index: int) -> dict[str, Any]:
        """Return row *index* as a dictionary."""
        if index < 0 or index >= self._length:
            raise IndexError(f"row index {index} out of range for {self._length} rows")
        return {name: col[index] for name, col in self._columns.items()}

    def rows(self) -> list[dict[str, Any]]:
        """Materialise all rows as dictionaries (intended for small results)."""
        return [self.row(i) for i in range(self._length)]

    def head(self, n: int = 5) -> "DataTable":
        """First *n* rows as a new table."""
        return self._take(np.arange(min(n, self._length)))

    def _take(self, indices: Sequence[int] | np.ndarray) -> "DataTable":
        cols = [col.take(indices) for col in self._columns.values()]
        return DataTable(cols, name=self.name)

    # -- relational operations ------------------------------------------------------------
    def select(self, columns: Sequence[str]) -> "DataTable":
        """Project onto *columns* (in the given order)."""
        cols = [self.column(name) for name in columns]
        return DataTable(cols, name=self.name)

    def filter(self, predicate: Predicate) -> "DataTable":
        """Return the rows satisfying *predicate*."""
        column = self.column(predicate.column)
        mask = predicate.mask(column)
        return self._take(np.flatnonzero(mask))

    def filter_rows(self, mask: Sequence[bool] | np.ndarray) -> "DataTable":
        """Return the rows where *mask* is True; the mask length must match."""
        if len(mask) != self._length:
            raise SchemaError(
                f"mask length {len(mask)} does not match table length {self._length}"
            )
        return self._take(np.flatnonzero(np.asarray(mask, dtype=bool)))

    def sort_by(self, column: str, descending: bool = False) -> "DataTable":
        """Sort rows by *column*; nulls sort last regardless of direction.

        Typed buffers sort with one stable ``np.argsort`` (numeric keys use
        a NaN-at-null float view, string keys sort via their distinct-value
        codes so descending stays stable).  The object-backed fallback keeps
        the type-aware key so mixed-type columns (e.g. ints and strings in
        one column, as external adapters can produce) order deterministically
        instead of raising ``TypeError`` mid-episode: ascending puts numbers
        first, then everything else by its string form; ``descending``
        reverses that bucket order too (strings before numbers), with nulls
        last either way.
        """
        col = self.column(column)
        data, null_mask = col.buffers()
        if data.dtype == object:
            return self._take(self._sort_order_mixed(col, descending))
        if col.is_numeric:
            key = data.astype(np.float64, copy=True)
            if null_mask.any():
                key[null_mask] = np.nan
            # NaN sorts last under stable argsort in either direction.
            order = np.argsort(-key if descending else key, kind="stable")
        else:
            valid = np.flatnonzero(~null_mask)
            codes = np.unique(data[valid], return_inverse=True)[1]
            sub_order = np.argsort(-codes if descending else codes, kind="stable")
            order = np.concatenate([valid[sub_order], np.flatnonzero(null_mask)])
        return self._take(order)

    @staticmethod
    def _sort_order_mixed(col: Column, descending: bool) -> list[int]:
        """Type-aware stable sort order for object-backed columns."""
        keyed = list(range(len(col)))
        values = col.values

        def key(i: int):
            value = values[i]
            if value is None:
                return (1, 0, 0.0, "")
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return (0, 0, value, "")
            return (0, 1, 0.0, str(value))

        keyed.sort(key=key, reverse=descending)
        if descending:
            # Move nulls back to the end after the reverse sort.
            non_null = [i for i in keyed if values[i] is not None]
            nulls = [i for i in keyed if values[i] is None]
            keyed = non_null + nulls
        return keyed

    def _group_index(self, group_column: str) -> tuple[list[Any], np.ndarray, int]:
        """Group codes of each row, memoised per column.

        Returns ``(order, codes, count)`` where *order* lists the distinct
        non-null keys in first-appearance order, ``codes[i]`` is the index
        into *order* of row ``i``'s key (``-1`` for null keys) and *count*
        is ``len(order)``.  The map is computed once per (table, column)
        and reused by every aggregate function applied to the same view.
        """
        cached = self._group_rows.get(group_column)
        if cached is None:
            key_col = self._columns[group_column]
            data, null_mask = key_col.buffers()
            if data.dtype == object:
                order: list[Any] = []
                slots: dict[Any, int] = {}
                codes = np.full(len(data), -1, dtype=np.int64)
                for i, key in enumerate(key_col.values):
                    if key is None:
                        continue
                    slot = slots.get(key)
                    if slot is None:
                        slot = slots[key] = len(order)
                        order.append(key)
                    codes[i] = slot
            else:
                # Factorise against the column's memoised distinct values:
                # a direct lookup table for dense integer keys, otherwise one
                # binary search per row (O(n log k)); both beat re-sorting
                # the whole key buffer on every fresh view.
                order = key_col.unique()
                codes = np.full(len(data), -1, dtype=np.int64)
                if order:
                    uniq = np.asarray(order, dtype=data.dtype)
                    valid = ~null_mask
                    if data.dtype.kind in "iu":
                        lo = int(uniq.min())
                        span = int(uniq.max()) - lo + 1
                        if span <= max(1024, 4 * len(data)):
                            lut = np.full(span, -1, dtype=np.int64)
                            lut[uniq - lo] = np.arange(len(uniq))
                            codes[valid] = lut[data[valid] - lo]
                            cached = (order, codes, len(order))
                            self._group_rows[group_column] = cached
                            return cached
                    key_side, row_side = uniq, data[valid]
                    if (
                        data.dtype.kind == "U"
                        and len(order) >= HASH_FACTORIZE_MIN_DISTINCT
                    ):
                        # High-cardinality string keys: comparison-based
                        # factorisation pays O(log k) *wide-string* compares
                        # per row.  Hash every key to one uint64 in a single
                        # vectorised pass instead; rows then factorise with
                        # machine-word lookups (no string is ever compared).
                        hashed = self._hash_factorize(uniq, row_side)
                        if hashed is not None:
                            codes[valid] = hashed
                            cached = (order, codes, len(order))
                            self._group_rows[group_column] = cached
                            return cached
                    if data.dtype.kind == "U" and data.dtype.itemsize in (4, 8):
                        # Short strings binary-search ~2x faster when their
                        # UCS4 bytes are reinterpreted as one machine word
                        # (any consistent total order works for exact match).
                        word = np.int32 if data.dtype.itemsize == 4 else np.int64
                        key_side = uniq.view(word)
                        row_side = row_side.view(word)
                    by_value = np.argsort(key_side, kind="stable").astype(np.int64)
                    positions = np.searchsorted(key_side[by_value], row_side)
                    codes[valid] = by_value[positions]
            cached = (order, codes, len(order))
            self._group_rows[group_column] = cached
        return cached

    @staticmethod
    def _hash_factorize(uniq: np.ndarray, rows: np.ndarray) -> "np.ndarray | None":
        """Hash-based factorisation of unicode keys (no string comparisons).

        Every key — the k distinct values in *uniq* and the n row values in
        *rows* — is reduced to one uint64 by a weighted sum of its UCS4 code
        units (position-dependent odd weights, natural 2^64 wraparound).
        Row hashes are then resolved against the k distinct hashes with
        integer lookups.  Correctness needs only the k *distinct* hashes to
        be pairwise distinct (row values are drawn from them); if that check
        fails — vanishingly unlikely, ~k²/2^64 — the caller falls back to
        the comparison-based path.  Returns the codes of *rows* into
        *uniq*'s positions, or ``None`` on hash collision.
        """
        width = uniq.dtype.itemsize // 4
        if width == 0:
            return None
        weights = _hash_weights(width)

        def hash_keys(values: np.ndarray) -> np.ndarray:
            units = (
                np.ascontiguousarray(values)
                .view(np.uint32)
                .reshape(len(values), width)
                .astype(np.uint64)
            )
            # einsum contracts without materialising the (n, width) product
            # matrix; uint64 arithmetic wraps, which is the hash's modulus.
            return np.einsum("nw,w->n", units, weights)

        uniq_hashes = hash_keys(uniq)
        sorted_hashes = np.sort(uniq_hashes)
        if sorted_hashes.size > 1 and (sorted_hashes[1:] == sorted_hashes[:-1]).any():
            return None
        by_value = np.argsort(uniq_hashes, kind="stable").astype(np.int64)
        positions = np.searchsorted(sorted_hashes, hash_keys(rows))
        return by_value[positions]

    def groupby_agg(
        self,
        group_column: str,
        agg_func: str,
        agg_column: str | None = None,
    ) -> "DataTable":
        """Group by *group_column* and aggregate *agg_column* with *agg_func*.

        The result has two columns: the group key and a column named
        ``{agg_func}_{agg_column}`` -- ``count`` for counts over the group
        key itself and ``count_{agg_column}`` for counts over another
        column.  Groups are returned ordered by descending aggregate value,
        then by first appearance, which mirrors the presentation order in
        the paper's notebooks.
        """
        func = canonical_agg(agg_func)
        self.column(group_column)  # validate early for a clear error
        if agg_column is None:
            agg_column = group_column
        value_col = self.column(agg_column)
        if numeric_only(func) and not value_col.is_numeric:
            raise AggregationError(
                f"{func}() on non-numeric column {agg_column!r} (dtype {value_col.dtype})"
            )

        key_col = self.column(group_column)
        key_data = key_col.buffers()[0]

        if func == "count":
            result_name = "count" if agg_column == group_column else f"count_{agg_column}"
        else:
            result_name = f"{func}_{agg_column}"

        if (
            func == "count"
            and agg_column == group_column
            and key_data.dtype != object
            and result_name != group_column
        ):
            # Counting the group key is exactly the column's (memoised)
            # value_counts -- no group codes needed at all.
            counts_map = key_col.value_counts()
            if counts_map:
                order = list(counts_map)
                counts = np.fromiter(
                    counts_map.values(), dtype=np.int64, count=len(order)
                )
                return self._build_grouped_result(
                    group_column,
                    key_col,
                    order,
                    result_name,
                    counts,
                    np.zeros(len(order), dtype=bool),
                    "int",
                )

        order, codes, n_groups = self._group_index(group_column)
        aggregated = self._grouped_aggregate(func, codes, n_groups, value_col)

        if (
            isinstance(aggregated, tuple)
            and key_data.dtype != object
            and result_name != group_column
            and n_groups > 0
            and not aggregated[1].all()
        ):
            agg_data, agg_mask, agg_dtype = aggregated
            return self._build_grouped_result(
                group_column, key_col, order, result_name, agg_data, agg_mask, agg_dtype
            )

        # Generic path (object-backed inputs, empty or all-null results):
        # build through the coercing constructor, preserving the historical
        # dtype inference (e.g. an all-null aggregate column infers ``str``).
        if isinstance(aggregated, tuple):
            agg_data, agg_mask, _ = aggregated
            values = [
                None if null else value
                for value, null in zip(agg_data.tolist(), agg_mask.tolist())
            ]
        else:
            values = aggregated
        table = DataTable({group_column: order, result_name: values}, name=self.name)
        # Present the largest groups first, which is how analysts read them.
        value_column = table.column(result_name)
        if value_column.is_numeric:
            table = table.sort_by(result_name, descending=True)
        return table

    def _build_grouped_result(
        self,
        group_column: str,
        key_col: Column,
        order: list[Any],
        result_name: str,
        agg_data: np.ndarray,
        agg_mask: np.ndarray,
        agg_dtype: str,
    ) -> "DataTable":
        """Assemble a grouped result straight from typed buffers.

        The result arrives already ordered largest-aggregate-first (stable,
        nulls last) -- which is how analysts read grouped views -- without a
        second table materialisation.
        """
        keys = np.asarray(order, dtype=key_col.buffers()[0].dtype)
        if agg_dtype in ("int", "float"):
            sort_key = agg_data.astype(np.float64, copy=True)
            if agg_mask.any():
                sort_key[agg_mask] = np.nan
            by_value = np.argsort(-sort_key, kind="stable")
            keys = keys[by_value]
            agg_data = agg_data[by_value]
            agg_mask = agg_mask[by_value]
        cols = [
            Column._from_buffers(
                group_column, key_col.dtype, keys, np.zeros(len(order), dtype=bool)
            ),
            Column._from_buffers(result_name, agg_dtype, agg_data, agg_mask),
        ]
        return DataTable(cols, name=self.name)

    @staticmethod
    def _grouped_aggregate(
        func: str, codes: np.ndarray, n_groups: int, value_col: Column
    ) -> tuple[np.ndarray, np.ndarray, str] | list[Any]:
        """Aggregate *value_col* per group code with vectorised kernels.

        Returns ``(data, null_mask, dtype)`` buffers with one slot per group
        (masked where the group has no non-null values, matching the
        per-list reference aggregations in :mod:`repro.dataframe.aggregates`).
        Object-backed value columns fall back to that reference
        implementation -- returning a plain value list -- so error semantics
        for mixed-type values are preserved.
        """
        data, null_mask = value_col.buffers()
        if data.dtype == object:
            buckets: list[list[Any]] = [[] for _ in range(n_groups)]
            for code, value in zip(codes.tolist(), value_col.values):
                if code >= 0:
                    buckets[code].append(value)
            return [apply_aggregation(func, bucket) for bucket in buckets]

        selected = (codes >= 0) & ~null_mask
        group_of = codes[selected]
        counts = np.bincount(group_of, minlength=n_groups)
        empty = counts == 0
        if func == "count":
            return counts, np.zeros(n_groups, dtype=bool), "int"
        if func == "nunique":
            distinct = np.zeros(n_groups, dtype=np.int64)
            if group_of.size:
                distinct_values = np.unique(data[selected], return_inverse=True)[1]
                stride = int(distinct_values.max()) + 1
                pairs = np.unique(group_of * stride + distinct_values)
                distinct = np.bincount(pairs // stride, minlength=n_groups)
            return distinct, np.zeros(n_groups, dtype=bool), "int"
        if func in ("sum", "mean"):
            weights = data[selected]
            if (
                func == "sum"
                and value_col.dtype == "int"
                and weights.size
                # A group sum can reach |value|_max * group_size; beyond
                # 2**52 the float64 accumulation loses exactness.  Magnitude
                # via exact Python ints: np.abs(INT64_MIN) wraps.
                and max(abs(int(weights.min())), abs(int(weights.max())))
                > 2**52 // weights.size
            ):
                # float64 weights would lose exactness; take the per-list
                # reference path for these (rare) huge-int columns.
                buckets = [[] for _ in range(n_groups)]
                for code, value in zip(group_of.tolist(), weights.tolist()):
                    buckets[code].append(value)
                return [apply_aggregation(func, bucket) for bucket in buckets]
            sums = np.bincount(
                group_of, weights=weights.astype(np.float64), minlength=n_groups
            )
            if func == "mean":
                means = np.divide(
                    sums, counts, out=np.full(n_groups, np.nan), where=~empty
                )
                return means, empty, "float"
            if value_col.dtype == "int":
                return np.where(empty, 0, sums).astype(np.int64), empty, "int"
            # Keep the canonical NaN filler at masked slots so equal tables
            # digest identically regardless of construction path.
            return np.where(empty, np.nan, sums), empty, "float"
        # min/max: order rows by (group, value) once, then read the group
        # boundaries.  Works uniformly for numeric and unicode buffers.
        out = np.zeros(n_groups, dtype=data.dtype)
        if group_of.size:
            sub = data[selected]
            by_group_then_value = np.lexsort((sub, group_of))
            sorted_groups = group_of[by_group_then_value]
            sorted_values = sub[by_group_then_value]
            starts = np.flatnonzero(
                np.r_[True, sorted_groups[1:] != sorted_groups[:-1]]
            )
            ends = np.r_[starts[1:], sorted_groups.size]
            edge = starts if func == "min" else ends - 1
            out[sorted_groups[starts]] = sorted_values[edge]
        if value_col.dtype == "float" and empty.any():
            out[empty] = np.nan
        return out, empty, value_col.dtype

    def distinct(self, column: str) -> list[Any]:
        """Distinct non-null values of *column*."""
        return self.column(column).unique()

    def value_counts(self, column: str) -> dict[Any, int]:
        """Frequency of each non-null value in *column*."""
        return self.column(column).value_counts()

    def sample_values(self, column: str, k: int = 10, seed: int = 0) -> list[Any]:
        """A deterministic pseudo-random sample of up to *k* distinct values."""
        values = self.distinct(column)
        if len(values) <= k:
            return values
        # Simple deterministic LCG shuffle; avoids importing random for reproducibility.
        state = (seed * 2654435761 + 97) % (2**32)
        picked: list[Any] = []
        pool = list(values)
        for _ in range(k):
            state = (1103515245 * state + 12345) % (2**31)
            index = state % len(pool)
            picked.append(pool.pop(index))
        return picked

    # -- export ------------------------------------------------------------------------
    def to_records(self) -> list[dict[str, Any]]:
        """Alias of :meth:`rows` for symmetry with :meth:`from_records`."""
        return self.rows()

    def to_columns(self) -> dict[str, list[Any]]:
        """Materialise the table as a mapping of column name -> list of values."""
        return {name: list(col.values) for name, col in self._columns.items()}

    def describe(self) -> dict[str, dict[str, Any]]:
        """Per-column summary used by prompts and the notebook renderer."""
        summary: dict[str, dict[str, Any]] = {}
        for name, col in self._columns.items():
            info: dict[str, Any] = {
                "dtype": col.dtype,
                "nulls": col.null_count(),
                "distinct": col.nunique(),
            }
            if col.is_numeric:
                info.update({"min": col.min(), "max": col.max(), "mean": col.mean()})
            else:
                counts = col.value_counts()
                if counts:
                    top = max(counts.items(), key=lambda item: item[1])
                    info.update({"top": top[0], "top_count": top[1]})
            summary[name] = info
        return summary


def concat_rows(tables: Iterable[DataTable], name: str = "table") -> DataTable:
    """Concatenate tables that share the same schema, preserving row order."""
    tables = list(tables)
    if not tables:
        raise SchemaError("concat_rows() requires at least one table")
    schema = tables[0].columns
    for table in tables[1:]:
        if table.columns != schema:
            raise SchemaError(f"schema mismatch: {table.columns} vs {schema}")
    merged: dict[str, list[Any]] = {col: [] for col in schema}
    for table in tables:
        data = table.to_columns()
        for col in schema:
            merged[col].extend(data[col])
    return DataTable(merged, name=name)


def infer_schema(records: Sequence[Mapping[str, Any]]) -> dict[str, str]:
    """Infer a ``column -> dtype`` schema from row dictionaries."""
    columns: dict[str, list[Any]] = {}
    for record in records:
        for key, value in record.items():
            columns.setdefault(key, []).append(value)
    return {key: infer_dtype(values) for key, values in columns.items()}
