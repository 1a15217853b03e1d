"""Typed, immutable columns backed by numpy arrays.

A :class:`Column` stores a homogeneous sequence of values as a typed numpy
buffer plus an explicit boolean null mask.  Three logical dtypes are
supported -- ``int``, ``float`` and ``str`` -- which is all the LINX
exploration operators (filter, group-by, aggregate) require:

* ``int``   -> an ``int64`` buffer (``0`` filler at masked slots),
* ``float`` -> a ``float64`` buffer (``NaN`` filler at masked slots),
* ``str``   -> a fixed-width unicode buffer (``""`` filler at masked slots).

A fourth, *object-backed* representation exists for columns that bypass
dtype coercion (external adapters injecting raw mixed int/str values, and
:meth:`Column.from_raw` used by the CSV loader for genuinely mixed columns).
Object-backed columns keep the exact pure-Python semantics of every
operation -- type-aware ordering, per-cell predicate dispatch -- at list
speed, while typed buffers take the vectorised C paths.

Columns are deliberately immutable (buffers are marked read-only): every
transformation returns a new column, which keeps exploration-tree views
independent of each other and makes per-instance memoisation sound.
Derived statistics (``unique``, ``value_counts``, ``null_count``,
``min``/``max`` and the hash) are computed once -- now as array reductions
-- and cached, so the exploration reward and observation featurisation,
which revisit the same views thousands of times during training, pay the
O(n) kernel only on first touch.

The Python-facing API is unchanged: ``values`` is still a tuple with
``None`` at missing slots (materialised lazily from the buffers), columns
iterate and index like sequences, and equality/hash semantics are
value-based.  Hot paths should call :meth:`Column.buffers` instead and work
on the arrays directly.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from .errors import TypeMismatchError

#: Sentinel used for missing values in textual columns.
NULL = None

_NUMERIC_DTYPES = ("int", "float")
_VALID_DTYPES = ("int", "float", "str")

#: Columns of at most this many rows count their distinct values in one
#: Python pass, where numpy's per-call overhead would outweigh the data
#: (floats with an unmasked NaN keep ``np.unique``, which collapses NaNs and
#: a dict does not; both keep the first of -0.0 and 0.0).
SHORT_DISTINCT_ROWS = 64


def infer_dtype(values: Iterable[Any]) -> str:
    """Infer the narrowest dtype (``int`` < ``float`` < ``str``) for *values*.

    Nulls (``None`` / NaN / empty string) are ignored during inference.  An
    empty or all-null input defaults to ``str`` because string columns accept
    any value representation.  Typed numpy arrays short-circuit via their
    dtype kind.
    """
    if isinstance(values, np.ndarray):
        kind = values.dtype.kind
        if kind in "iu":
            return "int" if values.size else "str"
        if kind == "f":
            return "float" if values.size and not np.isnan(values).all() else "str"
        # bool, unicode and object arrays fall through to the generic scan.
    saw_int = False
    saw_float = False
    saw_value = False
    for value in values:
        if is_null(value):
            continue
        saw_value = True
        if isinstance(value, bool):
            return "str"
        if isinstance(value, (int, np.integer)):
            saw_int = True
        elif isinstance(value, (float, np.floating)):
            saw_float = True
        else:
            return "str"
    if not saw_value:
        return "str"
    if saw_float:
        return "float"
    if saw_int:
        return "int"
    return "str"


def is_null(value: Any) -> bool:
    """Return True for the engine's notion of a missing value."""
    if value is None:
        return True
    if isinstance(value, float) and math.isnan(value):
        return True
    if isinstance(value, str) and value == "":
        return True
    return False


def coerce_value(value: Any, dtype: str) -> Any:
    """Coerce *value* to *dtype*, returning ``None`` for nulls.

    Raises :class:`TypeMismatchError` if the value cannot be represented in
    the requested dtype.  This is the per-cell reference the vectorised
    constructor falls back to (and matches exactly).
    """
    if is_null(value):
        return None
    try:
        if dtype == "int":
            if isinstance(value, str):
                return int(float(value))
            return int(value)
        if dtype == "float":
            return float(value)
        if dtype == "str":
            return str(value)
    except (TypeError, ValueError) as exc:
        raise TypeMismatchError(f"cannot coerce {value!r} to {dtype}") from exc
    raise TypeMismatchError(f"unknown dtype {dtype!r}")


def _null_flags(values: Sequence[Any]) -> np.ndarray:
    """Boolean null mask of a raw Python sequence."""
    return np.fromiter((is_null(v) for v in values), dtype=bool, count=len(values))


#: Largest magnitude an int column value may have before int64 storage (via
#: the float64 conversion path) could corrupt it.
_INT64_SAFE = 2**62


def _numeric_buffers(values: Sequence[Any], dtype: str) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised coercion of *values* to an int64/float64 buffer + mask.

    Tries the zero-copy-ish numpy casts first (exact int64 for clean integer
    input, float64 with ``None -> NaN`` otherwise) and falls back to the
    per-cell :func:`coerce_value` reference -- which raises
    :class:`TypeMismatchError` with the offending value (or propagates
    ``OverflowError`` for infinities, like the pre-numpy code) -- when numpy
    cannot convert the input wholesale.  Int values too large for int64 keep
    their exact Python ints in an object buffer rather than overflowing.
    """
    if dtype == "int":
        try:
            data = np.asarray(values, dtype=np.int64)
            return data, np.zeros(len(data), dtype=bool)
        except (TypeError, ValueError, OverflowError):
            pass
    slow = False
    try:
        floats = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        slow = True
    else:
        # Route huge magnitudes through the exact per-cell path: float64 ->
        # int64 truncation would silently wrap them.
        slow = dtype == "int" and bool(
            np.any(np.abs(floats[~np.isnan(floats)]) > _INT64_SAFE)
        )
    if slow:
        coerced = [coerce_value(v, dtype) for v in values]
        if dtype == "int" and any(
            v is not None and not (-_INT64_SAFE <= v <= _INT64_SAFE) for v in coerced
        ):
            data = np.empty(len(coerced), dtype=object)
            data[:] = coerced
            mask = np.fromiter((v is None for v in coerced), dtype=bool, count=len(coerced))
            return data, mask
        floats = np.asarray(
            [math.nan if v is None else v for v in coerced], dtype=np.float64
        )
    mask = np.isnan(floats)
    if dtype == "int":
        data = np.where(mask, 0.0, floats).astype(np.int64)
    else:
        data = floats
    return data, mask


def _string_buffers(values: Sequence[Any]) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised coercion of *values* to a fixed-width unicode buffer + mask.

    Strings containing NUL characters cannot round-trip through numpy's
    fixed-width unicode storage (trailing NULs are indistinguishable from
    padding), so such columns keep coerced ``str`` values in an object
    buffer and take the pure-Python operation paths.
    """
    obj = np.empty(len(values), dtype=object)
    obj[:] = list(values)
    mask = _null_flags(obj)
    raw = obj.tolist()
    if any(isinstance(v, str) and "\x00" in v for v in raw):
        data = np.empty(len(raw), dtype=object)
        data[:] = [None if m else str(v) for v, m in zip(raw, mask.tolist())]
        return data, mask
    data = obj.astype(str)
    if mask.any():
        data[mask] = ""
    return data, mask


class Column:
    """An immutable, named, typed sequence of values.

    Parameters
    ----------
    name:
        Column name as it appears in the table schema.
    values:
        Raw values; they are coerced to *dtype* on construction (vectorised
        through numpy, with the per-cell :func:`coerce_value` semantics).
    dtype:
        One of ``int``, ``float``, ``str``.  When omitted it is inferred.
    """

    __slots__ = (
        "name",
        "dtype",
        # Dual representation: `_values` is the Python-facing tuple (None at
        # missing slots), `_data`/`_mask` the numpy buffers.  Either side is
        # derived lazily from the other, so adapter code that injects raw
        # `_values` via __new__ (bypassing coercion) keeps working -- such
        # columns become object-backed and take the pure-Python fallbacks.
        "_values",
        "_data",
        "_mask",
        # Lazily-populated memo slots; every accessor tolerates the slot
        # being unset (AttributeError).
        "_memo_unique",
        "_memo_counts",
        "_memo_nulls",
        "_memo_minmax",
        "_memo_hash",
        "_memo_lower",
        # Scratch slot for the interestingness scorer's per-column reference
        # distribution (see repro.explore.interestingness); follows the same
        # lazy convention as the other memo slots.
        "_memo_interest",
        # Dictionary encoding: per-row int64 codes (-1 for null) plus the
        # decoded values in code order.  Computed as a byproduct of
        # `_unique_stats` and inherited through `take`, so the value stats of
        # filtered views reduce to integer bincounts instead of re-sorting
        # string buffers.
        "_memo_codes",
        "_memo_code_values",
    )

    def __init__(self, name: str, values: Sequence[Any], dtype: str | None = None):
        if dtype is None:
            dtype = infer_dtype(values)
        if dtype not in _VALID_DTYPES:
            raise TypeMismatchError(f"unsupported dtype {dtype!r}")
        self.name = name
        self.dtype = dtype
        if dtype in _NUMERIC_DTYPES:
            data, mask = _numeric_buffers(values, dtype)
        else:
            data, mask = _string_buffers(values)
        data.flags.writeable = False
        mask.flags.writeable = False
        self._data = data
        self._mask = mask

    @classmethod
    def _from_buffers(
        cls, name: str, dtype: str, data: np.ndarray, mask: np.ndarray
    ) -> "Column":
        """Internal zero-coercion constructor used by ``take``/``rename``."""
        clone = cls.__new__(cls)
        clone.name = name
        clone.dtype = dtype
        if data.flags.writeable:
            data.flags.writeable = False
        if mask.flags.writeable:
            mask.flags.writeable = False
        clone._data = data
        clone._mask = mask
        return clone

    @classmethod
    def from_raw(cls, name: str, values: Sequence[Any]) -> "Column":
        """Build an object-backed ``str``-dtype column without coercion.

        Raw cell types are preserved (nulls become ``None``), so a mixed
        int/str column loaded from disk keeps its integers instead of
        silently turning them into strings.  All operations on such columns
        use the type-aware pure-Python paths.
        """
        data = np.empty(len(values), dtype=object)
        data[:] = [None if is_null(v) else v for v in values]
        mask = np.fromiter((v is None for v in data), dtype=bool, count=len(data))
        return cls._from_buffers(name, "str", data, mask)

    # -- numpy access ---------------------------------------------------------------
    def buffers(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(data, null_mask)`` numpy buffers backing this column.

        ``data`` is int64 / float64 / fixed-width unicode for typed columns
        (with 0 / NaN / ``""`` fillers at masked slots) or an object array
        for coercion-bypassing columns.  Both arrays are read-only; hot
        paths (predicate masks, grouping, featurisation) should consume
        these instead of :attr:`values`.
        """
        try:
            return self._data, self._mask
        except AttributeError:
            pass
        # Adapter-injected `_values` (set via __new__): build object buffers
        # preserving the raw cells so pure-Python semantics stay exact.
        vals = self._values
        data = np.empty(len(vals), dtype=object)
        data[:] = list(vals)
        mask = np.fromiter((v is None for v in data), dtype=bool, count=len(data))
        data.flags.writeable = False
        mask.flags.writeable = False
        self._data = data
        self._mask = mask
        return data, mask

    @property
    def is_object_backed(self) -> bool:
        """True when the column stores raw objects (coercion was bypassed)."""
        return self.buffers()[0].dtype == object

    def _lower_strings(self) -> np.ndarray:
        """Lower-cased unicode view of the data (memoised; typed columns only)."""
        try:
            return self._memo_lower
        except AttributeError:
            data = self.buffers()[0]
            if data.dtype.kind != "U":
                data = data.astype(str)
            self._memo_lower = np.char.lower(data)
            return self._memo_lower

    # -- basic container protocol -------------------------------------------------
    def __len__(self) -> int:
        try:
            return len(self._data)
        except AttributeError:
            return len(self._values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, index: int) -> Any:
        return self.values[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        return (
            self.name == other.name
            and self.dtype == other.dtype
            and self.values == other.values
        )

    def __hash__(self) -> int:
        try:
            return self._memo_hash
        except AttributeError:
            self._memo_hash = hash((self.name, self.dtype, self.values))
            return self._memo_hash

    def __repr__(self) -> str:
        head = self.values[:5]
        preview = ", ".join(repr(v) for v in head)
        suffix = ", ..." if len(self) > 5 else ""
        return f"Column({self.name!r}, dtype={self.dtype}, [{preview}{suffix}])"

    # -- accessors -----------------------------------------------------------------
    @property
    def values(self) -> tuple[Any, ...]:
        """The tuple of (possibly null) Python values (materialised lazily)."""
        try:
            return self._values
        except AttributeError:
            pass
        data, mask = self._data, self._mask
        out = data.tolist()
        if mask.any():
            for i in np.flatnonzero(mask):
                out[i] = None
        self._values = tuple(out)
        return self._values

    @property
    def is_numeric(self) -> bool:
        """True when the column holds ints or floats."""
        return self.dtype in _NUMERIC_DTYPES

    def null_count(self) -> int:
        """Number of missing values (memoised)."""
        try:
            return self._memo_nulls
        except AttributeError:
            self._memo_nulls = int(self.buffers()[1].sum())
            return self._memo_nulls

    def non_null(self) -> list[Any]:
        """All non-null values, in order."""
        data, mask = self.buffers()
        if data.dtype == object:
            return [v for v in self.values if v is not None]
        return data[~mask].tolist()

    def _unique_stats(self) -> None:
        """Populate the distinct-value memos (first-appearance order) in one pass."""
        try:
            codes: np.ndarray | None = self._memo_codes
        except AttributeError:
            codes = None
        if codes is not None:
            # Inherited dictionary encoding: distinct values and counts come
            # from integer codes, avoiding a sort of the (string) buffer.
            # First-appearance order and the decoded value objects match the
            # buffer-based path exactly.
            valid = codes[codes >= 0]
            decoded = self._memo_code_values
            counts_by_code = np.bincount(valid, minlength=len(decoded))
            # First occurrence per code via reversed scatter (last write wins,
            # so writing in reverse leaves the smallest row index), then sort
            # only the handful of present codes — never the row values.
            first_index = np.empty(len(decoded), dtype=np.int64)
            first_index[valid[::-1]] = np.arange(len(valid) - 1, -1, -1)
            present = np.flatnonzero(counts_by_code)
            ordered_codes = present[np.argsort(first_index[present], kind="stable")]
            order = [decoded[code] for code in ordered_codes]
            ordered_counts = counts_by_code[ordered_codes].tolist()
            self._memo_unique = tuple(order)
            self._memo_counts = dict(zip(order, ordered_counts))
            return
        data, mask = self.buffers()
        if data.dtype == object:
            counts: dict[Any, int] = {}
            for value in self.values:
                if value is not None:
                    counts[value] = counts.get(value, 0) + 1
            self._memo_unique = tuple(counts)
            self._memo_counts = counts
            return
        if len(data) <= SHORT_DISTINCT_ROWS and (
            data.dtype.kind in "iubU"
            or (data.dtype.kind == "f" and not np.isnan(data[~mask]).any())
        ):
            self._short_unique_stats(data, mask)
            return
        sub = data[~mask]
        uniq, first_index, inverse, group_counts = np.unique(
            sub, return_index=True, return_inverse=True, return_counts=True
        )
        appearance = np.argsort(first_index, kind="stable")
        order = uniq[appearance].tolist()
        ordered_counts = group_counts[appearance].tolist()
        self._memo_unique = tuple(order)
        self._memo_counts = dict(zip(order, ordered_counts))
        # Byproduct: per-row codes in first-appearance order, inherited by
        # `take` so filtered views never re-sort this column's values.
        rank = np.empty(len(uniq), dtype=np.int64)
        rank[appearance] = np.arange(len(uniq), dtype=np.int64)
        row_codes = np.full(len(data), -1, dtype=np.int64)
        row_codes[~mask] = rank[inverse]
        # Values before codes: a thread that sees the codes must also see
        # the table that decodes them.
        self._memo_code_values = tuple(order)
        self._memo_codes = row_codes

    def _short_unique_stats(self, data: np.ndarray, mask: np.ndarray) -> None:
        """The ``np.unique`` path's four memos, equal in order and value types."""
        code_of: dict[Any, int] = {}
        counts: list[int] = []
        row_codes: list[int] = []
        for value, null in zip(data.tolist(), mask.tolist()):
            if null:
                row_codes.append(-1)
                continue
            code = code_of.get(value)
            if code is None:
                code = code_of[value] = len(counts)
                counts.append(0)
            counts[code] += 1
            row_codes.append(code)
        order = tuple(code_of)
        self._memo_unique = order
        self._memo_counts = dict(zip(order, counts))
        self._memo_code_values = order
        self._memo_codes = np.array(row_codes, dtype=np.int64)

    def unique(self) -> list[Any]:
        """Distinct non-null values in first-appearance order (memoised)."""
        try:
            return list(self._memo_unique)
        except AttributeError:
            self._unique_stats()
            return list(self._memo_unique)

    def value_counts(self) -> dict[Any, int]:
        """Mapping of non-null value -> number of occurrences (memoised).

        A fresh dict is returned on every call so callers may mutate it.
        """
        try:
            return dict(self._memo_counts)
        except AttributeError:
            self._unique_stats()
            return dict(self._memo_counts)

    def nunique(self) -> int:
        """Number of distinct non-null values."""
        try:
            return len(self._memo_unique)
        except AttributeError:
            self._unique_stats()
            return len(self._memo_unique)

    # -- transformations -----------------------------------------------------------
    def rename(self, name: str) -> "Column":
        """Return a copy of the column under a new name (shares the buffers)."""
        data, mask = self.buffers()
        return Column._from_buffers(name, self.dtype, data, mask)

    def take(self, indices: Sequence[int]) -> "Column":
        """Return a new column containing the rows at *indices* (in order)."""
        data, mask = self.buffers()
        idx = np.asarray(indices, dtype=np.int64)
        child = Column._from_buffers(self.name, self.dtype, data[idx], mask[idx])
        try:
            codes = self._memo_codes
        except AttributeError:
            return child
        child._memo_code_values = self._memo_code_values
        child._memo_codes = codes[idx]
        return child

    def cast(self, dtype: str) -> "Column":
        """Return a copy of the column coerced to *dtype*."""
        return Column(self.name, self.values, dtype=dtype)

    # -- statistics ----------------------------------------------------------------
    def _minmax(self) -> tuple[Any, Any]:
        try:
            return self._memo_minmax
        except AttributeError:
            data, mask = self.buffers()
            if data.dtype == object:
                values = [v for v in self.values if v is not None]
                self._memo_minmax = (
                    (min(values), max(values)) if values else (None, None)
                )
                return self._memo_minmax
            sub = data[~mask]
            if sub.size == 0:
                self._memo_minmax = (None, None)
            elif self.dtype == "int":
                self._memo_minmax = (int(sub.min()), int(sub.max()))
            elif self.dtype == "float":
                self._memo_minmax = (float(sub.min()), float(sub.max()))
            else:
                # Unicode buffers share Python's lexicographic ordering.
                self._memo_minmax = (str(sub.min()), str(sub.max()))
            return self._memo_minmax

    def min(self) -> Any:
        return self._minmax()[0]

    def max(self) -> Any:
        return self._minmax()[1]

    def sum(self) -> float | int | None:
        if not self.is_numeric:
            raise TypeMismatchError(f"sum() requires a numeric column, got {self.dtype}")
        data, mask = self.buffers()
        sub = data[~mask]
        if sub.size == 0:
            return None
        if self.dtype == "int":
            if data.dtype != object:
                # Magnitude via exact Python ints: np.abs(INT64_MIN) wraps.
                magnitude = max(abs(int(sub.min())), abs(int(sub.max())))
                if magnitude <= _INT64_SAFE // sub.size:
                    return int(sub.sum())
            # Exact arbitrary-precision accumulation when int64 could wrap.
            return int(sub.sum(dtype=object))
        return float(sub.sum())

    def mean(self) -> float | None:
        if not self.is_numeric:
            raise TypeMismatchError(f"mean() requires a numeric column, got {self.dtype}")
        data, mask = self.buffers()
        sub = data[~mask]
        if sub.size == 0:
            return None
        return float(sub.mean())
