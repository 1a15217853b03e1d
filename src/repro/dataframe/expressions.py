"""Filter predicates over columns.

LINX filter operations are parametric triples ``[F, attr, op, term]`` where
``op`` is one of a small closed set of comparison operators (Section 3 of
the paper).  This module implements those operators as composable predicate
objects that evaluate against a :class:`~repro.dataframe.column.Column`.

:meth:`Predicate.mask` is the vectorised columnar path: typed columns are
compared buffer-at-a-time with numpy kernels and return a boolean ndarray.
Object-backed (coercion-bypassing) columns fall back to the per-cell
:meth:`Predicate.evaluate` reference, so semantics are identical either way
-- nulls never match, numeric comparison happens when both sides parse as
numbers, and textual operators are case-insensitive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .column import Column
from .errors import FilterError

#: Canonical operator names supported by the engine, in the order used by the
#: LINX action space.
FILTER_OPERATORS: tuple[str, ...] = (
    "eq",
    "neq",
    "gt",
    "ge",
    "lt",
    "le",
    "contains",
    "startswith",
    "endswith",
)

#: Aliases accepted when parsing LDX or PyLDX text.
OPERATOR_ALIASES: dict[str, str] = {
    "==": "eq",
    "=": "eq",
    "eq": "eq",
    "!=": "neq",
    "ne": "neq",
    "neq": "neq",
    "<>": "neq",
    ">": "gt",
    "gt": "gt",
    ">=": "ge",
    "ge": "ge",
    "geq": "ge",
    "<": "lt",
    "lt": "lt",
    "<=": "le",
    "le": "le",
    "leq": "le",
    "contains": "contains",
    "in": "contains",
    "startswith": "startswith",
    "starts_with": "startswith",
    "endswith": "endswith",
    "ends_with": "endswith",
}


def canonical_operator(op: str) -> str:
    """Map an operator spelling (``=``, ``!=``, ``eq`` ...) to its canonical name."""
    key = str(op).strip().lower()
    if key not in OPERATOR_ALIASES:
        raise FilterError(f"unknown filter operator {op!r}")
    return OPERATOR_ALIASES[key]


def _compare_numeric(op: str, value: Any, term: Any) -> bool:
    try:
        left = float(value)
        right = float(term)
    except (TypeError, ValueError):
        return False
    if op == "gt":
        return left > right
    if op == "ge":
        return left >= right
    if op == "lt":
        return left < right
    if op == "le":
        return left <= right
    raise FilterError(f"unsupported numeric operator {op!r}")


#: Vectorised comparison kernels used by :meth:`Predicate.mask`.
_NUMERIC_UFUNCS: dict[str, Callable[[np.ndarray, float], np.ndarray]] = {
    "gt": np.greater,
    "ge": np.greater_equal,
    "lt": np.less,
    "le": np.less_equal,
}


def _values_equal(value: Any, term: Any) -> bool:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value) == float(term)
        except (TypeError, ValueError):
            return str(value) == str(term)
    return str(value) == str(term)


@dataclass(frozen=True)
class Predicate:
    """A single-column filter predicate ``column <op> term``."""

    column: str
    op: str
    term: Any

    def __post_init__(self) -> None:
        object.__setattr__(self, "op", canonical_operator(self.op))

    def evaluate(self, value: Any) -> bool:
        """Evaluate the predicate against a single cell value.

        Nulls never satisfy a predicate, matching SQL three-valued logic
        collapsed to False.  This is the reference semantics the vectorised
        :meth:`mask` reproduces exactly.
        """
        if value is None:
            return False
        op = self.op
        term = self.term
        if op == "eq":
            return _values_equal(value, term)
        if op == "neq":
            return not _values_equal(value, term)
        if op in ("gt", "ge", "lt", "le"):
            return _compare_numeric(op, value, term)
        text = str(value).lower()
        needle = str(term).lower()
        if op == "contains":
            return needle in text
        if op == "startswith":
            return text.startswith(needle)
        if op == "endswith":
            return text.endswith(needle)
        raise FilterError(f"unsupported operator {op!r}")

    # -- columnar evaluation -------------------------------------------------------
    def mask_reference(self, values: Sequence[Any]) -> list[bool]:
        """Pure-Python per-cell evaluation (the reference for property tests)."""
        return [self.evaluate(value) for value in values]

    def mask(self, column: Column) -> np.ndarray:
        """Evaluate the predicate over every row of *column* (vectorised).

        Returns a boolean ndarray.  Typed int/float/str buffers use numpy
        comparison kernels; object-backed mixed columns dispatch per cell via
        :meth:`evaluate` so dtype-bypassed columns behave identically.
        """
        data, null_mask = column.buffers()
        if data.dtype == object:
            return np.asarray(self.mask_reference(column.values), dtype=bool)
        op = self.op
        term = self.term
        valid = ~null_mask
        n = len(data)
        if op in ("gt", "ge", "lt", "le"):
            try:
                rhs = float(term)
            except (TypeError, ValueError):
                return np.zeros(n, dtype=bool)
            compare = _NUMERIC_UFUNCS[op]
            if column.is_numeric:
                out = compare(data, rhs)
                out &= valid
                return out
            # String columns: cells that parse as numbers participate, the
            # rest are False -- try a wholesale cast, fall back per cell.
            out = np.zeros(n, dtype=bool)
            sub = data[valid]
            try:
                nums = sub.astype(np.float64)
            except (TypeError, ValueError):
                out[valid] = [
                    _compare_numeric(op, v, rhs) for v in sub.tolist()
                ]
            else:
                out[valid] = compare(nums, rhs)
            return out
        if op in ("eq", "neq"):
            term_str = str(term)
            if column.is_numeric:
                try:
                    term_num = float(term)
                except (TypeError, ValueError):
                    term_num = None
                if term_num is not None:
                    out = (data == term_num) if op == "eq" else (data != term_num)
                else:
                    strings = data.astype(str)
                    out = (strings == term_str) if op == "eq" else (strings != term_str)
            else:
                out = (data == term_str) if op == "eq" else (data != term_str)
            out &= valid
            return out
        needle = str(term).lower()
        lowered = column._lower_strings()
        if op == "contains":
            out = np.char.find(lowered, needle) >= 0
        elif op == "startswith":
            out = np.char.startswith(lowered, needle)
        elif op == "endswith":
            out = np.char.endswith(lowered, needle)
        else:
            raise FilterError(f"unsupported operator {op!r}")
        out &= valid
        return out

    def describe(self) -> str:
        """Human readable rendering used in notebooks, e.g. ``country = India``."""
        symbol = {
            "eq": "=",
            "neq": "!=",
            "gt": ">",
            "ge": ">=",
            "lt": "<",
            "le": "<=",
            "contains": "contains",
            "startswith": "starts with",
            "endswith": "ends with",
        }[self.op]
        return f"{self.column} {symbol} {self.term}"
