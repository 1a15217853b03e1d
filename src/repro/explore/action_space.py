"""Discretised, factored action space for the exploration MDP.

The DRL agent composes a parametric query operation by choosing an operation
type and then the corresponding parameters (Figure 2 of the paper).  This
module derives the discrete vocabularies from the dataset:

* filter attributes — every column,
* filter operators — the canonical comparison operators,
* filter terms — per attribute, the most frequent categorical values or
  numeric quantiles,
* group attributes — low/medium-cardinality columns,
* aggregation functions and aggregation attributes.

The factored action is a tuple of head indices, decoded by
:meth:`ActionSpace.decode` into an executable operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.dataframe.aggregates import numeric_only
from repro.dataframe.table import DataTable

from .operations import (
    BackOperation,
    FilterOperation,
    GroupAggOperation,
    Operation,
)

#: High-level action types (the snippet type is added by the CDRL network).
ACTION_TYPES: tuple[str, ...] = ("back", "filter", "group")

#: Filter operators exposed to the agent (a practical subset of the engine's set).
AGENT_FILTER_OPERATORS: tuple[str, ...] = ("eq", "neq", "gt", "le", "contains")

#: Aggregation functions exposed to the agent.
AGENT_AGG_FUNCTIONS: tuple[str, ...] = ("count", "sum", "mean", "min", "max")

#: Maximum number of candidate terms per attribute.
TERMS_PER_ATTRIBUTE = 12

#: Maximum distinct values for a column to qualify as a group-by attribute.
GROUPABLE_MAX_DISTINCT = 60


@dataclass(frozen=True)
class ActionChoice:
    """The agent's raw factored choice (one index per softmax head)."""

    action_type: int
    filter_attr: int = 0
    filter_op: int = 0
    filter_term: int = 0
    group_attr: int = 0
    agg_func: int = 0
    agg_attr: int = 0


class ActionSpace:
    """Vocabulary and decoder of the factored exploration action space."""

    def __init__(self, dataset: DataTable, memo: Callable[[], dict] = dict):
        self.dataset = dataset
        self.attributes: list[str] = dataset.columns
        self.filter_operators: list[str] = list(AGENT_FILTER_OPERATORS)
        self.agg_functions: list[str] = list(AGENT_AGG_FUNCTIONS)
        self.group_attributes: list[str] = self._derive_group_attributes(dataset)
        self.agg_attributes: list[str] = self._derive_agg_attributes(dataset)
        self.terms: dict[str, list[Any]] = {
            attr: self._derive_terms(dataset, attr) for attr in self.attributes
        }
        # Validity masks keyed by view schema (:meth:`DataTable.schema_key`,
        # all they read), so every view with one schema reuses one scan.  ``memo`` builds the dict; the exploration
        # context passes one that charges its entry budget.
        self._mask_memo: dict[tuple, dict[str, np.ndarray]] = memo()
        #: A policy's read-only fold of those masks (the head-row columns they
        #: rule out) by (view schema, head sizes), on the same budget.
        self.fold_memo: dict[tuple[tuple, bytes], np.ndarray] = memo()

    # -- vocabulary derivation ----------------------------------------------------------
    @staticmethod
    def _derive_group_attributes(dataset: DataTable) -> list[str]:
        groupable = []
        for name in dataset.columns:
            column = dataset.column(name)
            distinct = column.nunique()
            if 1 < distinct <= GROUPABLE_MAX_DISTINCT:
                groupable.append(name)
        return groupable or dataset.columns[:1]

    @staticmethod
    def _derive_agg_attributes(dataset: DataTable) -> list[str]:
        numeric = dataset.numeric_columns()
        return numeric or dataset.columns[:1]

    @staticmethod
    def _derive_terms(dataset: DataTable, attr: str) -> list[Any]:
        column = dataset.column(attr)
        if column.is_numeric:
            values = sorted(set(column.non_null()))
            if not values:
                return [0]
            if len(values) <= TERMS_PER_ATTRIBUTE:
                return values
            step = len(values) / TERMS_PER_ATTRIBUTE
            return [values[int(i * step)] for i in range(TERMS_PER_ATTRIBUTE)]
        counts = column.value_counts()
        ranked = sorted(counts.items(), key=lambda item: (-item[1], str(item[0])))
        return [value for value, _ in ranked[:TERMS_PER_ATTRIBUTE]] or [""]

    # -- sizes ---------------------------------------------------------------------------
    def head_sizes(self) -> dict[str, int]:
        """Number of choices per softmax head (used to build the policy network)."""
        return {
            "action_type": len(ACTION_TYPES),
            "filter_attr": len(self.attributes),
            "filter_op": len(self.filter_operators),
            "filter_term": TERMS_PER_ATTRIBUTE,
            "group_attr": len(self.group_attributes),
            "agg_func": len(self.agg_functions),
            "agg_attr": len(self.agg_attributes),
        }

    def size(self) -> int:
        """Total number of distinct concrete operations (for reporting)."""
        filter_count = sum(
            len(self.filter_operators) * max(1, len(self.terms[attr]))
            for attr in self.attributes
        )
        group_count = (
            len(self.group_attributes) * len(self.agg_functions) * len(self.agg_attributes)
        )
        return 1 + filter_count + group_count

    #: Bound on the schema-keyed validity-mask memo (cleared wholesale when
    #: exceeded).
    MASK_MEMO_MAX = 4096

    # -- validity masking ----------------------------------------------------------------
    def valid_mask(self, view: DataTable) -> dict[str, np.ndarray]:
        """Batched, schema-only validity masks for every softmax head.

        For the given *view* (the current session node), returns one boolean
        array per head in :meth:`head_sizes` where ``True`` marks choices
        that can decode into an executable operation.  The check mirrors
        :meth:`QueryExecutor.can_execute` — column presence plus dtype
        constraints — and never executes a query, so environments and
        policies can mask invalid actions on every step for free.  Results
        are memoised by the view's schema (callers must treat the returned
        arrays as read-only).

        Per-head masks are exact for this action space: filter operators and
        terms are always applicable once the attribute is present, and
        aggregate attributes come from the dataset's numeric columns, whose
        dtype is preserved in every derived view.  ``count`` decodes with
        ``agg_attr = group_attr``, so it is valid whenever any group
        attribute is.
        """
        key = view.schema_key()
        memo = self._mask_memo
        cached = memo.get(key)
        if cached is None:
            cached = self._compute_valid_mask(view)
            if len(memo) >= self.MASK_MEMO_MAX:
                memo.clear()
            memo[key] = cached
        return cached

    def _compute_valid_mask(self, view: DataTable) -> dict[str, np.ndarray]:
        filter_attr = np.array([attr in view for attr in self.attributes], dtype=bool)
        group_attr = np.array(
            [attr in view for attr in self.group_attributes], dtype=bool
        )
        agg_attr = np.array([attr in view for attr in self.agg_attributes], dtype=bool)
        numeric_agg_attr = np.array(
            [
                attr in view and view.column(attr).is_numeric
                for attr in self.agg_attributes
            ],
            dtype=bool,
        )
        any_group = bool(group_attr.any())
        agg_func = np.array(
            [
                any_group
                if func == "count"
                else bool((numeric_agg_attr if numeric_only(func) else agg_attr).any())
                for func in self.agg_functions
            ],
            dtype=bool,
        )
        action_type = np.array(
            [True, bool(filter_attr.any()), any_group and bool(agg_func.any())],
            dtype=bool,
        )
        return {
            "action_type": action_type,
            "filter_attr": filter_attr,
            "filter_op": np.ones(len(self.filter_operators), dtype=bool),
            "filter_term": np.ones(TERMS_PER_ATTRIBUTE, dtype=bool),
            "group_attr": group_attr,
            "agg_func": agg_func,
            "agg_attr": agg_attr,
        }

    # -- decoding ------------------------------------------------------------------------
    def term_for(self, attr: str, index: int) -> Any:
        """The concrete filter term for *attr* at slot *index* (wrapping)."""
        terms = self.terms.get(attr) or [""]
        return terms[index % len(terms)]

    def decode(self, choice: ActionChoice) -> Operation:
        """Translate a factored head choice into an executable operation."""
        action_type = ACTION_TYPES[choice.action_type % len(ACTION_TYPES)]
        if action_type == "back":
            return BackOperation(steps=1)
        if action_type == "filter":
            attr = self.attributes[choice.filter_attr % len(self.attributes)]
            op = self.filter_operators[choice.filter_op % len(self.filter_operators)]
            term = self.term_for(attr, choice.filter_term)
            return FilterOperation(attr=attr, op=op, term=term)
        group_attr = self.group_attributes[choice.group_attr % len(self.group_attributes)]
        agg_func = self.agg_functions[choice.agg_func % len(self.agg_functions)]
        agg_attr = self.agg_attributes[choice.agg_attr % len(self.agg_attributes)]
        if agg_func == "count":
            agg_attr = group_attr
        return GroupAggOperation(group_attr=group_attr, agg_func=agg_func, agg_attr=agg_attr)

    # -- lookup helpers (used by the snippet machinery) ------------------------------------
    def index_of_attribute(self, attr: str) -> int:
        return self.attributes.index(attr) if attr in self.attributes else 0

    def index_of_operator(self, op: str) -> int:
        return self.filter_operators.index(op) if op in self.filter_operators else 0

    def index_of_agg(self, func: str) -> int:
        return self.agg_functions.index(func) if func in self.agg_functions else 0

    def index_of_group_attribute(self, attr: str) -> int:
        return self.group_attributes.index(attr) if attr in self.group_attributes else 0

    def index_of_agg_attribute(self, attr: str) -> int:
        return self.agg_attributes.index(attr) if attr in self.agg_attributes else 0

    def index_of_term(self, attr: str, term: Any) -> int | None:
        terms = self.terms.get(attr) or []
        for index, value in enumerate(terms):
            if str(value) == str(term):
                return index
        return None

    def enumerate_operations(self, max_operations: int | None = None) -> list[Operation]:
        """Enumerate concrete operations (used by rule-based baselines)."""
        operations: list[Operation] = []
        for attr in self.attributes:
            for op in self.filter_operators:
                for term in self.terms[attr]:
                    operations.append(FilterOperation(attr=attr, op=op, term=term))
                    if max_operations and len(operations) >= max_operations:
                        return operations
        for group_attr in self.group_attributes:
            for agg_func in self.agg_functions:
                for agg_attr in self.agg_attributes:
                    operations.append(
                        GroupAggOperation(
                            group_attr=group_attr, agg_func=agg_func, agg_attr=agg_attr
                        )
                    )
                    if max_operations and len(operations) >= max_operations:
                        return operations
        return operations


HEAD_ORDER: tuple[str, ...] = (
    "action_type",
    "filter_attr",
    "filter_op",
    "filter_term",
    "group_attr",
    "agg_func",
    "agg_attr",
)


def choice_from_indices(indices: Sequence[int]) -> ActionChoice:
    """Build an :class:`ActionChoice` from head indices in :data:`HEAD_ORDER`."""
    values = dict(zip(HEAD_ORDER, indices))
    return ActionChoice(**values)


def choice_from_index_map(indices: Mapping[str, int]) -> ActionChoice:
    """Build an :class:`ActionChoice` from a per-head index mapping.

    Heads absent from *indices* default to 0.  This is the canonical
    decision-to-choice decoder shared by the trainer and the batched
    rollout collector (policies with extra heads supply their own, e.g.
    :meth:`SpecificationAwarePolicy.indices_to_choice`).
    """
    return ActionChoice(**{name: indices.get(name, 0) for name in HEAD_ORDER})
