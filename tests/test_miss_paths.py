"""The step's miss paths against their oracles.

A step that meets a new view or a new guidance state pays four misses: the
view's distance summary, the distinct values of its (short) columns, the
validity-mask fold of its bias row and the continuity bindings of its
specification assignment.  Each fast path must reproduce its reference
exactly: the DataTable-walking distance (``tests/diversity_oracle.py``), the
``np.unique`` distinct pass, the per-head mask loop below and a recomputed
binding.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COMPARISON_LDX
from diversity_oracle import result_distance, session_diversity
from repro.cdrl.spec_network import SpecificationAwarePolicy, _node_signature
from repro.dataframe import DataTable
from repro.dataframe import column as column_module
from repro.dataframe.column import SHORT_DISTINCT_ROWS, Column
from repro.datasets import load_dataset
from repro.explore import (
    ActionSpace,
    BackOperation,
    ExecutionError,
    ExplorationSession,
    FilterOperation,
    GenericExplorationReward,
    GroupAggOperation,
    QueryExecutor,
    summarize,
    summary_distance,
)
from repro.explore.action_space import AGENT_AGG_FUNCTIONS, AGENT_FILTER_OPERATORS
from repro.ldx import parse_ldx
from repro.plan import LogicalPlan
from repro.rl.network import MultiHeadPolicyNetwork
from repro.rl.policy import MASK_LOGIT_BIAS, BiasRow, CategoricalPolicy

DATASETS = ("flights", "netflix", "playstore")


# -- per-view distance summaries -----------------------------------------------------
@st.composite
def view_chains(draw):
    """Views from a random filter/group-by chain on one dataset, plus edge views."""
    table = load_dataset(draw(st.sampled_from(DATASETS)), num_rows=120)
    executor = QueryExecutor()
    views = [table, table.head(1), DataTable({"zz_disjoint": [1, 2, 3]}), DataTable({})]
    view = table
    for _ in range(draw(st.integers(1, 5))):
        columns = view.columns
        if not columns or len(view) == 0:
            break
        column = draw(st.sampled_from(columns))
        if draw(st.booleans()):
            values = view.column(column).unique()
            # A term absent from the view gives an empty result.
            term = draw(st.sampled_from(values[:8] + ["<absent>"])) if values else "<absent>"
            operator = draw(st.sampled_from(AGENT_FILTER_OPERATORS))
            operation = FilterOperation(column, operator, term)
        else:
            operation = GroupAggOperation(
                column,
                draw(st.sampled_from(AGENT_AGG_FUNCTIONS)),
                draw(st.sampled_from(columns)),
            )
        try:
            view = executor.execute_step(table, LogicalPlan(()), view, operation)[0]
        except ExecutionError:
            continue
        views.append(view)
        views.append(view.head(1))
    return views


class TestSummaryDistanceMatchesOracle:
    @settings(max_examples=60, deadline=None)
    @given(view_chains())
    def test_summary_distance_equals_the_table_walk(self, views):
        summaries = [summarize(view) for view in views]
        for a, summary_a in zip(views, summaries):
            for b, summary_b in zip(views, summaries):
                assert (
                    summary_distance(summary_a, summary_b).hex()
                    == result_distance(a, b).hex()
                )
        scorer = GenericExplorationReward()
        new_view, previous = views[-1], views[:-1]
        assert scorer._diversity(new_view, previous) == session_diversity(new_view, previous)


# -- the short-column distinct kernel ------------------------------------------------
@contextmanager
def _numpy_distinct_path():
    """Route every column, however short, through ``np.unique``."""
    saved = column_module.SHORT_DISTINCT_ROWS
    column_module.SHORT_DISTINCT_ROWS = -1
    try:
        yield
    finally:
        column_module.SHORT_DISTINCT_ROWS = saved


def _memos(column: Column) -> tuple:
    column._unique_stats()
    unique, counts = column._memo_unique, column._memo_counts
    codes = column._memo_codes
    return (
        unique,
        [type(value) for value in unique],
        list(counts.items()),
        [type(count) for count in counts.values()],
        column._memo_code_values,
        [type(value) for value in column._memo_code_values],
        codes.dtype,
        codes.tolist(),
    )


_KIND_VALUES = {
    "int": (np.int64, st.integers(-3, 3)),
    "uint": (np.uint64, st.integers(0, 4)),
    "bool": (np.bool_, st.booleans()),
    "str": (np.str_, st.sampled_from(["", "a", "b", "ab", "B", " a"])),
}


@st.composite
def short_buffers(draw):
    kind = draw(st.sampled_from(sorted(_KIND_VALUES)))
    dtype, values = _KIND_VALUES[kind]
    length = draw(st.integers(0, SHORT_DISTINCT_ROWS + 1))
    data = np.array(draw(st.lists(values, min_size=length, max_size=length)), dtype=dtype)
    mask = np.array(draw(st.lists(st.booleans(), min_size=length, max_size=length)), dtype=bool)
    return ("str" if kind == "str" else "int"), data, mask


class TestShortDistinctKernel:
    @settings(max_examples=300, deadline=None)
    @given(short_buffers())
    def test_short_pass_fills_the_numpy_memos(self, buffers):
        dtype, data, mask = buffers
        short = Column._from_buffers("c", dtype, data.copy(), mask.copy())
        reference = Column._from_buffers("c", dtype, data.copy(), mask.copy())
        with _numpy_distinct_path():
            expected = _memos(reference)
        assert _memos(short) == expected


# -- the one-pass mask fold ----------------------------------------------------------
def per_head_mask_fold(policy: CategoricalPolicy, biases: BiasRow, environment) -> BiasRow:
    """The former fold: pad or truncate each head's mask, skip all-true and
    all-false masks, and bias the rest head by head."""
    layout = policy.network.layout
    for name, size in zip(layout.names, layout.sizes):
        mask = environment.head_mask(name)
        if mask is None:
            continue
        mask = np.asarray(mask, dtype=bool)
        if len(mask) < size:
            mask = np.concatenate([mask, np.ones(size - len(mask), dtype=bool)])
        elif len(mask) > size:
            mask = mask[:size]
        if mask.all() or not mask.any():
            continue
        biases.head(layout, name)[~mask] += MASK_LOGIT_BIAS
    return biases


class _MaskedEnvironment:
    def __init__(self, masks):
        self.masks = masks

    def head_mask(self, head):
        return self.masks.get(head)


@st.composite
def mask_cases(draw):
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    heads = {f"h{i}": size for i, size in enumerate(sizes)}
    masks = {}
    for name, size in heads.items():
        shape = draw(st.sampled_from(["none", "all_true", "all_false", "random"]))
        length = draw(st.sampled_from([size, size, max(size - 2, 0), size + 2]))
        if shape == "none":
            continue
        if shape == "random":
            masks[name] = draw(st.lists(st.booleans(), min_size=length, max_size=length))
        else:
            masks[name] = [shape == "all_true"] * length
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    total = sum(sizes)
    row = rng.normal(size=total) * (rng.random(total) < 0.5)
    folded = rng.random(len(sizes)) < 0.3
    return heads, masks, row, folded


class TestMaskFoldMatchesPerHeadLoop:
    @settings(max_examples=300, deadline=None)
    @given(mask_cases())
    def test_flat_fold_equals_the_per_head_loop(self, case):
        heads, masks, row, folded = case
        network = MultiHeadPolicyNetwork(
            observation_size=3, head_sizes=heads, hidden_sizes=(4,), seed=0
        )
        policy = CategoricalPolicy(network, mask_invalid_actions=True)
        environment = _MaskedEnvironment(
            {name: np.array(mask, dtype=bool) for name, mask in masks.items()}
        )
        flat = policy._apply_masks(BiasRow(row.copy(), folded.copy()), environment)
        expected = per_head_mask_fold(policy, BiasRow(row.copy(), folded.copy()), environment)
        assert flat.row.tobytes() == expected.row.tobytes()
        assert flat.folded.tolist() == expected.folded.tolist()


# -- the continuity-bindings memo ----------------------------------------------------
def recomputed_bindings(policy: SpecificationAwarePolicy, assignment) -> dict[str, str]:
    bindings: dict[str, str] = {}
    for spec in policy.query.operational_specs():
        node = assignment.nodes.get(spec.name)
        if node is None:
            continue
        signature = _node_signature(node)
        if spec.operation.matches(signature, bindings):
            bindings.update(spec.operation.capture(signature, bindings))
    return bindings


_SESSION_STEPS = [
    FilterOperation("country", op, term)
    for op in ("eq", "neq")
    for term in ("Japan", "Mexico", "Germany")
] + [
    GroupAggOperation(attr, "count", attr) for attr in ("type", "rating", "country")
] + [BackOperation(1), BackOperation(2)]


class TestBindingsMemo:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(_SESSION_STEPS), max_size=8), min_size=1, max_size=4))
    def test_memoised_bindings_equal_recomputed_bindings(self, sessions):
        table = load_dataset("netflix", num_rows=120)
        space = ActionSpace(table)
        policy = SpecificationAwarePolicy(8, space, parse_ldx(COMPARISON_LDX))
        executor = QueryExecutor()
        for operations in sessions:
            session = ExplorationSession(table)
            for operation in operations:
                try:
                    if isinstance(operation, BackOperation):
                        session.go_back(operation.steps)
                    else:
                        session.apply(operation, executor)
                except ExecutionError:
                    continue
                assignment, _, _ = policy.matcher.best_partial_structural_assignment(
                    session.root
                )
                assert policy._continuity_bindings(assignment) == recomputed_bindings(
                    policy, assignment
                )
