"""The step's miss paths against their oracles.

A step that meets a new view or a new guidance state pays its misses: the
view's distance summary, the distinct values of its (short) columns, the
plan extension of its operation, and a decision row composed from a pooled
guidance row and the view's pooled mask fold.  Each fast path must reproduce
its reference exactly: the DataTable-walking distance
(``tests/diversity_oracle.py``), the ``np.unique`` distinct pass, the
filter-run normal form and streamed digest below, and the guidance and
per-head mask loop below, recomputed from the session with no memo.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COMPARISON_LDX
from diversity_oracle import result_distance, session_diversity
from repro.bench.generator import generate_benchmark
from repro.cdrl import CdrlConfig, LinxCdrlAgent
from repro.cdrl.context import SharedExplorationContext
from repro.cdrl.spec_network import (
    BACK_ACTION_INDEX,
    SNIPPET_ACTION_INDEX,
    SpecificationAwarePolicy,
    _node_signature,
)
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
    ExecutionCache,
    GroupAggOperation,
    QueryExecutor,
    summarize,
    summary_distance,
)
from repro.explore.action_space import AGENT_AGG_FUNCTIONS, AGENT_FILTER_OPERATORS
from repro.ldx import parse_ldx
from repro.plan import FilterNode, GroupNode, LogicalPlan, node_from_operation
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
    """The four memos, values by ``repr`` (which tells -0.0 from 0.0 and
    compares NaNs)."""
    column._unique_stats()
    unique, counts = column._memo_unique, column._memo_counts
    codes = column._memo_codes
    return (
        [repr(value) for value in unique],
        [type(value) for value in unique],
        [(repr(value), count) for value, count in counts.items()],
        [type(count) for count in counts.values()],
        [repr(value) for value in column._memo_code_values],
        [type(value) for value in column._memo_code_values],
        codes.dtype,
        codes.tolist(),
    )


_KIND_VALUES = {
    "int": (np.int64, st.integers(-3, 3)),
    "uint": (np.uint64, st.integers(0, 4)),
    "bool": (np.bool_, st.booleans()),
    "str": (np.str_, st.sampled_from(["", "a", "b", "ab", "B", " a"])),
    "float": (
        np.float64,
        st.sampled_from([0.0, -0.0, 1.5, -1.5, 2.0, np.inf, -np.inf, np.nan]),
    ),
}


@st.composite
def short_buffers(draw):
    kind = draw(st.sampled_from(sorted(_KIND_VALUES)))
    dtype, values = _KIND_VALUES[kind]
    length = draw(st.integers(0, SHORT_DISTINCT_ROWS + 1))
    data = np.array(draw(st.lists(values, min_size=length, max_size=length)), dtype=dtype)
    mask = np.array(draw(st.lists(st.booleans(), min_size=length, max_size=length)), dtype=bool)
    return {"str": "str", "float": "float"}.get(kind, "int"), data, mask


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


# -- the composed decision row -------------------------------------------------------
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


def guidance_oracle(policy: SpecificationAwarePolicy, session) -> BiasRow:
    """The former guidance, recomputed from *session* with no key and no memo:
    static biases, then the shift toward the pending specification node."""
    layout = policy.network.layout
    biases = BiasRow.empty(layout)
    action_bias = biases.head(layout, "action_type")
    if len(policy.library) > 0:
        action_bias[SNIPPET_ACTION_INDEX] = policy.snippet_bias
    for head, indices in policy.library.preferred_indices().items():
        if not indices or head not in layout.slots:
            continue
        bias = biases.head(layout, head)
        for index in indices:
            if index < len(bias):
                bias[index] = policy.parameter_bias
    assignment, _, named = policy.matcher.best_partial_structural_assignment(session.root)
    pending = [n for n in policy.query.preorder_named_nodes() if n not in assignment.nodes]
    if named == 0 or not pending:
        return biases
    target = policy._target_parent_node(pending[0], assignment)
    if target is None or target is session.current:
        action_bias[SNIPPET_ACTION_INDEX] += policy.structure_bias
        action_bias[BACK_ACTION_INDEX] -= policy.structure_bias
        policy._bias_toward_spec(pending[0], recomputed_bindings(policy, assignment), biases)
    else:
        action_bias[BACK_ACTION_INDEX] += policy.structure_bias
        action_bias[SNIPPET_ACTION_INDEX] -= policy.structure_bias
    return biases


def _continuity_specs() -> dict[str, list[str]]:
    """Per dataset, the corpus specifications that bind continuity variables."""
    specs: dict[str, list[str]] = {name: [] for name in DATASETS}
    for instance in generate_benchmark().instances:
        texts = specs[instance.dataset]
        if "(?<" in instance.ldx_text and instance.ldx_text not in texts:
            texts.append(instance.ldx_text)
    return specs


_CORPUS_SPECS = _continuity_specs()


@st.composite
def decision_scripts(draw):
    """A dataset, a specification, the mask setting and seeded action scripts."""
    dataset = draw(st.sampled_from(DATASETS))
    ldx = draw(st.sampled_from([COMPARISON_LDX] + _CORPUS_SPECS[dataset][:6]))
    mask = draw(st.booleans())
    seeds = draw(st.lists(st.integers(0, 2**16), min_size=1, max_size=3))
    return dataset, ldx, mask, seeds


class TestComposedDecisionRow:
    @settings(max_examples=40, deadline=None)
    @given(decision_scripts())
    def test_composed_row_equals_the_full_recomputation(self, script):
        """Two agents on one context (as two requests) play the same random
        actions; every decision row equals the guidance oracle folded with
        the per-head mask loop over freshly computed masks, bit for bit,
        whichever agent filled the memos."""
        dataset, ldx, mask, seeds = script
        table = load_dataset(dataset, num_rows=120)
        shared = SharedExplorationContext()
        config = CdrlConfig(episodes=1, mask_invalid_actions=mask)
        agents = [
            LinxCdrlAgent(table, ldx, config=config, shared=shared) for _ in range(2)
        ]
        first = agents[0].policy
        assert first._guidance_memo is agents[1].policy._guidance_memo
        layout = first.network.layout
        for seed in seeds:
            rng = np.random.default_rng(seed)
            for agent in agents:
                agent.environment.reset()
            for _ in range(agents[0].environment.episode_length):
                indices = {
                    name: int(rng.integers(size)) for name, size in zip(layout.names, layout.sizes)
                }
                for agent in agents[:: 1 if seed % 2 else -1]:
                    policy, environment = agent.policy, agent.environment
                    row = policy.decision_biases(environment)
                    # The masks memoised by view schema are the view's own.
                    view = environment.session.current.view
                    for name, fresh in policy.action_space._compute_valid_mask(view).items():
                        assert np.array_equal(environment.head_mask(name), fresh)
                    expected = guidance_oracle(policy, environment.session)
                    if mask:
                        expected = per_head_mask_fold(policy, expected, environment)
                    assert row.row.tobytes() == expected.row.tobytes()
                    assert row.folded.tolist() == expected.folded.tolist()
                    environment.step(policy.indices_to_choice(indices))


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
        """The bindings a guidance key carries (and the guidance memo is keyed
        by) are the recomputed bindings at the target, and none elsewhere."""
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
                key = policy._guidance_key(session)
                if key is None or not key[1]:
                    assert key is None or key[2] == ()
                    continue
                assert key[2] == tuple(sorted(recomputed_bindings(policy, assignment).items()))


# -- plan extension ------------------------------------------------------------------
def canonical_oracle(nodes) -> tuple:
    """Each maximal filter run sorted by signature, first of each signature kept."""
    out: list = []
    run: dict = {}
    for node in [*nodes, None]:
        if isinstance(node, FilterNode):
            run.setdefault(node.signature(), node)
            continue
        out.extend(run[signature] for signature in sorted(run))
        run = {}
        if node is not None:
            out.append(node)
    return tuple(out)


def fingerprint_oracle(nodes) -> str:
    """The plan digest, streamed field by field."""
    digest = hashlib.blake2b(digest_size=20)
    for node in nodes:
        signature = node.signature()
        digest.update(b"N" + str(len(signature)).encode() + b":")
        for field in signature:
            raw = str(field).encode("utf-8")
            digest.update(str(len(raw)).encode() + b":" + raw)
    return digest.hexdigest()


_CHAIN_STEPS = [
    FilterOperation(attr, op, term)
    for attr, term in (("country", "Japan"), ("type", "Movie"), ("rating", "TV-MA"))
    for op in ("eq", "neq")
] + [GroupAggOperation("type", "count", "type"), GroupAggOperation("country", "count", "country")]


class TestPlanExtension:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.lists(st.sampled_from(_CHAIN_STEPS), min_size=1, max_size=7),
            min_size=1,
            max_size=3,
        ),
        st.randoms(use_true_random=False),
    )
    def test_extension_equals_canonicalising_the_raw_chain(self, chains, random):
        """Each chain runs as drawn and with its operations shuffled (commuted
        filters; duplicates are drawn too) through one cached executor; every
        returned plan is the normal form of the raw chain so far, fingerprint
        included."""
        table = load_dataset("netflix", num_rows=120)
        executor = QueryExecutor(ExecutionCache())
        for chain in chains:
            for operations in (chain, random.sample(chain, len(chain))):
                plan, view, raw = LogicalPlan(()), table, []
                for operation in operations:
                    try:
                        view, plan = executor.execute_step(table, plan, view, operation)
                    except ExecutionError:
                        continue
                    raw.append(node_from_operation(operation))
                    assert plan.steps == canonical_oracle(raw)
                    assert plan.fingerprint() == fingerprint_oracle(plan.steps)

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.builds(
                    FilterNode,
                    st.text(max_size=6),
                    st.sampled_from(AGENT_FILTER_OPERATORS),
                    st.one_of(
                        st.text(max_size=6),
                        st.integers(),
                        st.floats(allow_nan=True),
                        st.none(),
                    ),
                ),
                st.builds(
                    GroupNode,
                    st.text(max_size=6),
                    st.sampled_from(AGENT_AGG_FUNCTIONS),
                    st.text(max_size=6),
                ),
            ),
            max_size=6,
        )
    )
    def test_cached_node_encodings_give_the_streamed_digest(self, nodes):
        """Every prefix of a chain, built by extension so later plans share
        the earlier plans' node objects (and their cached encodings), has
        the digest streamed field by field; so does a plan of fresh copies
        of the same nodes."""
        plan = LogicalPlan(())
        assert plan.fingerprint() == fingerprint_oracle(())
        for count, node in enumerate(nodes, 1):
            plan = plan.extend(node)
            assert plan.fingerprint() == fingerprint_oracle(nodes[:count])
        copies = [type(node)(*node.signature()[1:]) for node in nodes]
        assert LogicalPlan(tuple(copies)).fingerprint() == fingerprint_oracle(nodes)
