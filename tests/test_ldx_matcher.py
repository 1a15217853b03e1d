"""The shape-keyed matcher against the from-scratch search of ``ldx_oracle``.

A hypothesis property drives random pre-order sessions, with BACK moves,
over the gold LDX of the 24 corpus strata (the first instance of every
(dataset, meta-goal) pair).  After every step it asks one long-lived
:class:`LdxMatcher` per specification, whose shape memo is shared by every
example, and the oracle the same six questions: verification, the
witnessing assignment, every structural assignment in order, the best
partial assignment, the operational match ratio and look-ahead feasibility.
A failure names the first divergent step, question and spec node.
"""

from __future__ import annotations

import itertools
from functools import cache

import ldx_oracle as oracle
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.generator import generate_benchmark
from repro.explore.operations import RootOperation
from repro.ldx import Assignment, LdxMatcher, LdxQuery, parse_ldx
from repro.ldx.patterns import FIELD_LITERAL, FIELD_REGEX
from repro.tregex import TreeNode, build_tree

#: Values free pattern fields are filled with: two, so continuity variables
#: bind consistently as often as not.
FREE_VALUES = ("u", "v")

#: (remaining steps, completion budget) pairs asked of the look-ahead.
LOOKAHEAD = ((0, None), (1, None), (2, None), (3, 4))


@cache
def gold_queries() -> tuple[LdxQuery, ...]:
    first: dict[tuple[str, int], object] = {}
    for instance in generate_benchmark().instances:
        first.setdefault((instance.dataset, instance.meta_goal_id), instance)
    return tuple(first[key].ldx_query() for key in sorted(first))


@cache
def label_pool(index: int) -> tuple:
    """Signatures that satisfy (or narrowly miss) each pattern of a query,
    plus a blank label and a ROOT-kind label at a non-root position."""
    labels: list = [None, ("ROOT",)]
    for spec in gold_queries()[index].operational_specs():
        pattern = spec.operation
        choices = []
        for field_pattern in pattern.fields:
            if field_pattern.kind == FIELD_LITERAL:
                choices.append((field_pattern.value, "w"))
            elif field_pattern.kind == FIELD_REGEX:
                choices.append((field_pattern.value.split("|")[0], "w"))
            else:
                choices.append(FREE_VALUES)
        for values in itertools.product(*choices):
            labels.append((pattern.kind, *(values + FREE_VALUES * 3)[:3]))
    return tuple(dict.fromkeys(labels))


@pytest.fixture(scope="module")
def matchers() -> dict[int, LdxMatcher]:
    return {index: LdxMatcher(query) for index, query in enumerate(gold_queries())}


def _bindings(assignment: Assignment) -> list[tuple[str, int]]:
    return [(name, id(node)) for name, node in assignment.nodes.items()]


def _first_node_divergence(expected: Assignment, actual: Assignment) -> str:
    for name in dict.fromkeys([*expected.nodes, *actual.nodes]):
        if expected.nodes.get(name) is not actual.nodes.get(name):
            return f"spec node {name!r}"
    if list(expected.nodes) != list(actual.nodes):
        return "spec node order"
    return f"continuity {expected.continuity} != {actual.continuity}"


def divergence(matcher: LdxMatcher, query: LdxQuery, root: TreeNode) -> str | None:
    """The first question on which matcher and oracle disagree, or ``None``."""
    expected = oracle.find_assignment(root, query)
    actual = matcher.find_assignment(root)
    if (expected is None) != (actual is None):
        return f"verify: oracle {expected is not None}, matcher {actual is not None}"
    if expected is not None and (
        _bindings(expected) != _bindings(actual)
        or list(expected.continuity.items()) != list(actual.continuity.items())
    ):
        return f"find_assignment: {_first_node_divergence(expected, actual)}"
    if matcher.verify(root) != oracle.verify(root, query):
        return "verify"
    expected_all = oracle.structural_assignments(root, query)
    actual_all = matcher.structural_assignments(root)
    for index, (want, got) in enumerate(itertools.zip_longest(expected_all, actual_all)):
        if want is None or got is None:
            return f"structural_assignments: {len(expected_all)} vs {len(actual_all)}"
        if _bindings(want) != _bindings(got):
            return f"structural_assignments[{index}]: {_first_node_divergence(want, got)}"
    if matcher.verify_structure(root) != oracle.verify_structure(root, query):
        return "verify_structure"
    want, want_count, want_named = oracle.best_partial_structural_assignment(root, query)
    got, got_count, got_named = matcher.best_partial_structural_assignment(root)
    if (want_count, want_named) != (got_count, got_named):
        return f"best partial: counts {(want_count, want_named)} vs {(got_count, got_named)}"
    if _bindings(want) != _bindings(got):
        return f"best partial: {_first_node_divergence(want, got)}"
    if matcher.operational_match_ratio(root) != oracle.operational_match_ratio(root, query):
        return "operational_match_ratio"
    for remaining, budget in LOOKAHEAD:
        if matcher.can_still_comply(root, remaining, budget) != oracle.can_still_comply(
            root, query, remaining, budget
        ):
            return f"can_still_comply(remaining={remaining}, max_completions={budget})"
    return None


@st.composite
def sessions(draw) -> tuple[int, list]:
    """A query index and a step list: ``None`` is a BACK, anything else a label."""
    index = draw(st.integers(min_value=0, max_value=len(gold_queries()) - 1))
    steps = draw(
        st.lists(
            st.one_of(st.none(), st.sampled_from(label_pool(index))),
            min_size=1,
            max_size=8,
        )
    )
    return index, steps


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(case=sessions())
def test_matcher_equals_oracle_on_random_sessions(matchers, case):
    index, steps = case
    query = gold_queries()[index]
    root = TreeNode(RootOperation("data"))
    current = root
    for step_number, step in enumerate(steps, start=1):
        if step is None:
            current = current.parent or current
        else:
            current = current.new_child(step)
        problem = divergence(matchers[index], query, root)
        assert problem is None, (
            f"query {index} ({query.render()!r}), step {step_number}: {problem}"
        )


class TestShapeKey:
    """Plain trees pin what the shape key must include."""

    CHILD = parse_ldx("ROOT CHILDREN {A}\nA LIKE [F,x,eq,y]")

    def test_non_root_root_label_is_part_of_the_shape(self):
        matcher = LdxMatcher(self.CHILD)
        blank_child = build_tree(("root", [("*",)]))
        root_child = build_tree(("root", ["ROOT"]))
        assert matcher.verify_structure(blank_child)
        assert not matcher.verify_structure(root_child)
        # The reverse order of first use gives the same answers.
        again = LdxMatcher(self.CHILD)
        assert not again.verify_structure(root_child)
        assert again.verify_structure(blank_child)

    def test_labels_are_checked_per_call_on_a_shared_shape(self):
        matcher = LdxMatcher(self.CHILD)
        match = build_tree(("root", [("F", "x", "eq", "y")]))
        blank = TreeNode("ROOT")
        blank.new_child(None)
        miss = build_tree(("root", [("F", "x", "eq", "z")]))
        assert [matcher.verify(tree) for tree in (match, blank, miss)] == [True, True, False]
        assert len(matcher._shapes) == 1

    @pytest.mark.parametrize(
        "tree_spec",
        [
            ("root", ["ROOT", ("a", [None, "ROOT"]), None]),
            ("x", [("ROOT", ["a"]), ("F", "x", "eq", "y")]),
            (None, [None, (None, [None])]),
        ],
    )
    def test_plain_trees_match_the_oracle(self, tree_spec):
        tree = build_tree(tree_spec)
        for query in (
            self.CHILD,
            parse_ldx("ROOT DESCENDANTS {A,B}\nA CHILDREN {+}\nB"),
            parse_ldx("BEGIN CHILDREN {A}\nA LIKE [F,.*] and DESCENDANTS {B}\nB"),
        ):
            assert divergence(LdxMatcher(query), query, tree) is None

    def test_sessions_are_read_without_conversion(
        self, compliant_session, noncompliant_session, comparison_query
    ):
        """A session root is matched directly; the assignments it gets are
        the oracle's on ``to_tree()``, position for position."""

        def by_position(root, assignment):
            position = {id(node): index for index, node in enumerate(root.preorder())}
            return {name: position[id(node)] for name, node in assignment.nodes.items()}

        matcher = LdxMatcher(comparison_query)
        for session in (compliant_session, noncompliant_session):
            tree = session.to_tree()
            want = oracle.find_assignment(tree, comparison_query)
            got = matcher.find_assignment(session.root)
            assert (want is None) == (got is None)
            if want is not None:
                assert by_position(session.root, got) == by_position(tree, want)
                assert got.continuity == want.continuity
            want, *want_counts = oracle.best_partial_structural_assignment(tree, comparison_query)
            got, *got_counts = matcher.best_partial_structural_assignment(session.root)
            assert got_counts == want_counts
            assert by_position(session.root, got) == by_position(tree, want)
