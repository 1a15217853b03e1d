"""The session's pre-order index against the tree-walking references.

An exploration session only grows by appending a last child to a node on
its rightmost path, so it keeps its nodes in an append-only pre-order
index.  The generic reward, the LDX matcher and the guidance key read that
index; these tests replay random step sequences and check every reader
against the from-scratch walk it replaced:

* the index against ``root.preorder()`` and ``len(children)``;
* the matcher's shape key against ``_walk``;
* the guidance key against the bracket-string key (same equivalence classes);
* the incremental rewards against ``reward_oracle``, bit for bit;
* the stamped LDX verdict against re-verification after growth.
"""

from __future__ import annotations

import reward_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdrl.compliance import ComplianceRewardConfig, end_of_session_reward
from repro.cdrl.spec_network import SpecificationAwarePolicy
from repro.dataframe import DataTable
from repro.explore import (
    ExecutionError,
    ExplorationSession,
    FilterOperation,
    GroupAggOperation,
    QueryExecutor,
)
from repro.explore.reward import GenericExplorationReward
from repro.ldx import LdxMatcher, parse_ldx
from repro.ldx.verifier import _walk, verify

TABLE = DataTable(
    {
        "country": ["India", "US", "US", "India", "UK", "US", "India", "UK"],
        "type": ["Movie", "TV Show", "TV Show", "Movie", "TV Show", "TV Show", "Movie", "Movie"],
        "rating": ["TV-14", "TV-MA", "TV-MA", "TV-14", "TV-MA", "PG", "TV-14", "R"],
        "duration": [100, 50, 90, 110, 45, 95, 120, 105],
    },
    name="netflix_mini",
)

#: Operations the random sequences draw from.  ``Atlantis`` and the
#: duration bound select no rows, so empty-result views occur; group-bys on
#: a grouped view's missing columns are invalid steps.
OPERATIONS = (
    FilterOperation("country", "eq", "India"),
    FilterOperation("country", "neq", "India"),
    FilterOperation("country", "eq", "Atlantis"),
    FilterOperation("duration", "gt", 100),
    FilterOperation("duration", "gt", 1000),
    FilterOperation("type", "eq", "Movie"),
    GroupAggOperation("type", "count", "type"),
    GroupAggOperation("country", "mean", "duration"),
    GroupAggOperation("rating", "count", "rating"),
)

QUERY = parse_ldx(
    """
ROOT CHILDREN <B1,B2>
B1 LIKE [F,country,eq,(?<X>.*)] and CHILDREN {C1}
C1 LIKE [G,(?<Y>.*),count,.*]
B2 LIKE [F,country,neq,(?<X>.*)] and CHILDREN {C2}
C2 LIKE [G,(?<Y>.*),count,.*]
"""
)

STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("apply"), st.integers(0, len(OPERATIONS) - 1)),
        st.tuples(st.just("back"), st.integers(1, 3)),
        st.tuples(st.just("invalid"), st.just(0)),
    ),
    max_size=12,
)


def bracket_state_key(session: ExplorationSession) -> str:
    """The guidance key the index replaced: a pre-order walk of the tree,
    each node written as its signature ``repr`` followed by its bracketed
    children, with ``*`` after the current node."""
    current = session.current
    pieces: list[str] = []
    stack: list = [session.root]
    while stack:
        node = stack.pop()
        if node is None:
            pieces.append("]")
            continue
        pieces.append(node.signature_text)
        if node is current:
            pieces.append("*")
        pieces.append("[")
        stack.append(None)
        stack.extend(reversed(node.children))
    return "".join(pieces)


def check_index(session: ExplorationSession, matcher: LdxMatcher) -> None:
    """The index, its shape key and its node list equal the tree walks."""
    index = session.index
    walked = list(session.root.preorder())
    assert len(index.nodes) == len(walked)
    assert all(a is b for a, b in zip(index.nodes, walked))
    assert [node.position for node in walked] == list(range(len(walked)))
    assert index.child_counts == [len(node.children) for node in walked]
    assert session.root.preorder_index is index
    shape, nodes = matcher._shape(session.root)
    walked_key, walked_nodes = _walk(session.root)
    assert shape.key == walked_key
    assert all(a is b for a, b in zip(nodes, walked_nodes))
    assert len(session.query_nodes()) == session.num_queries() == len(walked) - 1


def play(
    steps,
    scorer: GenericExplorationReward,
    matcher: LdxMatcher,
    keys: set,
    score_every_step: bool,
) -> ExplorationSession:
    """Play *steps* as the environment does, checking every reader after each."""
    session = ExplorationSession(TABLE)
    executor = QueryExecutor()
    keys.add((SpecificationAwarePolicy._session_state_key(session), bracket_state_key(session)))
    for kind, argument in steps:
        if kind == "back":
            session.go_back(argument)
        elif kind == "invalid":
            session.note_invalid_step()
        else:
            operation = OPERATIONS[argument]
            node = None
            if executor.can_execute(session.current.view, operation):
                try:
                    node = session.apply(operation, executor)
                except ExecutionError:
                    pass
            if node is None:
                session.note_invalid_step()
            else:
                got = scorer.step_reward(session, node)
                assert got == reward_oracle.step_reward(scorer, session, node)
        check_index(session, matcher)
        keys.add(
            (SpecificationAwarePolicy._session_state_key(session), bracket_state_key(session))
        )
        if score_every_step:
            assert scorer.session_score(session) == reward_oracle.session_score(scorer, session)
    assert scorer.session_score(session) == reward_oracle.session_score(scorer, session)
    assert matcher.verify(session.root) == matcher.verify(session.to_tree())
    return session


class TestPreorderIndex:
    @settings(max_examples=120, deadline=None)
    @given(first=STEPS, second=STEPS, score_every_step=st.booleans())
    def test_readers_match_the_tree_walks(self, first, second, score_every_step):
        scorer = GenericExplorationReward()
        matcher = LdxMatcher(QUERY)
        keys: set = set()
        play(first, scorer, matcher, keys, score_every_step)
        play(second, scorer, matcher, keys, not score_every_step)
        # The new keys and the bracket strings pair up one to one: equal
        # new keys exactly when the bracket strings are equal.
        assert len({new for new, _ in keys}) == len(keys) == len({old for _, old in keys})


class TestVerdictStamp:
    QUERY = parse_ldx("ROOT CHILDREN {A}\nA LIKE [F,country,eq,.*]")

    def test_grown_session_is_reverified(self):
        matcher = LdxMatcher(self.QUERY)
        executor = QueryExecutor()
        session = ExplorationSession(TABLE)
        assert not verify(session.root, self.QUERY, matcher=matcher)
        session.apply(FilterOperation("country", "eq", "India"), executor)
        assert verify(session.root, self.QUERY, matcher=matcher)
        session.go_back()
        session.apply(FilterOperation("country", "neq", "India"), executor)
        assert verify(session.root, self.QUERY, matcher=matcher)

    def test_verdict_is_reused_until_growth(self):
        matcher = LdxMatcher(self.QUERY)
        calls = []
        search = matcher.find_assignment
        matcher.find_assignment = lambda root: calls.append(root) or search(root)
        session = ExplorationSession(TABLE)
        session.apply(FilterOperation("country", "eq", "India"), QueryExecutor())
        config = ComplianceRewardConfig()
        reward = end_of_session_reward(session, self.QUERY, config, matcher=matcher)
        assert reward == config.full_compliance_reward
        assert verify(session.root, self.QUERY, matcher=matcher)
        assert len(calls) == 1
        session.go_back()  # moving the cursor is not growth
        assert verify(session.root, self.QUERY, matcher=matcher)
        assert len(calls) == 1

    def test_verdict_is_per_matcher(self):
        executor = QueryExecutor()
        session = ExplorationSession(TABLE)
        session.apply(FilterOperation("country", "eq", "India"), executor)
        assert verify(session.root, self.QUERY, matcher=LdxMatcher(self.QUERY))
        assert not verify(session.root, QUERY, matcher=LdxMatcher(QUERY))
