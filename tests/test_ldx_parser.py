"""Tests for LDX parsing, patterns and the AST."""

from __future__ import annotations

import pytest
from conftest import COMPARISON_LDX

from repro.ldx import (
    LdxSemanticError,
    LdxSyntaxError,
    OperationPattern,
    parse_ldx,
    try_parse_ldx,
)
from repro.ldx.patterns import FieldPattern


class TestOperationPattern:
    def test_parse_literal_fields(self):
        pattern = OperationPattern.parse("[F,country,eq,India]")
        assert pattern.kind == "F"
        assert pattern.matches(("F", "country", "eq", "India"))
        assert not pattern.matches(("F", "country", "eq", "US"))

    def test_wildcards_match_anything(self):
        pattern = OperationPattern.parse("[G,.*]")
        assert pattern.matches(("G", "anything", "count", "x"))

    def test_quoted_literals(self):
        pattern = OperationPattern.parse("[F,'country',eq,'US']")
        assert pattern.matches(("F", "country", "eq", "US"))

    def test_disjunction_regex(self):
        pattern = OperationPattern.parse("[G,country,SUM|AVG,.*]")
        assert pattern.matches(("G", "country", "sum", "x"))
        assert pattern.matches(("G", "country", "AVG", "x"))
        assert not pattern.matches(("G", "country", "count", "x"))

    def test_continuity_capture_and_constraint(self):
        pattern = OperationPattern.parse("[F,country,eq,(?<X>.*)]")
        assert pattern.matches(("F", "country", "eq", "India"), {})
        captured = pattern.capture(("F", "country", "eq", "India"), {})
        assert captured == {"X": "India"}
        # With X bound, only the same term matches.
        assert pattern.matches(("F", "country", "eq", "India"), {"X": "India"})
        assert not pattern.matches(("F", "country", "eq", "US"), {"X": "India"})

    def test_placeholder_is_continuity(self):
        pattern = OperationPattern.parse("[G,<COL>,<AGG_FUNC>,<AGG_COL>]")
        assert pattern.continuity_variables() == ["COL", "AGG_FUNC", "AGG_COL"]

    def test_kind_mismatch(self):
        pattern = OperationPattern.parse("[F,country,eq,.*]")
        assert not pattern.matches(("G", "country", "eq", "x"))

    def test_substitute_turns_bound_vars_into_literals(self):
        pattern = OperationPattern.parse("[F,country,eq,(?<X>.*)]")
        substituted = pattern.substitute({"X": "India"})
        assert substituted.fields[2].kind == "literal"
        assert substituted.fields[2].value == "India"

    def test_specified_and_matched_field_counts(self):
        pattern = OperationPattern.parse("[F,country,eq,(?<X>.*)]")
        assert pattern.specified_field_count() == 2
        assert pattern.matched_field_count(("F", "country", "neq", "India")) == 1

    def test_numeric_literal_equality(self):
        pattern = OperationPattern.parse("[F,Stars,eq,3]")
        assert pattern.matches(("F", "Stars", "eq", "3.0"))

    def test_render_roundtrip(self):
        text = "[F,country,eq,(?<X>.*)]"
        assert OperationPattern.parse(OperationPattern.parse(text).render()).render() == text

    def test_invalid_pattern_raises(self):
        with pytest.raises(LdxSyntaxError):
            OperationPattern.parse("F,country,eq")
        with pytest.raises(LdxSyntaxError):
            OperationPattern.parse("[Z,country]")

    def test_field_parse_kinds(self):
        assert FieldPattern.parse(".*").kind == "any"
        assert FieldPattern.parse("'x'").kind == "literal"
        assert FieldPattern.parse("(?<V>.*)").kind == "continuity"
        assert FieldPattern.parse("SUM|AVG").kind == "regex"
        assert FieldPattern.parse("country").kind == "literal"


class TestParser:
    def test_hello_world_example(self):
        query = parse_ldx(
            """
            ROOT CHILDREN <A,B>
            A LIKE [G,(?<X>.*),.*]
            B LIKE [F,(?<X>.*),.*]
            """
        )
        assert query.node_names() == ["ROOT", "A", "B"]
        assert query.continuity_variables() == ["X"]
        assert query.required_operations() == 2

    def test_begin_and_braces_syntax(self):
        query = parse_ldx(
            """
            BEGIN CHILDREN {A1,A2}
            A1 LIKE [F,Stars,eq,3] and CHILDREN {B1}
            B1 LIKE [G,<COL>,<AGG_FUNC>,<AGG_COL>]
            A2 LIKE [F,Stars,eq,4] and CHILDREN {B2}
            B2 LIKE [G,<COL>,<AGG_FUNC>,<AGG_COL>]
            """
        )
        assert query.root_name() == "BEGIN"
        assert len(query.operational_specs()) == 4
        assert query.named_children_of("A1") == ["B1"]

    def test_descendants_and_plus(self):
        query = parse_ldx(
            """
            BEGIN DESCENDANTS <A1>
            A1 LIKE [F,month,ge,6] and CHILDREN {B1,+}
            B1 LIKE [G,.*]
            """
        )
        clause = query.spec_for("A1").structure[0]
        assert clause.extra == 1
        assert clause.min_related() == 2
        assert query.required_operations() == 3

    def test_comments_and_blank_lines_ignored(self):
        query = parse_ldx("# comment\n\nROOT CHILDREN <A>\nA LIKE [G,.*]\n")
        assert len(query.specs) == 2

    def test_duplicate_spec_raises(self):
        with pytest.raises(LdxSemanticError):
            parse_ldx("ROOT CHILDREN <A>\nA LIKE [G,.*]\nA LIKE [F,.*]")

    def test_dangling_reference_raises(self):
        with pytest.raises(LdxSemanticError):
            parse_ldx("ROOT CHILDREN <A,Z>\nA LIKE [G,.*]")

    def test_missing_root_raises(self):
        with pytest.raises(LdxSemanticError):
            parse_ldx("A LIKE [G,.*]")

    def test_empty_query_raises(self):
        with pytest.raises(LdxSyntaxError):
            parse_ldx("   \n  ")

    def test_bad_clause_raises(self):
        with pytest.raises(LdxSyntaxError):
            parse_ldx("ROOT NEPHEWS <A>")

    def test_try_parse_returns_none_on_error(self):
        assert try_parse_ldx("ROOT NEPHEWS <A>") is None
        assert try_parse_ldx("ROOT CHILDREN <A>\nA LIKE [G,.*]") is not None


class TestAstDerivedProperties:
    def test_struct_and_opr_split(self, comparison_query):
        struct = comparison_query.structural_subset()
        assert all(spec.operation is None for spec in struct.specs)
        assert len(comparison_query.operational_specs()) == 4

    def test_minimal_tree_shape(self, comparison_query):
        tree = comparison_query.minimal_tree()
        assert tree.size() == 5
        assert len(tree.children) == 2

    def test_minimal_session_steps(self, comparison_query):
        # 4 operations + 2 back moves between the branches.
        assert comparison_query.minimal_session_steps() == 6

    def test_preorder_named_nodes(self, comparison_query):
        assert comparison_query.preorder_named_nodes() == ["B1", "C1", "B2", "C2"]

    def test_render_reparses(self, comparison_query):
        rendered = comparison_query.render()
        reparsed = parse_ldx(rendered)
        assert reparsed.node_names() == comparison_query.node_names()

    def test_render_is_stable_across_a_round_trip(self):
        rendered = parse_ldx(COMPARISON_LDX).render()
        assert parse_ldx(rendered).render() == rendered
