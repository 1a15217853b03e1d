"""Tests for the tree substrate, its relations and structural matching on it."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ldx import LdxMatcher, parse_ldx
from repro.tregex import TreeNode, build_tree, get_relation, parent_child_pairs


@pytest.fixture
def sample_tree() -> TreeNode:
    #        root
    #       /    \
    #      a      b
    #     / \      \
    #    c   d      e
    return build_tree(("root", [("a", ["c", "d"]), ("b", ["e"])]))


class TestTreeNode:
    def test_preorder_order(self, sample_tree):
        labels = [node.label for node in sample_tree.preorder()]
        assert labels == ["root", "a", "c", "d", "b", "e"]

    def test_size_and_height(self, sample_tree):
        assert sample_tree.size() == 6
        assert sample_tree.height() == 2

    def test_depth_and_ancestors(self, sample_tree):
        c = sample_tree.children[0].children[0]
        assert c.depth() == 2
        assert [node.label for node in c.ancestors()] == ["a", "root"]

    def test_descendants(self, sample_tree):
        assert len(sample_tree.descendants()) == 5

    def test_copy_is_structurally_equal_but_independent(self, sample_tree):
        clone = sample_tree.copy()
        assert clone.structurally_equal(sample_tree)
        clone.new_child("extra")
        assert not clone.structurally_equal(sample_tree)

    def test_parent_child_pairs(self, sample_tree):
        assert len(parent_child_pairs(sample_tree)) == 5

    def test_render_contains_all_labels(self, sample_tree):
        rendered = sample_tree.render()
        for label in ("root", "a", "b", "c", "d", "e"):
            assert label in rendered

    def test_root_and_index_nodes(self, sample_tree):
        leaf = sample_tree.children[1].children[0]
        assert leaf.root() is sample_tree
        mapping = sample_tree.index_nodes()
        assert mapping[0] is sample_tree


class TestRelations:
    def test_child_relation(self, sample_tree):
        child = get_relation("children")
        a = sample_tree.children[0]
        assert child.holds(sample_tree, a)
        assert not child.holds(a, sample_tree)

    def test_descendant_relation(self, sample_tree):
        descendant = get_relation("descendants")
        c = sample_tree.children[0].children[0]
        assert descendant.holds(sample_tree, c)
        assert not descendant.holds(c, sample_tree)

    def test_sibling_relation(self, sample_tree):
        sibling = get_relation("sibling")
        a, b = sample_tree.children
        assert sibling.holds(a, b)
        assert not sibling.holds(a, a)

    def test_unknown_relation_raises(self):
        with pytest.raises(KeyError):
            get_relation("cousin")


class TestMatcher:
    """Structural LDX matching on plain labelled trees (labels are ignored,
    except that a ROOT-kind label, here the root's ``"root"``, binds only
    the root specification)."""

    @staticmethod
    def _bound(tree, ldx, name):
        assignments = LdxMatcher(parse_ldx(ldx)).structural_assignments(tree)
        return [assignment.nodes[name].label for assignment in assignments]

    def test_simple_child_pattern(self, sample_tree):
        assert self._bound(sample_tree, "ROOT CHILDREN {X}\nX CHILDREN {+}", "X") == [
            "a",
            "b",
        ]

    def test_descendant_pattern(self, sample_tree):
        assert "e" in self._bound(sample_tree, "ROOT DESCENDANTS {X}\nX", "X")

    def test_unsatisfiable_pattern(self, sample_tree):
        matcher = LdxMatcher(parse_ldx("ROOT CHILDREN {X,Y,Z}\nX\nY\nZ"))
        assert not matcher.verify_structure(sample_tree)

    def test_all_assignments_count(self, sample_tree):
        assert len(self._bound(sample_tree, "ROOT CHILDREN {X}\nX", "X")) == 2  # a and b

    def test_distinct_nodes_constraint(self, sample_tree):
        # Only ``a`` has two children, and X, Y must bind distinct nodes.
        ldx = "ROOT DESCENDANTS {X,Y}\nX CHILDREN {+,+}\nY CHILDREN {+,+}"
        assert not LdxMatcher(parse_ldx(ldx)).verify_structure(sample_tree)

    def test_arity_constraint(self, sample_tree):
        assert self._bound(sample_tree, "ROOT DESCENDANTS {X}\nX CHILDREN {+,+}", "X") == ["a"]

    def test_initial_assignment_respected(self, sample_tree):
        # Matching from ``b`` binds the root specification to ``b``.
        b = sample_tree.children[1]
        assert self._bound(b, "ROOT CHILDREN {X}\nX", "X") == ["e"]

    def test_inconsistent_initial_assignment(self, sample_tree):
        c = sample_tree.children[0].children[0]
        assert not LdxMatcher(parse_ldx("ROOT CHILDREN {X}\nX")).verify_structure(c)


@given(st.integers(min_value=1, max_value=8))
def test_property_chain_tree_size_and_height(depth):
    root = TreeNode(0)
    node = root
    for i in range(1, depth):
        node = node.new_child(i)
    assert root.size() == depth
    assert root.height() == depth - 1
    assert len(list(root.preorder())) == depth
