"""Ordered, labelled trees.

This is the tree model shared by the LDX matcher
(:mod:`repro.ldx.verifier`) and the exploration sessions
(:mod:`repro.explore.session`).  Nodes carry an opaque *label* (for
exploration trees this is a query operation) and keep their children in
insertion order, which encodes the execution order of the session via
pre-order traversal (Section 3 of the paper).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional


class TreeNode:
    """A node of an ordered labelled tree."""

    __slots__ = ("label", "children", "parent", "node_id")

    def __init__(self, label: Any = None, node_id: int | None = None):
        self.label = label
        self.children: list["TreeNode"] = []
        self.parent: Optional["TreeNode"] = None
        self.node_id = node_id

    # -- construction -----------------------------------------------------------------
    def add_child(self, child: "TreeNode") -> "TreeNode":
        """Attach *child* as the last child of this node and return it."""
        child.parent = self
        self.children.append(child)
        return child

    def new_child(self, label: Any = None, node_id: int | None = None) -> "TreeNode":
        """Create, attach and return a new child with the given label."""
        return self.add_child(TreeNode(label, node_id=node_id))

    # -- structure queries --------------------------------------------------------------
    @property
    def is_root(self) -> bool:
        return self.parent is None

    def depth(self) -> int:
        """Number of edges from the root to this node."""
        depth = 0
        node = self
        while node.parent is not None:
            node = node.parent
            depth += 1
        return depth

    def root(self) -> "TreeNode":
        """The root of the tree containing this node."""
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def ancestors(self) -> list["TreeNode"]:
        """Ancestors from the parent up to the root."""
        result = []
        node = self.parent
        while node is not None:
            result.append(node)
            node = node.parent
        return result

    def descendants(self) -> list["TreeNode"]:
        """All strict descendants in pre-order."""
        result: list[TreeNode] = []
        stack = list(reversed(self.children))
        while stack:
            node = stack.pop()
            result.append(node)
            stack.extend(reversed(node.children))
        return result

    def preorder(self) -> Iterator["TreeNode"]:
        """Pre-order traversal including this node (the session execution order)."""
        yield self
        for child in self.children:
            yield from child.preorder()

    def size(self) -> int:
        """Number of nodes in the subtree rooted here."""
        return sum(1 for _ in self.preorder())

    def height(self) -> int:
        """Number of edges on the longest downward path from this node."""
        if not self.children:
            return 0
        return 1 + max(child.height() for child in self.children)

    def find(self, predicate: Callable[["TreeNode"], bool]) -> list["TreeNode"]:
        """All nodes in the subtree (pre-order) satisfying *predicate*."""
        return [node for node in self.preorder() if predicate(node)]

    def index_nodes(self) -> dict[int, "TreeNode"]:
        """Assign pre-order ids to all nodes and return the id -> node map."""
        mapping: dict[int, TreeNode] = {}
        for index, node in enumerate(self.preorder()):
            node.node_id = index
            mapping[index] = node
        return mapping

    # -- comparison and rendering ----------------------------------------------------------
    def structurally_equal(self, other: "TreeNode", compare_labels: bool = True) -> bool:
        """True when the two subtrees have the same shape (and labels, optionally)."""
        if compare_labels and self.label != other.label:
            return False
        if len(self.children) != len(other.children):
            return False
        return all(
            a.structurally_equal(b, compare_labels)
            for a, b in zip(self.children, other.children)
        )

    def copy(self) -> "TreeNode":
        """Deep-copy the subtree (labels are shared, structure is duplicated)."""
        clone = TreeNode(self.label, node_id=self.node_id)
        for child in self.children:
            clone.add_child(child.copy())
        return clone

    def render(self, label_fn: Callable[[Any], str] = str, indent: str = "  ") -> str:
        """Render the subtree as an indented text outline."""
        lines: list[str] = []

        def visit(node: "TreeNode", level: int) -> None:
            lines.append(f"{indent * level}{label_fn(node.label)}")
            for child in node.children:
                visit(child, level + 1)

        visit(self, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"TreeNode(label={self.label!r}, children={len(self.children)})"


def build_tree(spec: Any) -> TreeNode:
    """Build a tree from a nested ``(label, [children...])`` specification.

    A bare label builds a leaf.  Example::

        build_tree(("root", [("a", []), ("b", [("c", [])])]))
    """
    if isinstance(spec, tuple) and len(spec) == 2 and isinstance(spec[1], (list, tuple)):
        label, children = spec
        node = TreeNode(label)
        for child_spec in children:
            node.add_child(build_tree(child_spec))
        return node
    return TreeNode(spec)


def parent_child_pairs(root: TreeNode) -> list[tuple[TreeNode, TreeNode]]:
    """All (parent, child) edges of the tree in pre-order."""
    pairs: list[tuple[TreeNode, TreeNode]] = []
    for node in root.preorder():
        for child in node.children:
            pairs.append((node, child))
    return pairs
