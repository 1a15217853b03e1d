"""Partial-session (look-ahead) verification and tree completions.

The immediate per-operation compliance reward (Section 5.2 and Appendix A.3)
must decide, after every agent step, whether the ongoing session can still be
extended into a structurally compliant one.  The check enumerates *tree
completions*: every way of appending the remaining ``N - i`` "blank" nodes to
the ongoing tree while respecting the pre-order execution order (each new node
attaches to the previous node or one of its ancestors).  The number of
completions is bounded by the Catalan number ``C_N`` (Appendix A.3).
"""

from __future__ import annotations

from math import comb
from typing import Iterator

from repro.tregex.tree import TreeNode

from .ast import LdxQuery
from .verifier import LdxMatcher

#: Label used for the appended placeholder nodes; the structural verifier
#: treats any label as acceptable, and the operational verifier skips them.
BLANK_LABEL = ("*",)


def catalan_number(n: int) -> int:
    """The n-th Catalan number ``C_n = (2n choose n) / (n + 1)``."""
    if n < 0:
        raise ValueError("catalan_number() requires n >= 0")
    return comb(2 * n, n) // (n + 1)


def _rightmost_path(root: TreeNode) -> list[TreeNode]:
    """Nodes on the path from the last node added (pre-order) back to the root.

    In a session built in pre-order, a new operation may only attach to the
    most recently added node or one of its ancestors.
    """
    node = root
    while node.children:
        node = node.children[-1]
    path = [node]
    while node.parent is not None:
        node = node.parent
        path.append(node)
    return path


def enumerate_completions(root: TreeNode, additional: int) -> Iterator[TreeNode]:
    """Yield every completion of *root* with *additional* blank nodes.

    Each yielded tree is an independent copy; the input tree is not modified.
    The enumeration respects pre-order construction: every appended node is a
    child of the previously appended node or one of its ancestors.
    """
    if additional <= 0:
        yield root.copy()
        return

    def expand(tree: TreeNode, remaining: int) -> Iterator[TreeNode]:
        if remaining == 0:
            yield tree
            return
        for anchor in _rightmost_path(tree):
            extended = tree.copy()
            # Locate the corresponding anchor in the copy via positional path.
            path_positions: list[int] = []
            node = anchor
            while node.parent is not None:
                path_positions.append(node.parent.children.index(node))
                node = node.parent
            target = extended
            for position in reversed(path_positions):
                target = target.children[position]
            target.new_child(BLANK_LABEL)
            yield from expand(extended, remaining - 1)

    yield from expand(root.copy(), additional)


def count_completions(root: TreeNode, additional: int) -> int:
    """Number of completions (should never exceed ``catalan_number``'s bound)."""
    return sum(1 for _ in enumerate_completions(root, additional))


def can_still_comply(
    root: TreeNode,
    query: LdxQuery,
    remaining_steps: int,
    max_completions: int | None = None,
) -> bool:
    """True when some completion of the ongoing session satisfies ``struct(QX)``.

    *remaining_steps* is ``N - i``; *max_completions* optionally caps the
    number of completions examined (a practical safeguard for very early
    steps, mirroring the paper's choice to only apply the immediate reward
    from step 3 onward).  See :meth:`LdxMatcher.can_still_comply`.
    """
    return LdxMatcher(query).can_still_comply(root, remaining_steps, max_completions)
