"""Tregex-like substrate: ordered labelled trees and their structural relations."""

from .relations import (
    ANCESTOR,
    CHILD,
    DESCENDANT,
    FOLLOWING_SIBLING,
    PARENT,
    RELATIONS,
    SIBLING,
    Relation,
    get_relation,
)
from .tree import TreeNode, build_tree, parent_child_pairs

__all__ = [
    "ANCESTOR",
    "CHILD",
    "DESCENDANT",
    "FOLLOWING_SIBLING",
    "PARENT",
    "RELATIONS",
    "Relation",
    "SIBLING",
    "TreeNode",
    "build_tree",
    "get_relation",
    "parent_child_pairs",
]
