"""The from-scratch LDX search the shape-keyed matcher is tested against.

Production code (:class:`repro.ldx.verifier.LdxMatcher`) answers structural
questions once per (specification, tree shape) and verifies operations by
filtering the memoised structural assignments.  This module keeps the
direct reading of the paper instead: Algorithm 1's recursive
``GetTregexNodeMatches`` search over the caller's own tree, with operation
patterns checked inside the search, the branch-and-bound best partial
structural assignment, and the look-ahead that verifies every tree
completion in turn.  Nothing is memoised.
"""

from __future__ import annotations

from typing import Optional

from repro.ldx.ast import LdxQuery, NodeSpec
from repro.ldx.errors import LdxVerificationError
from repro.ldx.partial import enumerate_completions
from repro.ldx.verifier import Assignment
from repro.tregex.relations import get_relation
from repro.tregex.tree import TreeNode


def _signature(node: TreeNode) -> tuple[str, ...]:
    label = node.label
    if label is None:
        return ("*",)
    if hasattr(label, "signature"):
        return tuple(str(part) for part in label.signature())
    if isinstance(label, (tuple, list)):
        return tuple(str(part) for part in label)
    return (str(label),)


def _is_root_label(node: TreeNode) -> bool:
    return _signature(node)[0].upper() == "ROOT"


def _is_blank(node: TreeNode) -> bool:
    return _signature(node)[0] == "*"


def _candidates(
    tree_root: TreeNode,
    query: LdxQuery,
    spec: NodeSpec,
    assignment: Assignment,
    structural_only: bool,
    ignore_arity: bool = False,
) -> list[TreeNode]:
    """``GetTregexNodeMatches``: candidate session nodes for *spec* given *assignment*."""
    name = spec.name
    if name in assignment.nodes:
        pool: list[TreeNode] = [assignment.nodes[name]]
    else:
        pool = None
        for other in query.specs:
            if other.name not in assignment.nodes:
                continue
            anchor_node = assignment.nodes[other.name]
            for clause in other.structure:
                if name in clause.named:
                    relation = get_relation(clause.relation)
                    related = relation.candidates(anchor_node)
                    pool = related if pool is None else [n for n in pool if n in related]
        if pool is None:
            pool = list(tree_root.preorder())

    used = {id(node) for key, node in assignment.nodes.items() if key != name}
    result: list[TreeNode] = []
    for node in pool:
        if id(node) in used:
            continue
        if spec.is_root:
            if node is not tree_root:
                continue
        elif _is_root_label(node):
            continue
        if not ignore_arity and not _arity_ok(node, spec):
            continue
        if not _assigned_children_ok(node, spec, assignment):
            continue
        if not structural_only and spec.operation is not None and not _is_blank(node):
            pattern = spec.operation.substitute(assignment.continuity)
            if not pattern.matches(_signature(node), assignment.continuity):
                continue
        result.append(node)
    return result


def _arity_ok(node: TreeNode, spec: NodeSpec) -> bool:
    for clause in spec.structure:
        relation = get_relation(clause.relation)
        if len(relation.candidates(node)) < clause.min_related():
            return False
    return True


def _assigned_children_ok(node: TreeNode, spec: NodeSpec, assignment: Assignment) -> bool:
    for clause in spec.structure:
        relation = get_relation(clause.relation)
        for child_name in clause.named:
            if child_name in assignment.nodes:
                if not relation.holds(node, assignment.nodes[child_name]):
                    return False
    return True


def _ordered_specs(query: LdxQuery) -> list[NodeSpec]:
    root = [spec for spec in query.specs if spec.is_root]
    rest = [spec for spec in query.specs if not spec.is_root]
    return root + rest


def _search(
    tree_root: TreeNode,
    query: LdxQuery,
    pending: list[NodeSpec],
    assignment: Assignment,
    structural_only: bool,
    collect: Optional[list[Assignment]] = None,
) -> Optional[Assignment]:
    """Recursive core of Algorithm 1 (first assignment, or all into *collect*)."""
    if not pending:
        if collect is not None:
            collect.append(assignment.copy())
            return None
        return assignment.copy()
    spec, rest = pending[0], pending[1:]
    for node in _candidates(tree_root, query, spec, assignment, structural_only):
        branch = assignment.copy()
        branch.nodes[spec.name] = node
        if not structural_only and spec.operation is not None and not _is_blank(node):
            pattern = spec.operation.substitute(assignment.continuity)
            branch.continuity.update(pattern.capture(_signature(node), assignment.continuity))
        found = _search(tree_root, query, rest, branch, structural_only, collect)
        if found is not None and collect is None:
            return found
    return None


def find_assignment(tree_root: TreeNode, query: LdxQuery) -> Optional[Assignment]:
    if tree_root is None:
        raise LdxVerificationError("tree_root must not be None")
    initial = Assignment(nodes={query.root_name(): tree_root})
    return _search(tree_root, query, _ordered_specs(query), initial, structural_only=False)


def verify(tree_root: TreeNode, query: LdxQuery) -> bool:
    return find_assignment(tree_root, query) is not None


def verify_structure(tree_root: TreeNode, query: LdxQuery) -> bool:
    return bool(structural_assignments(tree_root, query, first_only=True))


def structural_assignments(
    tree_root: TreeNode, query: LdxQuery, first_only: bool = False
) -> list[Assignment]:
    struct_query = query.structural_subset()
    initial = Assignment(nodes={struct_query.root_name(): tree_root})
    if first_only:
        found = _search(
            tree_root, struct_query, _ordered_specs(struct_query), initial, structural_only=True
        )
        return [found] if found is not None else []
    collected: list[Assignment] = []
    _search(
        tree_root,
        struct_query,
        _ordered_specs(struct_query),
        initial,
        structural_only=True,
        collect=collected,
    )
    return collected


def operational_match_ratio(tree_root: TreeNode, query: LdxQuery) -> float:
    opr_specs = query.operational_specs()
    if not opr_specs:
        return 1.0
    assignments = structural_assignments(tree_root, query)
    if not assignments:
        return 0.0
    best = 0.0
    for assignment in assignments:
        total = 0.0
        for spec in opr_specs:
            node = assignment.nodes.get(spec.name)
            if node is None or spec.operation is None:
                continue
            specified = spec.operation.specified_field_count()
            if specified == 0:
                total += 1.0
                continue
            matched = spec.operation.matched_field_count(_signature(node), {})
            total += matched / specified
        best = max(best, total / len(opr_specs))
    return best


def best_partial_structural_assignment(
    tree_root: TreeNode, query: LdxQuery
) -> tuple[Assignment, int, int]:
    struct_query = query.structural_subset()
    specs = _ordered_specs(struct_query)
    named = [spec for spec in specs if not spec.is_root]
    initial = Assignment(nodes={struct_query.root_name(): tree_root})
    if not named:
        return initial, 0, 0

    best_assignment = initial
    best_count = 0

    def explore(pending: list[NodeSpec], assignment: Assignment, assigned: int) -> None:
        nonlocal best_assignment, best_count
        if assigned > best_count:
            best_count = assigned
            best_assignment = assignment.copy()
        if not pending or assigned + len(pending) <= best_count:
            return
        spec, rest = pending[0], pending[1:]
        for node in _candidates(
            tree_root, struct_query, spec, assignment, True, ignore_arity=True
        ):
            branch = assignment.copy()
            branch.nodes[spec.name] = node
            explore(rest, branch, assigned + 1)
        explore(rest, assignment, assigned)

    explore(named, initial, 0)
    return best_assignment, best_count, len(named)


def count_assignments(tree_root: TreeNode, query: LdxQuery) -> int:
    """Number of full (structural + operational) assignments."""
    collected: list[Assignment] = []
    initial = Assignment(nodes={query.root_name(): tree_root})
    _search(
        tree_root, query, _ordered_specs(query), initial, structural_only=False, collect=collected
    )
    return len(collected)


def can_still_comply(
    root: TreeNode,
    query: LdxQuery,
    remaining_steps: int,
    max_completions: int | None = None,
) -> bool:
    """True when some completion of *root* satisfies ``struct(QX)`` (budget-permissive)."""
    examined = 0
    for completed in enumerate_completions(root, remaining_steps):
        examined += 1
        if verify_structure(completed, query):
            return True
        if max_completions is not None and examined >= max_completions:
            return True
    return False
