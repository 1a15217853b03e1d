"""LDX verification engine (Algorithm 1 of the paper).

Given an exploration session tree whose node labels are
:class:`~repro.explore.operations.Operation` objects and an
:class:`~repro.ldx.ast.LdxQuery`, the engine decides whether at least one
*assignment* exists: a mapping of the query's named nodes to session nodes
and of its continuity variables to concrete values such that every
structural clause and every operation pattern is satisfied.  A tree is given
by its root: a :class:`~repro.tregex.tree.TreeNode`, or any node with
``label`` and ``children`` such as a session's
:class:`~repro.explore.session.SessionNode`.  A session root carries its
session's pre-order index (``preorder_index``), which is read instead of
walking the tree.

**Why labels stay out of ``struct(QX)``.**  The structural search
(``GetTregexNodeMatches`` restricted to the CHILDREN/DESCENDANTS clauses)
reads only two things of the tree: its shape, and which nodes carry a
ROOT-kind label (the root specification binds the tree root, and no other
specification may bind a ROOT-kind node).  Operation labels enter only
through the operation patterns.  So every structural assignment, the best
partial structural assignment and the look-ahead feasibility are pure
functions of (specification, tree shape).  An :class:`LdxMatcher` compiles
its specification once and memoises those answers per *shape key*: the
pre-order child counts plus the pre-order positions of ROOT-kind nodes.
Assignments are stored as pre-order position tuples and mapped back onto
the caller's tree through its pre-order node list.

Full verification filters the memoised structural assignments, in search
order: each is checked against the operation patterns, specification by
specification, binding continuity variables as it goes (blank ``*``
placeholder nodes skip the check).  The first that passes is the witness the
recursive search of Algorithm 1 would find, because that search visits the
same candidates in the same order and only prunes the ones whose patterns
fail.

The module functions build a private matcher per call; callers on a hot
path hold one matcher per specification (the engine pools them, see
:meth:`repro.cdrl.context.SharedExplorationContext.matcher`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from repro.tregex.relations import Relation, get_relation
from repro.tregex.tree import TreeNode

from .ast import LdxQuery, NodeSpec
from .errors import LdxVerificationError

#: Label of the ROOT-kind positions of a shape skeleton.
_ROOT_LABEL = ("ROOT",)

#: ``(pre-order child counts, pre-order positions of ROOT-kind nodes)``.
ShapeKey = tuple[tuple[int, ...], tuple[int, ...]]

#: A memoised assignment: one pre-order position (or ``None``) per name slot.
Positions = tuple[Optional[int], ...]


@dataclass
class Assignment:
    """A (possibly partial) LDX assignment ``⟨φ_V, φ_C⟩`` (Definition 4.2)."""

    nodes: dict[str, TreeNode] = field(default_factory=dict)
    continuity: dict[str, str] = field(default_factory=dict)

    def copy(self) -> "Assignment":
        return Assignment(nodes=dict(self.nodes), continuity=dict(self.continuity))


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
    """``_signature(node)[0].upper() == "ROOT"``, without building the signature.

    An operation's signature starts with its ``kind``, so that is read instead.
    """
    label = node.label
    if label is None:
        return False
    if hasattr(label, "signature"):
        kind = getattr(label, "kind", None) or label.signature()[0]
    elif isinstance(label, (tuple, list)):
        kind = label[0]
    else:
        kind = label
    return str(kind).upper() == "ROOT"


def _ordered_specs(query: LdxQuery) -> list[NodeSpec]:
    """Root spec first, then declaration order (parents precede children in LDX text)."""
    root = [spec for spec in query.specs if spec.is_root]
    rest = [spec for spec in query.specs if not spec.is_root]
    return root + rest


# -- tree shapes ------------------------------------------------------------------------
def _walk(tree_root: TreeNode) -> tuple[ShapeKey, list[TreeNode]]:
    """The shape key of *tree_root*'s tree and its nodes in pre-order."""
    nodes: list[TreeNode] = []
    counts: list[int] = []
    roots: list[int] = []
    stack = [tree_root]
    while stack:
        node = stack.pop()
        if _is_root_label(node):
            roots.append(len(nodes))
        nodes.append(node)
        counts.append(len(node.children))
        stack.extend(reversed(node.children))
    return (tuple(counts), tuple(roots)), nodes


def _parents(counts: Sequence[int]) -> list[Optional[int]]:
    """Parent position of every pre-order position of a shape."""
    parents: list[Optional[int]] = [None] * len(counts)
    open_nodes: list[list[int]] = []  # [position, children still to come]
    for position, count in enumerate(counts):
        if open_nodes:
            parent = open_nodes[-1]
            parents[position] = parent[0]
            parent[1] -= 1
            if parent[1] == 0:
                open_nodes.pop()
        if count:
            open_nodes.append([position, count])
    return parents


def _skeleton(key: ShapeKey) -> list[TreeNode]:
    """Pre-order nodes of a label-free tree of shape *key* (``node_id`` = position)."""
    counts, roots = key
    nodes = [
        TreeNode(_ROOT_LABEL if position in roots else None, node_id=position)
        for position in range(len(counts))
    ]
    for node, parent in zip(nodes, _parents(counts)):
        if parent is not None:
            nodes[parent].add_child(node)
    return nodes


def _completions(key: ShapeKey, additional: int) -> Iterator[ShapeKey]:
    """Shapes of every completion of *key* with *additional* blank nodes.

    Same order as :func:`repro.ldx.partial.enumerate_completions`: each new
    node becomes the last child of the previously added node or of one of
    its ancestors, deepest first, so it is always last in pre-order.
    """
    roots = key[1]

    def expand(counts: tuple[int, ...], remaining: int) -> Iterator[ShapeKey]:
        if remaining <= 0:
            yield counts, roots
            return
        parents = _parents(counts)
        anchor: Optional[int] = len(counts) - 1
        while anchor is not None:
            grown = counts[:anchor] + (counts[anchor] + 1,) + counts[anchor + 1 :] + (0,)
            yield from expand(grown, remaining - 1)
            anchor = parents[anchor]

    return expand(key[0], additional)


# -- the compiled specification -----------------------------------------------------------
@dataclass(frozen=True)
class _SpecPlan:
    """One specification's structural constraints, resolved to name slots."""

    slot: int
    is_root: bool
    #: ``(anchor slot, relation)`` of every clause naming this node, in
    #: declaration order: candidates are the anchor's related nodes.
    anchors: tuple[tuple[int, Relation], ...]
    #: ``(relation, least related nodes)`` per clause of this node.
    arity: tuple[tuple[Relation, int], ...]
    #: ``(relation, child slot)`` per specified child named in its clauses.
    children: tuple[tuple[Relation, int], ...]


@dataclass
class _Shape:
    """The structural answers for one tree shape, each computed on first use."""

    key: ShapeKey
    assignments: Optional[tuple[Positions, ...]] = None
    best_partial: Optional[tuple[Positions, int]] = None
    feasible: dict[tuple[int, Optional[int]], bool] = field(default_factory=dict)


class LdxMatcher:
    """Algorithm 1 for one specification, memoised per tree shape.

    *memo* holds the per-shape entries; pass a budget-charged dict (see
    :class:`repro.cdrl.context.PooledMemo`) to bound it, or leave it
    ``None`` for a private, unbounded one.
    """

    def __init__(self, query: LdxQuery, memo: Optional[dict] = None):
        specs = _ordered_specs(query)
        root_name = query.root_name()
        #: Name slots in the insertion order of Algorithm 1's assignments.
        self._names = tuple(dict.fromkeys([root_name, *(spec.name for spec in specs)]))
        slots = {name: slot for slot, name in enumerate(self._names)}
        anchors: dict[str, list[tuple[int, Relation]]] = {}
        for spec in query.specs:
            for clause in spec.structure:
                for name in dict.fromkeys(clause.named):
                    anchors.setdefault(name, []).append(
                        (slots[spec.name], get_relation(clause.relation))
                    )
        self._plans = tuple(
            _SpecPlan(
                slot=slots[spec.name],
                is_root=spec.is_root,
                anchors=tuple(anchors.get(spec.name, ())),
                arity=tuple(
                    (get_relation(clause.relation), clause.min_related())
                    for clause in spec.structure
                ),
                children=tuple(
                    (get_relation(clause.relation), slots[child])
                    for clause in spec.structure
                    for child in clause.named
                    if child in slots
                ),
            )
            for spec in specs
        )
        self._named_plans = tuple(plan for plan in self._plans if not plan.is_root)
        self._operations = tuple(
            (slots[spec.name], spec.operation) for spec in specs if spec.operation is not None
        )
        self._scored = tuple(
            (slots[spec.name], spec.operation, spec.operation.specified_field_count())
            for spec in query.operational_specs()
        )
        self._shapes: dict[ShapeKey, _Shape] = {} if memo is None else memo

    # -- the structural search (runs once per shape, on a skeleton) ----------------------
    def _candidates(
        self,
        plan: _SpecPlan,
        assigned: list[Optional[TreeNode]],
        nodes: list[TreeNode],
        ignore_arity: bool = False,
    ) -> list[TreeNode]:
        """``GetTregexNodeMatches`` for *plan*'s node given the *assigned* slots."""
        own = assigned[plan.slot]
        if own is not None:
            pool: Optional[list[TreeNode]] = [own]
        else:
            pool = None
            # Restrict to nodes related to already-assigned anchors.
            for anchor_slot, relation in plan.anchors:
                anchor = assigned[anchor_slot]
                if anchor is None:
                    continue
                related = relation.candidates(anchor)
                pool = related if pool is None else [n for n in pool if n in related]
            if pool is None:
                pool = nodes
        used = {
            id(node)
            for slot, node in enumerate(assigned)
            if node is not None and slot != plan.slot
        }
        result: list[TreeNode] = []
        for node in pool:
            if id(node) in used:
                continue
            if plan.is_root:
                if node is not nodes[0]:
                    continue
            elif _is_root_label(node):
                continue
            # Arity: enough children/descendants for the declared structure.
            if not ignore_arity and any(
                len(relation.candidates(node)) < least for relation, least in plan.arity
            ):
                continue
            # Reverse structural check: node must be properly related to assigned children.
            if any(
                assigned[slot] is not None and not relation.holds(node, assigned[slot])
                for relation, slot in plan.children
            ):
                continue
            result.append(node)
        return result

    def _structural(self, nodes: list[TreeNode]) -> Iterator[Positions]:
        """Every structural assignment over skeleton *nodes*, in search order."""
        plans = self._plans
        assigned: list[Optional[TreeNode]] = [None] * len(self._names)
        assigned[0] = nodes[0]

        def search(depth: int) -> Iterator[Positions]:
            if depth == len(plans):
                yield tuple(None if node is None else node.node_id for node in assigned)
                return
            plan = plans[depth]
            previous = assigned[plan.slot]
            for node in self._candidates(plan, assigned, nodes):
                assigned[plan.slot] = node
                yield from search(depth + 1)
            assigned[plan.slot] = previous

        return search(0)

    def _best_partial(self, nodes: list[TreeNode]) -> tuple[Positions, int]:
        """Branch and bound over named nodes, each assigned or skipped."""
        named = self._named_plans
        assigned: list[Optional[TreeNode]] = [None] * len(self._names)
        assigned[0] = nodes[0]

        def positions() -> Positions:
            return tuple(None if node is None else node.node_id for node in assigned)

        best: list = [positions(), 0]

        def explore(depth: int, count: int) -> None:
            if count > best[1]:
                best[:] = [positions(), count]
            remaining = len(named) - depth
            if not remaining or count + remaining <= best[1]:
                return
            plan = named[depth]
            previous = assigned[plan.slot]
            for node in self._candidates(plan, assigned, nodes, ignore_arity=True):
                assigned[plan.slot] = node
                explore(depth + 1, count + 1)
            assigned[plan.slot] = previous
            # Also consider skipping this spec entirely.
            explore(depth + 1, count)

        if named:
            explore(0, 0)
        return best[0], best[1]

    # -- per-shape memo -------------------------------------------------------------------
    def _shape(self, tree_root: TreeNode) -> tuple[_Shape, list[TreeNode]]:
        index = getattr(tree_root, "preorder_index", None)
        if index is None:
            key, nodes = _walk(tree_root)
        else:
            # A session root: its index is the pre-order walk, and only the
            # root carries a ROOT-kind label.
            key, nodes = (index.shape(), (0,)), index.nodes
        shape = self._shapes.get(key)
        if shape is None:
            shape = self._shapes[key] = _Shape(key)
        return shape, nodes

    def _assignments(self, shape: _Shape) -> tuple[Positions, ...]:
        if shape.assignments is None:
            shape.assignments = tuple(self._structural(_skeleton(shape.key)))
        return shape.assignments

    def _assignment(
        self, positions: Positions, nodes: list[TreeNode], continuity: Optional[dict] = None
    ) -> Assignment:
        return Assignment(
            nodes={
                name: nodes[position]
                for name, position in zip(self._names, positions)
                if position is not None
            },
            continuity=continuity or {},
        )

    # -- full verification -------------------------------------------------------------------
    def _bindings(
        self, positions: Positions, nodes: list[TreeNode], signatures: dict
    ) -> Optional[dict[str, str]]:
        """Continuity bindings when every operation pattern holds, else ``None``."""
        continuity: dict[str, str] = {}
        for slot, operation in self._operations:
            position = positions[slot]
            signature = signatures.get(position)
            if signature is None:
                signature = signatures[position] = _signature(nodes[position])
            if signature[0] == "*":
                continue
            # Bound variables are checked against *continuity* itself, which
            # is what substituting them into the pattern would do.
            if not operation.matches(signature, continuity):
                return None
            continuity.update(operation.capture(signature, continuity))
        return continuity

    def find_assignment(self, tree_root: TreeNode) -> Optional[Assignment]:
        """One full assignment over the session tree (Algorithm 1's witness), or ``None``."""
        if tree_root is None:
            raise LdxVerificationError("tree_root must not be None")
        shape, nodes = self._shape(tree_root)
        signatures: dict = {}
        for positions in self._assignments(shape):
            continuity = self._bindings(positions, nodes, signatures)
            if continuity is not None:
                return self._assignment(positions, nodes, continuity)
        return None

    def verify(self, tree_root: TreeNode) -> bool:
        """``VerifyLDX``: True when the session complies with the full query.

        A session's verdict is stamped on its pre-order index with the
        session's length, so it is reused until the session grows.
        """
        index = getattr(tree_root, "preorder_index", None)
        if index is None:
            return self.find_assignment(tree_root) is not None
        stamp = (self, len(index.nodes))
        if index.verdict is None or index.verdict[:2] != stamp:
            index.verdict = (*stamp, self.find_assignment(tree_root) is not None)
        return index.verdict[2]

    # -- structural questions ----------------------------------------------------------------
    def structural_assignments(self, tree_root: TreeNode) -> list[Assignment]:
        """All assignments satisfying ``struct(QX)``, in search order."""
        shape, nodes = self._shape(tree_root)
        return [self._assignment(positions, nodes) for positions in self._assignments(shape)]

    def verify_structure(self, tree_root: TreeNode) -> bool:
        """True when the session complies with the structural subset ``struct(QX)``."""
        return bool(self._assignments(self._shape(tree_root)[0]))

    def operational_match_ratio(self, tree_root: TreeNode) -> float:
        """Best-assignment fraction of satisfied operational parameters.

        Implements ``GetOprReward`` (Algorithm 2, lines 9-12): for every
        structural assignment, each operational specification contributes
        the ratio of its satisfied specified parameters; the maximum over
        assignments is returned, normalised to [0, 1] by the number of
        operational specs.
        """
        if not self._scored:
            return 1.0
        shape, nodes = self._shape(tree_root)
        assignments = self._assignments(shape)
        if not assignments:
            return 0.0
        ratios: dict[tuple[int, int], float] = {}
        best = 0.0
        for positions in assignments:
            total = 0.0
            for index, (slot, operation, specified) in enumerate(self._scored):
                if specified == 0:
                    total += 1.0
                    continue
                position = positions[slot]
                ratio = ratios.get((index, position))
                if ratio is None:
                    matched = operation.matched_field_count(_signature(nodes[position]), {})
                    ratio = ratios[(index, position)] = matched / specified
                total += ratio
            best = max(best, total / len(self._scored))
        return best

    def best_partial_structural_assignment(
        self, tree_root: TreeNode
    ) -> tuple[Assignment, int, int]:
        """The structural assignment covering the most named nodes.

        Relaxes ``struct(QX)`` verification by allowing named nodes to stay
        unassigned (arity is not required either).  Returns ``(assignment,
        assigned_count, named_count)``; the graded compliance reward and the
        specification-aware structure guide both build on it.
        """
        shape, nodes = self._shape(tree_root)
        if shape.best_partial is None:
            shape.best_partial = self._best_partial(_skeleton(shape.key))
        positions, assigned = shape.best_partial
        return self._assignment(positions, nodes), assigned, len(self._named_plans)

    def partial_structural_ratio(self, tree_root: TreeNode) -> float:
        """Fraction of named nodes assignable while respecting structural clauses."""
        _, assigned, named = self.best_partial_structural_assignment(tree_root)
        if named == 0:
            return 1.0
        return assigned / named

    def can_still_comply(
        self,
        tree_root: TreeNode,
        remaining_steps: int,
        max_completions: Optional[int] = None,
    ) -> bool:
        """True when some completion of the ongoing session satisfies ``struct(QX)``.

        Completions append *remaining_steps* blank nodes in pre-order (see
        :mod:`repro.ldx.partial`); when *max_completions* completions are
        examined without a decision the answer is a permissive True.
        """
        shape, _ = self._shape(tree_root)
        budget = (remaining_steps, max_completions)
        feasible = shape.feasible.get(budget)
        if feasible is None:
            feasible = shape.feasible[budget] = self._feasible(
                shape.key, remaining_steps, max_completions
            )
        return feasible

    def _feasible(
        self, key: ShapeKey, remaining_steps: int, max_completions: Optional[int]
    ) -> bool:
        examined = 0
        for completion in _completions(key, remaining_steps):
            examined += 1
            if next(self._structural(_skeleton(completion)), None) is not None:
                return True
            if max_completions is not None and examined >= max_completions:
                # Undecided within budget: be permissive and do not penalise.
                return True
        return False


# -- one-shot module API (a private matcher per call) ---------------------------------------
def find_assignment(tree_root: TreeNode, query: LdxQuery) -> Optional[Assignment]:
    """Return a full assignment of *query* over the session tree, or ``None``."""
    return LdxMatcher(query).find_assignment(tree_root)


def verify(tree_root: TreeNode, query: LdxQuery, matcher: Optional[LdxMatcher] = None) -> bool:
    """``VerifyLDX``: True when the session complies with the full query.

    *matcher*, when given, is a matcher for *query* whose shape memo is reused.
    """
    return (matcher or LdxMatcher(query)).verify(tree_root)


def verify_structure(tree_root: TreeNode, query: LdxQuery) -> bool:
    """True when the session complies with the structural subset ``struct(QX)``."""
    return LdxMatcher(query).verify_structure(tree_root)


def structural_assignments(
    tree_root: TreeNode, query: LdxQuery, first_only: bool = False
) -> list[Assignment]:
    """All assignments satisfying ``struct(QX)`` (``GetTregexNodeAssg`` in Alg. 2)."""
    assignments = LdxMatcher(query).structural_assignments(tree_root)
    return assignments[:1] if first_only else assignments


def operational_match_ratio(tree_root: TreeNode, query: LdxQuery) -> float:
    """Best-assignment fraction of satisfied operational parameters (Alg. 2, lines 9-12)."""
    return LdxMatcher(query).operational_match_ratio(tree_root)


def partial_structural_ratio(tree_root: TreeNode, query: LdxQuery) -> float:
    """Fraction of named nodes assignable while respecting structural clauses.

    Used by the graded compliance reward to provide a smooth signal toward
    structural compliance: a session whose tree already realises most of the
    required structure scores close to 1 even if no complete structural
    assignment exists yet.
    """
    return LdxMatcher(query).partial_structural_ratio(tree_root)
