"""Abstract syntax tree of LDX queries.

An LDX query is a conjunction of *single node specifications* over a set of
named nodes (Section 4.1).  Each specification can constrain:

* the **structure** — which named (and how many anonymous) children or
  descendants the node must have,
* the **operation** — an :class:`~repro.ldx.patterns.OperationPattern` over
  the node's query operation, possibly containing continuity variables.

The AST also knows how to split itself into the structural subset
``struct(QX)`` and the operational subset ``opr(QX)`` used by the compliance
reward scheme (Section 5.2), and how to render a *minimal tree* used by the
exploration-tree edit distance metric (Appendix B.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.tregex.tree import TreeNode

from .errors import LdxSemanticError
from .patterns import OperationPattern

#: Reserved names for the query root.
ROOT_NAMES = ("ROOT", "BEGIN")

#: Structural relation keywords.
REL_CHILDREN = "children"
REL_DESCENDANTS = "descendants"


@dataclass(frozen=True)
class StructureClause:
    """``<anchor> CHILDREN/DESCENDANTS <named..., +...>``.

    ``extra`` counts anonymous ``+`` entries: the anchor must have at least
    ``len(named) + extra`` related nodes.
    """

    relation: str
    named: tuple[str, ...] = ()
    extra: int = 0

    def min_related(self) -> int:
        return len(self.named) + self.extra


@dataclass
class NodeSpec:
    """The full specification attached to one named node."""

    name: str
    operation: Optional[OperationPattern] = None
    structure: list[StructureClause] = field(default_factory=list)

    @property
    def is_root(self) -> bool:
        return self.name.upper() in ROOT_NAMES

    def continuity_variables(self) -> list[str]:
        if self.operation is None:
            return []
        return self.operation.continuity_variables()

    def render(self) -> str:
        """Serialise the spec back to a line of LDX text."""
        clauses: list[str] = []
        if self.operation is not None:
            clauses.append(f"LIKE {self.operation.render()}")
        for clause in self.structure:
            names = list(clause.named) + ["+"] * clause.extra
            keyword = "CHILDREN" if clause.relation == REL_CHILDREN else "DESCENDANTS"
            clauses.append(f"{keyword} {{{','.join(names)}}}")
        return f"{self.name} " + " and ".join(clauses) if clauses else self.name


@dataclass
class LdxQuery:
    """A parsed LDX query: an ordered list of node specifications."""

    specs: list[NodeSpec] = field(default_factory=list)
    source: str = ""

    # -- introspection ---------------------------------------------------------------
    def node_names(self) -> list[str]:
        """Names of all named nodes, in declaration order (``Nodes(QX)``)."""
        seen: dict[str, None] = {}
        for spec in self.specs:
            seen.setdefault(spec.name, None)
            for clause in spec.structure:
                for child in clause.named:
                    seen.setdefault(child, None)
        return list(seen)

    def continuity_variables(self) -> list[str]:
        """All continuity variable names (``Cont(QX)``), in first-use order."""
        seen: dict[str, None] = {}
        for spec in self.specs:
            for name in spec.continuity_variables():
                seen.setdefault(name, None)
        return list(seen)

    def root_name(self) -> str:
        """The name used for the root node (``ROOT`` or ``BEGIN``)."""
        for spec in self.specs:
            if spec.is_root:
                return spec.name
        return ROOT_NAMES[0]

    def spec_for(self, name: str) -> Optional[NodeSpec]:
        for spec in self.specs:
            if spec.name == name:
                return spec
        return None

    def named_children_of(self, name: str) -> list[str]:
        """Named children declared under *name* via CHILDREN clauses."""
        spec = self.spec_for(name)
        if spec is None:
            return []
        children: list[str] = []
        for clause in spec.structure:
            if clause.relation == REL_CHILDREN:
                children.extend(clause.named)
        return children

    def validate(self) -> None:
        """Raise :class:`LdxSemanticError` on dangling references or duplicate specs.

        Every node named in a CHILDREN/DESCENDANTS clause must have its own
        specification line; this catches the typical LLM failure of
        referencing a node it never defined.
        """
        names = set()
        for spec in self.specs:
            if spec.name in names:
                raise LdxSemanticError(f"duplicate specification for node {spec.name!r}")
            names.add(spec.name)
        for spec in self.specs:
            for clause in spec.structure:
                for child in clause.named:
                    if child not in names:
                        raise LdxSemanticError(
                            f"node {spec.name!r} references undeclared node {child!r}"
                        )
        if not any(spec.is_root for spec in self.specs):
            raise LdxSemanticError("query must contain a ROOT/BEGIN specification")

    # -- struct / opr split (Section 5.2) --------------------------------------------------
    def structural_subset(self) -> "LdxQuery":
        """``struct(QX)``: the same nodes with only the structural clauses."""
        specs = [
            NodeSpec(name=spec.name, operation=None, structure=list(spec.structure))
            for spec in self.specs
        ]
        return LdxQuery(specs=specs, source=self.source)

    def operational_specs(self) -> list[NodeSpec]:
        """``opr(QX)``: specifications that carry an operation pattern."""
        return [spec for spec in self.specs if spec.operation is not None and not spec.is_root]

    # -- derived sizes ---------------------------------------------------------------------
    def required_operations(self) -> int:
        """Minimum number of query operations a compliant session must contain.

        Counts every named non-root node plus anonymous ``+`` entries.
        """
        named = [n for n in self.node_names() if n.upper() not in ROOT_NAMES]
        extra = sum(clause.extra for spec in self.specs for clause in spec.structure)
        return len(named) + extra

    def preorder_named_nodes(self) -> list[str]:
        """Named non-root nodes in the pre-order of the specification tree.

        This is the order in which a session built step by step realises the
        specification (finish one branch, back up, start the next); the
        specification-aware guidance follows it.
        """
        children: dict[str, list[str]] = {}
        for spec in self.specs:
            for clause in spec.structure:
                children.setdefault(spec.name, []).extend(clause.named)
        ordered: list[str] = []
        seen: set[str] = set()

        def visit(name: str) -> None:
            for child in children.get(name, []):
                if child in seen:
                    continue
                seen.add(child)
                ordered.append(child)
                visit(child)

        visit(self.root_name())
        # Nodes never referenced as children (declared stand-alone) come last.
        for name in self.node_names():
            if name.upper() not in ROOT_NAMES and name not in seen:
                ordered.append(name)
        return ordered

    def minimal_session_steps(self) -> int:
        """Minimum number of agent steps (operations + back moves) for compliance.

        Walks the minimal specification tree in pre-order and counts one step
        per operation plus the back moves needed to return to the parent of
        the next operation.
        """
        tree = self.minimal_tree()
        nodes = [node for node in tree.preorder() if node is not tree]
        steps = len(nodes)
        for current, following in zip(nodes, nodes[1:]):
            drop = current.depth() - following.depth() + 1
            if drop > 0:
                steps += drop
        return steps

    # -- rendering -----------------------------------------------------------------------
    def render(self) -> str:
        """Serialise the query back to canonical LDX text."""
        return "\n".join(spec.render() for spec in self.specs)

    def minimal_tree(self, mask_continuity: bool = True) -> TreeNode:
        """Build the minimal specification-compliant tree (Appendix B.2).

        Named nodes become tree nodes labelled with their operation pattern's
        signature; DESCENDANTS clauses are flattened to direct children, with
        the child-relation kind recorded in the label.  Continuity variables
        can be masked to category-indexed identifiers so that naming
        differences do not affect the tree edit distance.
        """
        name_to_node: dict[str, TreeNode] = {}
        root_name = self.root_name()
        root = TreeNode(("ROOT",))
        name_to_node[root_name] = root
        mask_map: dict[str, str] = {}

        def label_for(spec: Optional[NodeSpec], relation: str) -> tuple:
            if spec is None or spec.operation is None:
                return ("*", relation)
            pattern = spec.operation
            fields: list[str] = [pattern.kind]
            for index, field_pattern in enumerate(pattern.fields):
                if field_pattern.kind == "continuity" and mask_continuity:
                    key = field_pattern.continuity or f"var{index}"
                    if key not in mask_map:
                        category = _field_category(pattern.kind, index)
                        mask_map[key] = f"{category}{len([k for k in mask_map.values() if k.startswith(category)]) + 1}"
                    fields.append(mask_map[key])
                else:
                    fields.append(field_pattern.render())
            return tuple(fields) + (relation,)

        # Attach named nodes in declaration order so parents exist before children.
        pending: list[tuple[str, str, str]] = []  # (parent, child, relation)
        for spec in self.specs:
            for clause in spec.structure:
                for child in clause.named:
                    pending.append((spec.name, child, clause.relation))

        progress = True
        while pending and progress:
            progress = False
            remaining: list[tuple[str, str, str]] = []
            for parent, child, relation in pending:
                if parent in name_to_node:
                    node = TreeNode(label_for(self.spec_for(child), relation))
                    name_to_node[parent].add_child(node)
                    name_to_node[child] = node
                    progress = True
                else:
                    remaining.append((parent, child, relation))
            pending = remaining
        # Any specs never referenced as a child hang off the root.
        for spec in self.specs:
            if spec.name not in name_to_node:
                node = TreeNode(label_for(spec, REL_CHILDREN))
                root.add_child(node)
                name_to_node[spec.name] = node
        return root


def _field_category(kind: str, index: int) -> str:
    if kind == "F":
        return ("att", "op", "term")[index] if index < 3 else "fld"
    if kind == "G":
        return ("att", "aggfunc", "aggatt")[index] if index < 3 else "fld"
    return "fld"


def merge_queries(queries: Iterable[LdxQuery]) -> LdxQuery:
    """Concatenate several queries into one (used by benchmark template composition)."""
    merged = LdxQuery()
    for query in queries:
        merged.specs.extend(query.specs)
    return merged
