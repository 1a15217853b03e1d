"""Exploration sessions as trees of executed query operations.

An exploration session over a dataset ``D`` is a tree ``T_D`` (Section 3):
the root node is the raw dataset, every other node is a query operation
applied to its parent's result, and the execution order is the pre-order
traversal of the tree.  Each node stores both the operation and the
materialised result view so rewards and notebooks can inspect them without
re-execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional

from repro.dataframe.table import DataTable
from repro.plan.nodes import LogicalPlan
from repro.tregex.tree import TreeNode

from .operations import (
    BackOperation,
    FilterOperation,
    GroupAggOperation,
    Operation,
    RootOperation,
    is_query_operation,
)


@dataclass
class SessionNode:
    """A single node of an exploration session: an operation and its result view."""

    operation: Operation
    view: DataTable
    #: Canonical logical plan producing this node's view from the base
    #: dataset (the empty plan at the root).
    plan: LogicalPlan
    parent: Optional["SessionNode"] = None
    children: list["SessionNode"] = field(default_factory=list)
    step_index: int = 0
    #: Pre-order position in the session (0 at the root).
    position: int = 0
    #: The session's pre-order index; set on the root only.
    preorder_index: Optional["PreorderIndex"] = field(default=None, repr=False, compare=False)

    def signature(self) -> tuple[str, ...]:
        """Positional signature used by LDX verification."""
        return self.operation.signature()

    @property
    def label(self) -> Operation:
        """The node's label as a tree node (see :class:`~repro.tregex.tree.TreeNode`).

        Sessions are ordered labelled trees, so the LDX matcher reads them
        directly, without :meth:`ExplorationSession.to_tree`.
        """
        return self.operation

    @cached_property
    def signature_text(self) -> str:
        """``repr`` of :meth:`signature`, computed once per node."""
        return repr(self.signature())

    @property
    def is_root(self) -> bool:
        return self.parent is None

    def depth(self) -> int:
        depth = 0
        node = self
        while node.parent is not None:
            node = node.parent
            depth += 1
        return depth

    def ancestors(self) -> list["SessionNode"]:
        result = []
        node = self.parent
        while node is not None:
            result.append(node)
            node = node.parent
        return result

    def preorder(self) -> Iterator["SessionNode"]:
        yield self
        for child in self.children:
            yield from child.preorder()

    def __repr__(self) -> str:
        return f"SessionNode(op={self.operation.describe()!r}, rows={len(self.view)})"


@dataclass(eq=False)
class PreorderIndex:
    """Append-only pre-order index of a session tree (see :class:`ExplorationSession`).

    ``interest`` and ``diversity`` hold one generic-reward term per query
    node (position ``p`` at ``p - 1``); the generic scorer fills them the
    first time it scores a node, ``None`` marking a diversity term not yet
    computed.  ``verdict`` is the last LDX verification, stamped
    ``(matcher, len(nodes), compliant)`` so that growth invalidates it.
    """

    nodes: list[SessionNode]
    child_counts: list[int] = field(default_factory=lambda: [0])
    interest: list[float] = field(default_factory=list)
    diversity: list[Optional[float]] = field(default_factory=list)
    verdict: Optional[tuple] = None
    _shape: Optional[tuple[int, ...]] = None

    def append(self, node: SessionNode) -> None:
        """Index *node*, the new last child of a node on the rightmost path."""
        node.position = len(self.nodes)
        self.nodes.append(node)
        self.child_counts.append(0)
        self.child_counts[node.parent.position] += 1
        self.diversity.append(None)
        self._shape = None

    def shape(self) -> tuple[int, ...]:
        """Pre-order child counts, as a tuple built once per growth."""
        if self._shape is None:
            self._shape = tuple(self.child_counts)
        return self._shape


class ExplorationSession:
    """A growing exploration session over a dataset.

    The session tracks the *current node* (the view the next operation will
    be applied to) so the RL environment can implement filter, group-by and
    back actions.  Query operations append children; the back operation moves
    the cursor up the tree without adding a node.

    **Insertion order is pre-order.**  The cursor is always on the tree's
    rightmost path: a new node becomes the cursor, and the back operation
    only moves to its ancestors.  A new node is the last child of the
    cursor, so it is last in pre-order.  The session therefore keeps an
    append-only :class:`PreorderIndex` (``self.index``, also reachable as
    ``root.preorder_index``) that :meth:`add_operation` updates in O(1):
    the nodes root first, each node's child count (and, on the node, its
    position) and the generic-reward terms.  The generic reward, the LDX
    matcher and the guidance key read it instead of walking the tree.
    """

    def __init__(self, dataset: DataTable, dataset_name: str | None = None):
        name = dataset_name or dataset.name
        self.dataset = dataset
        self.root = SessionNode(
            operation=RootOperation(dataset_name=name),
            view=dataset,
            plan=LogicalPlan(()),
        )
        self.index = self.root.preorder_index = PreorderIndex([self.root])
        self.current = self.root
        self._steps = 0
        self._operations: list[Operation] = []

    # -- growth ----------------------------------------------------------------------
    def apply(self, operation: Operation, executor) -> SessionNode:
        """Execute *operation* on the current view and attach the result.

        The one transition routine of the exploration MDP: the current
        node's canonical plan is extended by *operation* and executed
        through ``executor.execute_step`` (a
        :class:`~repro.explore.executor.QueryExecutor`; duck-typed to avoid
        a module cycle), then the result becomes the new current node.
        Raises the executor's ``ExecutionError`` without touching the
        session when the operation cannot run.
        """
        current = self.current
        view, plan = executor.execute_step(
            self.dataset, current.plan, current.view, operation
        )
        return self.add_operation(operation, view, plan)

    def add_operation(
        self, operation: Operation, view: DataTable, plan: LogicalPlan
    ) -> SessionNode:
        """Attach *operation* (already executed into *view*) under the current node.

        *plan* is the canonical logical plan of *view*; :meth:`apply`
        executes and attaches in one step.
        """
        if not is_query_operation(operation):
            raise ValueError(f"only query operations create nodes, got {operation.kind}")
        self._steps += 1
        node = SessionNode(
            operation=operation,
            view=view,
            parent=self.current,
            step_index=self._steps,
            plan=plan,
        )
        self.current.children.append(node)
        self.index.append(node)
        self.current = node
        self._operations.append(operation)
        return node

    def go_back(self, steps: int = 1) -> SessionNode:
        """Move the cursor *steps* levels up (clamped at the root); counts as a step."""
        self._steps += 1
        node = self.current
        for _ in range(max(1, steps)):
            if node.parent is None:
                break
            node = node.parent
        self.current = node
        self._operations.append(BackOperation(steps=steps))
        return node

    def note_invalid_step(self) -> None:
        """Record an agent step whose operation was invalid.

        Invalid actions consume a step but add no node and no operation;
        this keeps :attr:`steps_taken` consistent without callers reaching
        into the session's private counter.
        """
        self._steps += 1

    # -- inspection -------------------------------------------------------------------
    @property
    def steps_taken(self) -> int:
        """Total number of agent steps, including back operations."""
        return self._steps

    @property
    def operations(self) -> list[Operation]:
        """Every action taken, in order (including back operations)."""
        return list(self._operations)

    def query_nodes(self) -> list[SessionNode]:
        """All non-root nodes in execution (pre-order) order."""
        return self.index.nodes[1:]

    def num_queries(self) -> int:
        return len(self.index.nodes) - 1

    def views(self) -> list[DataTable]:
        """Result views of every query node, in execution order."""
        return [node.view for node in self.query_nodes()]

    # -- conversion -------------------------------------------------------------------
    def to_tree(self) -> TreeNode:
        """Convert to a :class:`~repro.tregex.tree.TreeNode` labelled with operations.

        This is the representation consumed by the LDX verification engine.
        """
        def convert(node: SessionNode) -> TreeNode:
            tree_node = TreeNode(node.operation)
            for child in node.children:
                tree_node.add_child(convert(child))
            return tree_node

        return convert(self.root)

    def describe(self) -> str:
        """Indented text outline of the session (operation + result size per node)."""
        lines: list[str] = []

        def visit(node: SessionNode, level: int) -> None:
            lines.append(f"{'  ' * level}{node.operation.describe()} [{len(node.view)} rows]")
            for child in node.children:
                visit(child, level + 1)

        visit(self.root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"ExplorationSession(queries={self.num_queries()}, steps={self.steps_taken})"


def session_from_operations(
    dataset: DataTable,
    operations: list[Operation],
    executor: "object" = None,
    cache: "object" = None,
) -> ExplorationSession:
    """Replay a flat list of operations (including back ops) into a session.

    Each query operation goes through :meth:`ExplorationSession.apply`, so
    cache keys are canonical-plan based: replays of *equivalent* operation
    lists (commuted filters, undone steps) share cache entries, not just
    syntactically identical ones.  The *executor* (a
    :class:`~repro.explore.executor.QueryExecutor`) is imported lazily to
    avoid a circular import; when *cache* (an
    :class:`~repro.explore.cache.ExecutionCache`) is given and no executor
    is supplied, the replay reuses memoised results, which makes repeated
    replays of overlapping operation lists nearly free.
    """
    if executor is None:
        from .executor import QueryExecutor

        executor = QueryExecutor(cache=cache)
    session = ExplorationSession(dataset)
    for operation in operations:
        if isinstance(operation, BackOperation):
            session.go_back(operation.steps)
        else:
            session.apply(operation, executor)
    return session


__all__ = [
    "ExplorationSession",
    "PreorderIndex",
    "SessionNode",
    "session_from_operations",
    "FilterOperation",
    "GroupAggOperation",
    "BackOperation",
]
