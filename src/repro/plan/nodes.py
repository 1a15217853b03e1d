"""Logical-plan nodes: the canonical relational form of exploration pipelines.

An exploration pipeline — the path of operations from the session root to
one view — is *syntactic*: ``filter A → filter B`` and ``filter B →
filter A`` are different operation lists that denote the same relation.
This module gives pipelines a relational form: a :class:`LogicalPlan` is
the ordered tuple of filter and group-by nodes that
:meth:`repro.explore.executor.QueryExecutor.execute_step` builds for one
session node, and :func:`repro.plan.builder.canonicalize` reduces its many
surface orderings to one normal form whose :meth:`LogicalPlan.fingerprint`
keys the execution cache.  Back and root operations never become nodes: the
session resolves them by moving to an existing node, whose plan is reused.

Nodes are immutable value objects whose ``signature()`` matches the
corresponding :meth:`repro.explore.operations.Operation.signature` exactly,
so plan fingerprints and operation signatures hash the same field values.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any

from repro.dataframe.aggregates import canonical_agg
from repro.dataframe.expressions import canonical_operator
from repro.explore.operations import KIND_FILTER, KIND_GROUP


@dataclass(frozen=True)
class PlanNode:
    """Base class of logical-plan nodes."""

    @property
    def kind(self) -> str:
        raise NotImplementedError

    def signature(self) -> tuple[str, ...]:
        """Positional field tuple; identical to the mirrored operation's."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def encoded(self) -> bytes:
        """The node's part of a plan fingerprint: its signature, length-prefixed.

        Computed once per node (nodes are immutable and shared by every
        plan extending a prefix), so a new plan's fingerprint joins cached
        parts and hashes once.
        """
        cached = self.__dict__.get("_encoded")
        if cached is None:
            signature = self.signature()
            parts = [b"N%d:" % len(signature)]
            for field in signature:
                raw = str(field).encode("utf-8")
                parts.append(b"%d:%s" % (len(raw), raw))
            cached = b"".join(parts)
            # Frozen dataclasses only guard __setattr__; the instance dict
            # is writable and not part of equality.
            self.__dict__["_encoded"] = cached
        return cached


@dataclass(frozen=True)
class FilterNode(PlanNode):
    """Keep the rows where ``attr <op> term`` (mirrors ``FilterOperation``)."""

    attr: str
    op: str
    term: Any

    def __post_init__(self) -> None:
        # Same normalisation as FilterOperation: aliases like "==" must not
        # fork the fingerprint space.
        object.__setattr__(self, "op", canonical_operator(self.op))

    @property
    def kind(self) -> str:
        return KIND_FILTER

    def signature(self) -> tuple[str, ...]:
        return (KIND_FILTER, str(self.attr), str(self.op), str(self.term))

    def describe(self) -> str:
        return f"FILTER {self.attr} {self.op} {self.term}"


@dataclass(frozen=True)
class GroupNode(PlanNode):
    """Group by ``group_attr``, aggregate ``agg_attr`` with ``agg_func``."""

    group_attr: str
    agg_func: str
    agg_attr: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "agg_func", canonical_agg(self.agg_func))

    @property
    def kind(self) -> str:
        return KIND_GROUP

    def signature(self) -> tuple[str, ...]:
        return (KIND_GROUP, str(self.group_attr), str(self.agg_func), str(self.agg_attr))

    def describe(self) -> str:
        return f"GROUP {self.group_attr} {self.agg_func}({self.agg_attr})"


@dataclass(frozen=True)
class LogicalPlan:
    """An ordered pipeline of plan nodes applied to one base table.

    Plans are immutable; :meth:`extend` returns a new plan.  The
    :meth:`fingerprint` of a *canonical* plan (see
    :func:`repro.plan.builder.canonicalize`) is the semantic cache key:
    every surface ordering that canonicalizes to the same plan shares it.
    """

    steps: tuple[PlanNode, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def extend(self, node: PlanNode) -> "LogicalPlan":
        """A new plan with *node* appended."""
        return LogicalPlan(self.steps + (node,))

    def fingerprint(self) -> str:
        """Stable blake2b digest over the type-tagged node signatures.

        Computed once per instance (plans are immutable) by joining the
        nodes' cached length-prefixed encodings (:meth:`PlanNode.encoded`)
        and hashing them in one call, so the key is canonical across
        processes — no reliance on ``repr`` or pickle memoisation.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            encoding = b"".join([node.encoded() for node in self.steps])
            cached = hashlib.blake2b(encoding, digest_size=20).hexdigest()
            self.__dict__["_fingerprint"] = cached
        return cached

    def describe(self) -> str:
        """Human-readable one-liner, e.g. for notebook and log rendering."""
        if not self.steps:
            return "ROOT"
        return " -> ".join(node.describe() for node in self.steps)

    def __repr__(self) -> str:
        return f"LogicalPlan({self.describe()!r})"

