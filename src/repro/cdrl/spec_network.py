"""The specification-aware policy (Section 5.3, Figure 2).

The network derives part of its structure from the LDX specifications:

* an extra value in the operation-type head — the high-level **snippet**
  action;
* a **snippet-selection** head ``sigma_snp`` with one entry per snippet
  derived from the operational specifications;
* a per-state **guidance mechanism** implementing the paper's description of
  the constrained-DRL-inspired design: "rather than overriding actions
  externally, we encourage the agent to perform compliant queries by
  dynamically shifting the action distribution probabilities toward queries
  that are more likely to be included in a specifications-compliant
  exploration session".  Concretely, using the (relaxed) LDX matcher over the
  ongoing session the policy determines which specification node should be
  realised next, biases the operation-type head toward *operating* vs
  *backing up*, biases the snippet head toward snippets derived from that
  specification, and biases the free-parameter heads toward values that are
  consistent with already-bound continuity variables.

The guidance reads the session of the environment each decision is taken
for (:meth:`SpecificationAwarePolicy.decision_biases` receives it).  It is a
pure function of (specification, dataset, session-tree shape), so the
complete per-state bias row — guidance plus folded validity masks, one
read-only :class:`~repro.rl.policy.BiasRow` — is memoised under a compact
state key.  A miss finds it under what many states share: the guidance key
(the pending specification node, whether the cursor is at the node it
belongs under and, only there, the continuity bindings) and the columns the
view's masks rule out (memoised per view schema).  The memos belong to the engine's exploration context (:mod:`repro.cdrl.context`),
not to the policy or the batcher, so every request on the same
(specification, dataset) shares them, batched or not.

A snippet choice is resolved back into a fully factored
:class:`~repro.explore.action_space.ActionChoice`, so the environment and the
trainer stay unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional

import numpy as np

from repro.explore.action_space import ActionChoice, ActionSpace, HEAD_ORDER
from repro.ldx.ast import LdxQuery
from repro.ldx.patterns import FIELD_CONTINUITY, OperationPattern
from repro.ldx.verifier import LdxMatcher
from repro.rl.network import MultiHeadPolicyNetwork
from repro.rl.policy import BiasRow, CategoricalPolicy

from .snippets import FILTER_ROLES, GROUP_ROLES, SnippetLibrary

if TYPE_CHECKING:
    from repro.explore.environment import ExplorationEnvironment
    from repro.explore.session import ExplorationSession

#: Index of the extra "snippet" entry in the extended operation-type head.
SNIPPET_ACTION_INDEX = 3

#: Name of the snippet-selection head.
SNIPPET_HEAD = "snippet_select"

#: Index of the back action in the operation-type head.
BACK_ACTION_INDEX = 0

#: Head names corresponding to each pattern field role.
_FILTER_ROLE_HEADS = {"attr": "filter_attr", "op": "filter_op", "term": "filter_term"}
_GROUP_ROLE_HEADS = {
    "group_attr": "group_attr",
    "agg_func": "agg_func",
    "agg_attr": "agg_attr",
}


class SpecificationAwarePolicy(CategoricalPolicy):
    """A categorical policy whose head layout and biases derive from the LDX query."""

    def __init__(
        self,
        observation_size: int,
        action_space: ActionSpace,
        query: LdxQuery,
        hidden_sizes: tuple[int, ...] = (64, 64),
        seed: int = 0,
        snippet_bias: float = 2.5,
        parameter_bias: float = 1.0,
        structure_bias: float = 6.0,
        continuity_bias: float = 5.0,
        decision_memo: Optional[dict] = None,
        guidance_memo: Optional[dict] = None,
        matcher: Optional[LdxMatcher] = None,
        mask_invalid_actions: bool = False,
    ):
        self.action_space = action_space
        self.query = query
        #: The LDX matcher behind the guidance (the agent passes its pooled one).
        self.matcher = matcher if matcher is not None else LdxMatcher(query)
        self.library = SnippetLibrary(query, action_space)
        head_sizes = dict(action_space.head_sizes())
        head_sizes["action_type"] = head_sizes["action_type"] + 1  # + snippet action
        head_sizes[SNIPPET_HEAD] = max(1, len(self.library))
        network = MultiHeadPolicyNetwork(
            observation_size=observation_size,
            head_sizes=head_sizes,
            hidden_sizes=hidden_sizes,
            seed=seed,
        )
        self.snippet_bias = snippet_bias
        self.parameter_bias = parameter_bias
        self.structure_bias = structure_bias
        self.continuity_bias = continuity_bias
        self._preferred = self.library.preferred_indices()
        self._named_order = query.preorder_named_nodes()
        self._operational_specs = tuple(query.operational_specs())
        #: Decision memo: the complete per-state bias row (guidance plus
        #: folded validity masks, i.e. what :meth:`decision_biases` returns)
        #: is a pure function of the session's tree structure and cursor
        #: position, and episodes keep revisiting the same states -- every
        #: episode starts from the root state, and invalid steps repeat the
        #: previous one.  :class:`~repro.cdrl.agent.LinxCdrlAgent` passes
        #: the memo its exploration context pools per (specification,
        #: dataset), so every request on the same pair shares the work.
        self._decision_memo: dict[tuple, BiasRow] = (
            {} if decision_memo is None else decision_memo
        )
        #: Guidance memo: the row of a (guidance key, masked columns' bytes)
        #: pair, pooled like the decision memo; many states share each row.
        self._guidance_memo: dict[tuple, BiasRow] = (
            {} if guidance_memo is None else guidance_memo
        )
        # The snippet head is last and never masked, so the masked columns
        # depend on the base heads' sizes only.
        self._base_head_sizes = network.layout.sizes[:-1].tobytes()
        super().__init__(
            network,
            rng=np.random.default_rng(seed),
            mask_invalid_actions=mask_invalid_actions,
        )

    # -- bias computation (once per step) --------------------------------------------------
    @staticmethod
    def _session_state_key(session) -> tuple:
        """Compact key of a guidance state: tree structure plus cursor.

        The signature ``repr`` of every node in pre-order, the pre-order
        child counts and the cursor's position, all read from the session's
        pre-order index.  Counts in pre-order determine the tree, so two
        states share a key exactly when their trees, labels and cursors agree.
        """
        index = session.index
        texts = tuple([node.signature_text for node in index.nodes])
        return texts, index.shape(), session.current.position

    def decision_biases(
        self, environment: "ExplorationEnvironment | None" = None
    ) -> BiasRow:
        """Per-state decision biases (guidance + masks) in *environment*,
        memoised by state.

        The validity masks are a pure function of the current view, which —
        for a fixed dataset — is itself determined by the session's tree
        structure, so the complete row is memoised under the guidance-state
        key.  A miss looks the row up in the guidance memo under the
        state's :meth:`_guidance_key` and the view's :meth:`_masked_columns`,
        so states agreeing on both share one row.  Memoised rows are
        read-only: every request on the same (specification, dataset)
        shares them, and an in-place write raises.
        Without an environment the row holds the static specification
        biases only.
        """
        if environment is None:
            return self._guidance_row(None)
        key = self._session_state_key(environment.session)
        cached = self._decision_memo.get(key)
        if cached is None:
            guidance_key = self._guidance_key(environment.session)
            masked = self._masked_columns(environment) if self.mask_invalid_actions else None
            shared_key = (guidance_key, None if masked is None else masked.tobytes())
            cached = self._guidance_memo.get(shared_key)
            if cached is None:
                cached = self._guidance_memo[shared_key] = self._apply_masks(
                    self._guidance_row(guidance_key), environment
                ).freeze()
            self._decision_memo[key] = cached
        return cached

    def _masked_columns(self, environment: "ExplorationEnvironment") -> np.ndarray:
        """The base policy's masked columns, memoised read-only per (view
        schema, base head sizes) in the action space's fold memo."""
        memo = self.action_space.fold_memo
        key = (environment.session.current.view.schema_key(), self._base_head_sizes)
        masked = memo.get(key)
        if masked is None:
            masked = super()._masked_columns(environment)
            masked.flags.writeable = False
            if len(memo) >= ActionSpace.MASK_MEMO_MAX:
                memo.clear()
            memo[key] = masked
        return masked

    def _guidance_key(self, session: "ExplorationSession") -> Optional[tuple]:
        """All the guidance of *session* depends on: ``None`` when no named
        node is pending, else the pending node's name, whether the cursor is
        at the session node it belongs under and, only there, the continuity
        bindings' sorted items."""
        assignment, _, named = self.matcher.best_partial_structural_assignment(
            session.root
        )
        pending = next(
            (name for name in self._named_order if name not in assignment.nodes), None
        )
        if named == 0 or pending is None:
            return None
        target = self._target_parent_node(pending, assignment)
        if target is None or target is session.current:
            return pending, True, tuple(sorted(self._continuity_bindings(assignment).items()))
        return pending, False, ()

    def _guidance_row(self, key: Optional[tuple]) -> BiasRow:
        """Static specification biases plus the guidance of a guidance key:
        shift distributions toward the specification node that should come next."""
        layout = self.network.layout
        biases = BiasRow.empty(layout)
        action_bias = biases.head(layout, "action_type")
        if len(self.library) > 0:
            action_bias[SNIPPET_ACTION_INDEX] = self.snippet_bias
        for head, indices in self._preferred.items():
            if not indices or head not in layout.slots:
                continue
            bias = biases.head(layout, head)
            for index in indices:
                if index < len(bias):
                    bias[index] = self.parameter_bias
        if key is None:
            return biases
        pending, at_target, bindings = key
        if at_target:
            action_bias[SNIPPET_ACTION_INDEX] += self.structure_bias
            action_bias[BACK_ACTION_INDEX] -= self.structure_bias
            self._bias_toward_spec(pending, dict(bindings), biases)
        else:
            action_bias[BACK_ACTION_INDEX] += self.structure_bias
            action_bias[SNIPPET_ACTION_INDEX] -= self.structure_bias
        return biases

    # -- guidance helpers -------------------------------------------------------------------
    def _declared_parent(self, name: str) -> Optional[str]:
        for spec in self.query.specs:
            for clause in spec.structure:
                if name in clause.named:
                    return spec.name
        return None

    def _target_parent_node(self, pending_name: str, assignment):
        """The session node under which the pending specification node belongs."""
        parent_name = self._declared_parent(pending_name)
        while parent_name is not None and parent_name not in assignment.nodes:
            parent_name = self._declared_parent(parent_name)
        return assignment.nodes.get(parent_name or self.query.root_name())

    def _continuity_bindings(self, assignment) -> dict[str, str]:
        """Continuity values pinned down by realised specification nodes."""
        bindings: dict[str, str] = {}
        for spec in self._operational_specs:
            node = assignment.nodes.get(spec.name)
            if node is None:
                continue
            signature = _node_signature(node)
            # Bound variables are checked against *bindings* itself, which is
            # what substituting them into the pattern would do.
            if spec.operation.matches(signature, bindings):
                bindings.update(spec.operation.capture(signature, bindings))
        return bindings

    def _bias_toward_spec(
        self,
        name: str,
        bindings: Mapping[str, str],
        biases: BiasRow,
    ) -> None:
        """Bias snippet selection and free-parameter heads toward spec node *name*."""
        layout = self.network.layout
        if len(self.library) > 0 and SNIPPET_HEAD in layout.slots:
            snippet_bias = biases.head(layout, SNIPPET_HEAD)
            for index, snippet in enumerate(self.library.snippets):
                if snippet.source_node == name and index < len(snippet_bias):
                    snippet_bias[index] += self.structure_bias
        spec = self.query.spec_for(name)
        if spec is None or spec.operation is None:
            return
        pattern = spec.operation.substitute(bindings)
        role_heads = _FILTER_ROLE_HEADS if pattern.kind == "F" else _GROUP_ROLE_HEADS
        roles = FILTER_ROLES if pattern.kind == "F" else GROUP_ROLES
        for position, role in enumerate(roles):
            head = role_heads[role]
            if head not in layout.slots:
                continue
            index = self._preferred_index_for_field(pattern, position, role)
            if index is None:
                continue
            bias = biases.head(layout, head)
            if index < len(bias):
                bias[index] += self.continuity_bias

    def _preferred_index_for_field(
        self, pattern: OperationPattern, position: int, role: str
    ) -> Optional[int]:
        """Head index pinned by a literal field (including substituted continuity values)."""
        if position >= len(pattern.fields):
            return None
        field = pattern.fields[position]
        if field.kind == FIELD_CONTINUITY or not field.is_specified or "|" in field.value:
            return None
        value = field.value
        space = self.action_space
        if role == "attr":
            return space.index_of_attribute(value) if value in space.attributes else None
        if role == "op":
            return space.index_of_operator(value) if value in space.filter_operators else None
        if role == "term":
            attr_field = pattern.fields[0] if pattern.fields else None
            attr = attr_field.value if attr_field is not None and attr_field.is_specified else None
            if attr is None:
                return None
            return space.index_of_term(attr, value)
        if role == "group_attr":
            return (
                space.index_of_group_attribute(value)
                if value in space.group_attributes
                else None
            )
        if role == "agg_func":
            return space.index_of_agg(value) if value in space.agg_functions else None
        if role == "agg_attr":
            return (
                space.index_of_agg_attribute(value) if value in space.agg_attributes else None
            )
        return None

    # -- decoding ---------------------------------------------------------------------------
    def indices_to_choice(self, indices: dict[str, int]) -> ActionChoice:
        """Map sampled head indices to an executable action choice.

        Non-snippet action types behave exactly as in the base action space;
        the snippet action routes through the snippet library, using the
        sampled parameter heads only for the snippet's free parameters.
        """
        action_type = indices.get("action_type", 0)
        if action_type == SNIPPET_ACTION_INDEX and len(self.library) > 0:
            return self.library.to_action_choice(indices.get(SNIPPET_HEAD, 0), indices)
        base = {name: indices.get(name, 0) for name in HEAD_ORDER}
        base["action_type"] = min(action_type, 2)
        return ActionChoice(**base)


def _node_signature(node) -> tuple[str, ...]:
    label = node.label
    if hasattr(label, "signature"):
        return tuple(str(part) for part in label.signature())
    if isinstance(label, (tuple, list)):
        return tuple(str(part) for part in label)
    return (str(label),)


def build_basic_policy(
    observation_size: int,
    action_space: ActionSpace,
    hidden_sizes: tuple[int, ...] = (64, 64),
    seed: int = 0,
    mask_invalid_actions: bool = False,
) -> CategoricalPolicy:
    """The plain (non specification-aware) policy used by ATENA and the ablations."""
    network = MultiHeadPolicyNetwork(
        observation_size=observation_size,
        head_sizes=action_space.head_sizes(),
        hidden_sizes=hidden_sizes,
        seed=seed,
    )
    return CategoricalPolicy(
        network,
        rng=np.random.default_rng(seed),
        mask_invalid_actions=mask_invalid_actions,
    )
