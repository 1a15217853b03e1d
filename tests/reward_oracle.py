"""The tree-walking generic reward reference.

Production scoring (:class:`repro.explore.reward.GenericExplorationReward`)
reads the session's pre-order index and computes each node's terms once per
session.  This module scores the naive way: every call walks the session
tree in pre-order, re-sums every node's interestingness and rescans every
earlier view.  It goes through the same scorer's memoised
``node_interestingness`` and ``_diversity``, so with one scorer both sides
see the same per-node values and must agree bit for bit.
"""

from __future__ import annotations

from repro.explore.operations import is_query_operation
from repro.explore.reward import GenericExplorationReward
from repro.explore.session import ExplorationSession, SessionNode


def query_nodes(session: ExplorationSession) -> list[SessionNode]:
    """Every non-root node, by a pre-order walk of the tree."""
    return [node for node in session.root.preorder() if not node.is_root]


def step_reward(
    scorer: GenericExplorationReward, session: ExplorationSession, node: SessionNode
) -> float:
    """Reward for the step that produced *node* (the newest query)."""
    if not is_query_operation(node.operation):
        return scorer.config.back_action_reward
    if len(node.view) == 0:
        return scorer.config.empty_result_penalty
    nodes = query_nodes(session)
    cumulative_interest = sum(scorer.node_interestingness(existing) for existing in nodes)
    previous_views = [n.view for n in nodes if n is not node]
    diversity = scorer._diversity(node.view, previous_views)
    return (
        scorer.config.interestingness_weight * cumulative_interest / max(1, len(nodes))
        + scorer.config.diversity_weight * diversity
    )


def session_score(scorer: GenericExplorationReward, session: ExplorationSession) -> float:
    """Utility score ``U(T_D)``: mean interestingness + mean diversity."""
    nodes = query_nodes(session)
    if not nodes:
        return 0.0
    interest = sum(scorer.node_interestingness(node) for node in nodes) / len(nodes)
    diversity_terms = []
    seen_views = []
    for node in nodes:
        diversity_terms.append(scorer._diversity(node.view, seen_views))
        seen_views.append(node.view)
    diversity = sum(diversity_terms) / len(diversity_terms)
    return (
        scorer.config.interestingness_weight * interest
        + scorer.config.diversity_weight * diversity
    )
