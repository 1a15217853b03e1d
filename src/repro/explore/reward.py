"""The generic (goal-agnostic) exploration reward ``R_gen``.

Following ATENA [6] and Section 5.1 of the LINX paper, the generic reward of
a step is a weighted sum of the interestingness of the session's queries and
the diversity of the newest query with respect to all previous queries::

    R_gen(S_i, a) = mu * sum_{j<=i} Interestingness(q_j) + lambda * Diversity(S_i)

Interestingness uses KL divergence for filters and conciseness for group-bys;
diversity is the minimal result distance to any previous query.

Because the step reward re-scores *every* node of the growing session on
every step — and training revisits the same views across thousands of
episodes — per-node interestingness is memoised by the content fingerprints
of the parent and result views (see :mod:`repro.explore.cache`).  Views
served from the execution cache share fingerprints, so repeated episodes
score in O(1) per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .diversity import result_distance
from .interestingness import operation_interestingness
from .operations import is_query_operation
from .session import ExplorationSession, SessionNode


@dataclass(frozen=True)
class GenericRewardConfig:
    """Weights of the generic exploration reward."""

    interestingness_weight: float = 1.0  # mu
    diversity_weight: float = 0.5  # lambda
    invalid_action_penalty: float = -1.0
    empty_result_penalty: float = -0.5
    back_action_reward: float = 0.0


#: Sentinel distinguishing "absent" from a memoised 0.0 score.
_MISSING = object()

#: Interestingness memo bound; the memo is cleared wholesale when exceeded.
_INTEREST_MEMO_MAX = 65536

#: Pairwise result-distance memo bound (cleared wholesale when exceeded).
_DISTANCE_MEMO_MAX = 65536


class GenericExplorationReward:
    """Computes the ATENA-style generic exploration reward for session steps.

    Both score components are memoised by content fingerprints — per-node
    interestingness and the pairwise result distances behind the diversity
    term — because training revisits the same (execution-cache-shared)
    views thousands of times.  The scorer itself is stateless apart from
    these pure memos, so one instance can be shared across the sibling
    environments of a batched rollout wave, or across requests.  ``memo``
    builds the two memo dicts; the exploration context passes one that
    charges its engine-wide entry budget.
    """

    def __init__(
        self,
        config: GenericRewardConfig | None = None,
        memo: Callable[[], dict] = dict,
    ):
        self.config = config or GenericRewardConfig()
        self._interest_memo: dict[tuple, float] = memo()
        self._distance_memo: dict[tuple, float] = memo()

    def node_interestingness(self, node: SessionNode) -> float:
        """Interestingness of a single executed query node (memoised).

        The score is a pure function of the operation kind and the parent and
        result view contents, so it is memoised by their fingerprints.
        """
        if node.is_root or node.parent is None:
            return 0.0
        key = (
            node.operation.kind,
            node.parent.view.fingerprint(),
            node.view.fingerprint(),
        )
        value = self._interest_memo.get(key, _MISSING)
        if value is _MISSING:
            value = operation_interestingness(
                node.operation.kind, node.parent.view, node.view
            )
            if len(self._interest_memo) >= _INTEREST_MEMO_MAX:
                self._interest_memo.clear()
            self._interest_memo[key] = value
        return value

    def _view_distance(self, a, b) -> float:
        """Memoised :func:`result_distance` (symmetric, fingerprint-keyed)."""
        fa, fb = a.fingerprint(), b.fingerprint()
        key = (fa, fb) if fa <= fb else (fb, fa)
        value = self._distance_memo.get(key, _MISSING)
        if value is _MISSING:
            value = result_distance(a, b)
            if len(self._distance_memo) >= _DISTANCE_MEMO_MAX:
                self._distance_memo.clear()
            self._distance_memo[key] = value
        return value

    def _diversity(self, new_view, previous_views) -> float:
        """The session-diversity term with memoised pairwise distances."""
        if not previous_views:
            return 1.0
        return min(self._view_distance(new_view, view) for view in previous_views)

    def step_reward(self, session: ExplorationSession, node: SessionNode) -> float:
        """Reward for the step that produced *node* (the newest query)."""
        if not is_query_operation(node.operation):
            return self.config.back_action_reward
        if len(node.view) == 0:
            return self.config.empty_result_penalty
        cumulative_interest = sum(
            self.node_interestingness(existing) for existing in session.query_nodes()
        )
        previous_views = [n.view for n in session.query_nodes() if n is not node]
        diversity = self._diversity(node.view, previous_views)
        return (
            self.config.interestingness_weight * cumulative_interest / max(1, session.num_queries())
            + self.config.diversity_weight * diversity
        )

    def session_score(self, session: ExplorationSession) -> float:
        """Utility score ``U(T_D)`` of a full session: mean interestingness + mean diversity."""
        nodes = session.query_nodes()
        if not nodes:
            return 0.0
        interest = sum(self.node_interestingness(node) for node in nodes) / len(nodes)
        diversity_terms = []
        seen_views = []
        for node in nodes:
            diversity_terms.append(self._diversity(node.view, seen_views))
            seen_views.append(node.view)
        diversity = sum(diversity_terms) / len(diversity_terms)
        return (
            self.config.interestingness_weight * interest
            + self.config.diversity_weight * diversity
        )
