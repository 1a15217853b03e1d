"""The generic (goal-agnostic) exploration reward ``R_gen``.

Following ATENA [6] and Section 5.1 of the LINX paper, the generic reward of
a step is a weighted sum of the interestingness of the session's queries and
the diversity of the newest query with respect to all previous queries::

    R_gen(S_i, a) = mu * sum_{j<=i} Interestingness(q_j) + lambda * Diversity(S_i)

Interestingness uses KL divergence for filters and conciseness for group-bys;
diversity is the minimal result distance to any previous query.

A node's terms are computed once per session and recorded in the session's
pre-order index (:class:`~repro.explore.session.PreorderIndex`), so a step
scores only the new node.  Training revisits the same views across
thousands of episodes, so interestingness, view summaries and pairwise result
distances are also memoised by view content fingerprints (see
:mod:`repro.explore.cache`); views served from the execution cache share them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .diversity import ViewSummary, summarize, summary_distance
from .interestingness import operation_interestingness
from .operations import is_query_operation
from .session import ExplorationSession, PreorderIndex, SessionNode


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

#: Bound of the pairwise result-distance memo and of the view-summary memo
#: (each cleared wholesale when exceeded).
_DISTANCE_MEMO_MAX = 65536


class GenericExplorationReward:
    """Computes the ATENA-style generic exploration reward for session steps.

    Both score components are memoised by content fingerprints — per-node
    interestingness, and the pairwise result distances behind the diversity
    term with one distance summary per view — because training revisits the
    same (execution-cache-shared) views thousands of times.  The scorer
    itself is stateless apart from these pure memos, so one instance can be
    shared across the sibling environments of a batched rollout wave, or
    across requests.  ``memo`` builds the three memo dicts; the exploration
    context passes one that charges its engine-wide entry budget.
    """

    def __init__(
        self,
        config: GenericRewardConfig | None = None,
        memo: Callable[[], dict] = dict,
    ):
        self.config = config or GenericRewardConfig()
        self._interest_memo: dict[tuple, float] = memo()
        self._distance_memo: dict[tuple, float] = memo()
        self._summary_memo: dict[tuple, ViewSummary] = memo()

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

    def _summary(self, view, fingerprint: tuple) -> ViewSummary:
        """The memoised :func:`summarize` of *view*, keyed by its fingerprint."""
        summary = self._summary_memo.get(fingerprint)
        if summary is None:
            summary = summarize(view)
            if len(self._summary_memo) >= _DISTANCE_MEMO_MAX:
                self._summary_memo.clear()
            self._summary_memo[fingerprint] = summary
        return summary

    def _view_distance(self, a, b) -> float:
        """Memoised :func:`summary_distance` (symmetric, fingerprint-keyed)."""
        fa, fb = a.fingerprint(), b.fingerprint()
        key = (fa, fb) if fa <= fb else (fb, fa)
        value = self._distance_memo.get(key, _MISSING)
        if value is _MISSING:
            value = summary_distance(self._summary(a, fa), self._summary(b, fb))
            if len(self._distance_memo) >= _DISTANCE_MEMO_MAX:
                self._distance_memo.clear()
            self._distance_memo[key] = value
        return value

    def _diversity(self, new_view, previous_views) -> float:
        """The session-diversity term with memoised pairwise distances."""
        if not previous_views:
            return 1.0
        return min(self._view_distance(new_view, view) for view in previous_views)

    def _interest_terms(self, index: PreorderIndex) -> list[float]:
        """The index's interestingness terms, after scoring the nodes not scored yet."""
        terms, nodes = index.interest, index.nodes
        for position in range(len(terms) + 1, len(nodes)):
            terms.append(self.node_interestingness(nodes[position]))
        return terms

    def step_reward(self, session: ExplorationSession, node: SessionNode) -> float:
        """Reward for the step that produced *node*, the session's newest query."""
        if not is_query_operation(node.operation):
            return self.config.back_action_reward
        if len(node.view) == 0:
            return self.config.empty_result_penalty
        index = session.index
        interest = self._interest_terms(index)
        # ``sum`` over the list, never a running total: Python 3.12's float
        # ``sum`` is compensated, so only a sum of the same list in the same
        # order gives the same bits.
        cumulative_interest = sum(interest)
        previous_views = [n.view for n in index.nodes[1 : node.position]]
        diversity = index.diversity[node.position - 1] = self._diversity(
            node.view, previous_views
        )
        return (
            self.config.interestingness_weight * cumulative_interest / max(1, len(interest))
            + self.config.diversity_weight * diversity
        )

    def session_score(self, session: ExplorationSession) -> float:
        """Utility score ``U(T_D)`` of a full session: mean interestingness + mean diversity.

        Terms the step rewards recorded are reused; the rest are computed
        and recorded now.
        """
        index = session.index
        interest = self._interest_terms(index)
        if not interest:
            return 0.0
        nodes, diversity_terms = index.nodes, index.diversity
        for position, term in enumerate(diversity_terms, start=1):
            if term is None:
                diversity_terms[position - 1] = self._diversity(
                    nodes[position].view, [n.view for n in nodes[1:position]]
                )
        interest_mean = sum(interest) / len(interest)
        diversity = sum(diversity_terms) / len(diversity_terms)
        return (
            self.config.interestingness_weight * interest_mean
            + self.config.diversity_weight * diversity
        )
