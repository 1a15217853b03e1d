"""LDX-compliance reward scheme (Section 5.2 and Appendix A.3).

Two signals are combined:

* an **end-of-session** conditional reward (Algorithm 2): a high positive
  reward for fully compliant sessions, a fixed penalty for sessions that
  violate the structural specifications, and a graded non-negative reward
  proportional to the number of satisfied operational parameters otherwise;
* an **immediate** per-operation reward that penalises, in real time,
  operations after which no completion of the ongoing session can satisfy
  the structural specifications.

The bi-objective step reward of the CDRL MDP is
``alpha * R_gen + beta * R_comp`` where ``R_comp`` combines the two signals
with weights ``gamma`` (end of session) and ``delta`` (immediate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.explore.environment import GenericRewardStrategy
from repro.explore.operations import Operation, is_query_operation
from repro.explore.reward import GenericRewardConfig
from repro.explore.session import ExplorationSession, SessionNode
from repro.ldx.ast import LdxQuery
from repro.ldx.verifier import LdxMatcher


@dataclass(frozen=True)
class ComplianceRewardConfig:
    """Weights and magnitudes of the compliance reward scheme."""

    # Bi-objective mixing (Section 5.1): R = alpha * R_gen + beta * R_comp.
    alpha: float = 0.3
    beta: float = 1.0
    # R_comp internal mixing: gamma * EOS + delta * IMM.
    gamma: float = 1.0
    delta: float = 0.5
    # Algorithm 2 magnitudes.
    full_compliance_reward: float = 10.0
    structural_violation_penalty: float = -5.0
    operational_reward_scale: float = 4.0
    # Immediate reward.
    immediate_violation_penalty: float = -2.0
    immediate_min_step: int = 3
    immediate_max_completions: int = 256
    # Binary (ablation) mode magnitudes.
    binary_positive: float = 10.0
    binary_negative: float = -5.0


def end_of_session_reward(
    session: ExplorationSession,
    query: LdxQuery,
    config: ComplianceRewardConfig,
    graded: bool = True,
    matcher: Optional[LdxMatcher] = None,
) -> float:
    """Algorithm 2: the conditional end-of-session compliance reward.

    With ``graded=False`` the reward degenerates to the naive binary signal
    used by the ablation baseline (positive iff fully compliant).  In graded
    mode the structural-violation penalty is softened proportionally to the
    fraction of the required structure that is already realised, which keeps
    the "structure first" learning signal dense on small training budgets.
    *matcher* is a matcher for *query* to reuse; a private one is built
    when omitted.
    """
    matcher = matcher or LdxMatcher(query)
    tree = session.root
    if matcher.verify(tree):
        return config.full_compliance_reward if graded else config.binary_positive
    if not graded:
        return config.binary_negative
    if not matcher.verify_structure(tree):
        progress = matcher.partial_structural_ratio(tree)
        return config.structural_violation_penalty * (1.0 - progress)
    ratio = matcher.operational_match_ratio(tree)
    return config.operational_reward_scale * ratio


def immediate_reward(
    session: ExplorationSession,
    query: LdxQuery,
    step_index: int,
    episode_length: int,
    config: ComplianceRewardConfig,
    matcher: Optional[LdxMatcher] = None,
) -> float:
    """Immediate per-operation reward: penalise steps that doom structural compliance.

    Feasibility is memoised by *matcher* per (tree shape, remaining steps,
    completion budget), across steps and episodes.
    """
    if step_index < config.immediate_min_step:
        return 0.0
    remaining = max(0, episode_length - step_index)
    feasible = (matcher or LdxMatcher(query)).can_still_comply(
        session.root, remaining, config.immediate_max_completions
    )
    return 0.0 if feasible else config.immediate_violation_penalty


class ComplianceRewardStrategy:
    """The CDRL reward strategy: generic exploration reward + compliance scheme.

    Parameters mirror the ablation study of Section 7.4:

    * ``graded_eos=False`` → the naive *Binary Reward Only* end-of-session
      signal;
    * ``use_immediate=False`` → drop the per-operation look-ahead penalty.
    """

    def __init__(
        self,
        query: LdxQuery,
        episode_length: int,
        config: ComplianceRewardConfig | None = None,
        generic_config: GenericRewardConfig | None = None,
        graded_eos: bool = True,
        use_immediate: bool = True,
        matcher: Optional[LdxMatcher] = None,
    ):
        self.query = query
        self.episode_length = episode_length
        self.config = config or ComplianceRewardConfig()
        self.generic = GenericRewardStrategy(generic_config)
        self.graded_eos = graded_eos
        self.use_immediate = use_immediate
        self._step_index = 0
        # The matcher memoises structural answers per tree shape across
        # episodes (and, when the caller passes a pooled one, across requests).
        self.matcher = matcher if matcher is not None else LdxMatcher(query)

    # -- RewardStrategy protocol -----------------------------------------------------------
    def on_step(
        self,
        session: ExplorationSession,
        node: Optional[SessionNode],
        operation: Operation,
        valid: bool,
    ) -> float:
        # Detect a fresh episode (the environment resets the session object).
        if session.steps_taken <= 1:
            self._step_index = 0
        self._step_index += 1
        generic = self.generic.on_step(session, node, operation, valid)
        compliance = 0.0
        if self.use_immediate and valid and is_query_operation(operation):
            compliance = self.config.delta * immediate_reward(
                session,
                self.query,
                self._step_index,
                self.episode_length,
                self.config,
                matcher=self.matcher,
            )
        return self.config.alpha * generic + self.config.beta * compliance

    def on_episode_end(self, session: ExplorationSession) -> float:
        eos = end_of_session_reward(
            session, self.query, self.config, graded=self.graded_eos, matcher=self.matcher
        )
        return self.config.beta * self.config.gamma * eos
