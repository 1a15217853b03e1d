"""Session-level compliance and relevance metrics used by the study harness."""

from __future__ import annotations

from dataclasses import dataclass

from repro.explore.session import ExplorationSession
from repro.ldx.ast import LdxQuery
from repro.ldx.verifier import LdxMatcher


@dataclass(frozen=True)
class ComplianceReport:
    """Compliance facts about one generated session with respect to a gold query."""

    fully_compliant: bool
    structurally_compliant: bool
    operational_ratio: float
    structural_ratio: float

    def relevance_score(self) -> float:
        """A [0, 1] relevance proxy combining structure and operations.

        Full compliance scores 1; otherwise the score interpolates between
        structural progress (weight 0.4) and operational satisfaction
        (weight 0.6, only available once structure holds).
        """
        if self.fully_compliant:
            return 1.0
        if self.structurally_compliant:
            return 0.4 + 0.6 * self.operational_ratio
        return 0.4 * self.structural_ratio


def compliance_report(session: ExplorationSession, query: LdxQuery) -> ComplianceReport:
    """Evaluate *session* against *query* and return a :class:`ComplianceReport`."""
    matcher = LdxMatcher(query)
    tree = session.root
    structural = matcher.verify_structure(tree)
    return ComplianceReport(
        fully_compliant=matcher.verify(tree),
        structurally_compliant=structural,
        operational_ratio=matcher.operational_match_ratio(tree) if structural else 0.0,
        structural_ratio=matcher.partial_structural_ratio(tree),
    )
