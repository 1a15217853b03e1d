"""Serializable explore results with per-stage status, timings and telemetry.

Following the enrichment pattern of staged extraction pipelines, a single
:class:`ExploreResult` is built up stage by stage: every stage only *adds*
fields and flips its own :class:`StageStatus` from ``pending`` to
``complete`` / ``failed`` / ``skipped``.  All compared fields are JSON-native
(strings, numbers, bools, lists, dicts), so

>>> ExploreResult.from_dict(json.loads(json.dumps(result.to_dict()))) == result

holds losslessly and results can be served, stored and replayed.  Live
objects (the session tree, the notebook, the parsed query) ride along in
:class:`EngineArtifacts`, which is excluded from comparison and from the
wire format.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro.explore.operations import Operation, operation_from_signature
from repro.explore.session import ExplorationSession, session_from_operations
from repro.ldx.ast import LdxQuery
from repro.notebook.insights import Insight
from repro.notebook.render import Notebook

from .errors import FieldError, RequestValidationError

#: Version of the result wire format (bump on incompatible changes).
#: 1.1 added ``stage_names`` (which registered implementation ran each
#: stage); 1.0 payloads (which simply lack the field) are still accepted.
RESULT_SCHEMA_VERSION = "1.1"

#: Version of what identical requests *produce* under identical engine
#: configuration.  It is part of :meth:`LinxEngine.config_fingerprint`, the
#: result-store namespace, so bumping it stops every replica from serving
#: rows computed by older code.  Bump it whenever a kernel change may alter
#: any bit of a served payload, even when the payload format is unchanged.
#: 2: fused per-head decision kernel (segment sums change the last bits of
#: probabilities and gradients); diversity sums in column order.
RESULT_SEMANTICS_VERSION = 2

#: Result wire-format versions this build can parse.
SUPPORTED_RESULT_VERSIONS = ("1.0", "1.1")

#: Stage names, in pipeline order.
STAGE_DERIVE = "derive_spec"
STAGE_GENERATE = "generate_session"
STAGE_RENDER = "render_notebook"
STAGE_INSIGHTS = "extract_insights"
STAGE_ORDER: tuple[str, ...] = (
    STAGE_DERIVE,
    STAGE_GENERATE,
    STAGE_RENDER,
    STAGE_INSIGHTS,
)

STATUS_PENDING = "pending"
STATUS_COMPLETE = "complete"
STATUS_FAILED = "failed"
STATUS_SKIPPED = "skipped"
STATUS_CANCELLED = "cancelled"


@dataclass
class StageStatus:
    """Completion status of one pipeline stage.

    ``seconds`` (wall-clock duration) is serialized but excluded from
    equality: two semantically identical results stay equal across runs.
    """

    name: str
    status: str = STATUS_PENDING
    detail: str = ""
    seconds: float = field(default=0.0, compare=False)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "status": self.status,
            "detail": self.detail,
            "seconds": self.seconds,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "StageStatus":
        return cls(
            name=payload["name"],
            status=payload.get("status", STATUS_PENDING),
            detail=payload.get("detail", ""),
            seconds=payload.get("seconds", 0.0),
        )


@dataclass
class EngineArtifacts:
    """Live (non-serializable) objects produced alongside a result."""

    session: Optional[ExplorationSession] = None
    notebook: Optional[Notebook] = None
    query: Optional[LdxQuery] = None
    insights: list[Insight] = field(default_factory=list)


@dataclass
class ExploreResult:
    """Everything the engine produced for one request, as plain data.

    The compared fields are all JSON-native so the result round-trips
    through ``to_dict()`` / ``from_dict()`` without loss.  ``cache_stats``
    (per-request execution-cache deltas — load dependent) and per-stage
    ``seconds`` are serialized but excluded from equality.
    """

    request: dict[str, Any]
    dataset_name: str = ""
    goal: str = ""
    ldx_text: str = ""
    derivation_fallback: bool = False
    fully_compliant: bool = False
    structurally_compliant: bool = False
    utility_score: float = 0.0
    episodes_trained: int = 0
    #: Flat operation trace (positional signatures, back moves included);
    #: enough to re-materialise the session tree against the dataset.
    operations: list[list[str]] = field(default_factory=list)
    notebook_markdown: str = ""
    insights: list[dict[str, Any]] = field(default_factory=list)
    stages: list[StageStatus] = field(default_factory=list)
    #: Which registered implementation ran each stage (stage name →
    #: implementation name), so served results record e.g. that the
    #: ``atena`` generator produced this session.
    stage_names: dict[str, str] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    cache_stats: Optional[dict[str, Any]] = field(default=None, compare=False)
    schema_version: str = RESULT_SCHEMA_VERSION
    #: Live objects for in-process callers; never serialized, never compared.
    artifacts: Optional[EngineArtifacts] = field(default=None, compare=False, repr=False)

    # -- stage bookkeeping -----------------------------------------------------------
    def stage(self, name: str) -> StageStatus:
        """The status record of stage *name* (created on first access)."""
        for status in self.stages:
            if status.name == name:
                return status
        status = StageStatus(name=name)
        self.stages.append(status)
        return status

    def stage_status(self, name: str) -> str:
        return self.stage(name).status

    # -- session re-materialisation --------------------------------------------------
    def operation_list(self) -> list[Operation]:
        """The operation trace as live :class:`Operation` objects."""
        return [operation_from_signature(signature) for signature in self.operations]

    def rebuild_session(self, dataset) -> ExplorationSession:
        """Replay the operation trace against *dataset* into a session tree.

        This is how a serving tier turns a stored result back into a live
        session (for re-rendering, verification or insight re-extraction).
        """
        return session_from_operations(dataset, self.operation_list())

    # -- serialization ---------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """A JSON-native dict representation (inverse of :meth:`from_dict`)."""
        return {
            "schema_version": self.schema_version,
            "request": dict(self.request),
            "dataset_name": self.dataset_name,
            "goal": self.goal,
            "ldx_text": self.ldx_text,
            "derivation_fallback": self.derivation_fallback,
            "fully_compliant": self.fully_compliant,
            "structurally_compliant": self.structurally_compliant,
            "utility_score": self.utility_score,
            "episodes_trained": self.episodes_trained,
            "operations": [list(signature) for signature in self.operations],
            "notebook_markdown": self.notebook_markdown,
            "insights": [dict(insight) for insight in self.insights],
            "stages": [status.to_dict() for status in self.stages],
            "stage_names": dict(self.stage_names),
            "warnings": list(self.warnings),
            "cache_stats": dict(self.cache_stats) if self.cache_stats is not None else None,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExploreResult":
        """Rebuild a result from :meth:`to_dict` output (artifacts stay ``None``)."""
        if not isinstance(payload, Mapping):
            raise RequestValidationError(
                [FieldError("result", f"expected an object, got {type(payload).__name__}")]
            )
        unknown = sorted(set(payload) - _RESULT_FIELDS)
        if unknown:
            raise RequestValidationError(
                [FieldError(name, "unknown result field") for name in unknown]
            )
        version = payload.get("schema_version", RESULT_SCHEMA_VERSION)
        if version not in SUPPORTED_RESULT_VERSIONS:
            raise RequestValidationError(
                [
                    FieldError(
                        "schema_version",
                        f"unsupported version {version!r}; "
                        f"supported: {list(SUPPORTED_RESULT_VERSIONS)}",
                    )
                ]
            )
        return cls(
            schema_version=version,
            request=dict(payload.get("request", {})),
            dataset_name=payload.get("dataset_name", ""),
            goal=payload.get("goal", ""),
            ldx_text=payload.get("ldx_text", ""),
            derivation_fallback=payload.get("derivation_fallback", False),
            fully_compliant=payload.get("fully_compliant", False),
            structurally_compliant=payload.get("structurally_compliant", False),
            utility_score=payload.get("utility_score", 0.0),
            episodes_trained=payload.get("episodes_trained", 0),
            operations=[list(signature) for signature in payload.get("operations", [])],
            notebook_markdown=payload.get("notebook_markdown", ""),
            insights=[dict(insight) for insight in payload.get("insights", [])],
            stages=[StageStatus.from_dict(status) for status in payload.get("stages", [])],
            stage_names=dict(payload.get("stage_names", {})),
            warnings=list(payload.get("warnings", [])),
            cache_stats=(
                dict(payload["cache_stats"])
                if payload.get("cache_stats") is not None
                else None
            ),
        )


#: Keys of the result wire format; unknown keys are rejected by
#: :meth:`ExploreResult.from_dict` (they usually indicate a schema mismatch).
_RESULT_FIELDS = frozenset(
    {
        "schema_version",
        "request",
        "dataset_name",
        "goal",
        "ldx_text",
        "derivation_fallback",
        "fully_compliant",
        "structurally_compliant",
        "utility_score",
        "episodes_trained",
        "operations",
        "notebook_markdown",
        "insights",
        "stages",
        "stage_names",
        "warnings",
        "cache_stats",
    }
)


def insight_to_dict(insight: Insight) -> dict[str, Any]:
    """JSON-native rendering of one extracted insight."""
    return {
        "text": insight.text,
        "kind": insight.kind,
        "source_nodes": list(insight.source_nodes),
        "strength": insight.strength,
    }
