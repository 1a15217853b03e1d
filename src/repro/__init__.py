"""Reproduction of LINX: a language-driven generative system for goal-oriented
automated data exploration (EDBT 2025).

The package is organised as one sub-package per system (see DESIGN.md):

* :mod:`repro.dataframe` — columnar data engine (pandas substitute),
* :mod:`repro.tregex` — tree pattern matching substrate,
* :mod:`repro.ldx` — the LDX specification language and verification engine,
* :mod:`repro.explore` — the exploration model and ADE environment,
* :mod:`repro.rl` — the policy-gradient learning library,
* :mod:`repro.cdrl` — the constrained DRL engine (LINX's core contribution),
* :mod:`repro.llm` / :mod:`repro.nl2ldx` — specification derivation from NL,
* :mod:`repro.engine` — the service-oriented public API (declarative
  requests, pluggable stages, a request scheduler, serializable results),
* :mod:`repro.bench`, :mod:`repro.datasets`, :mod:`repro.metrics`,
  :mod:`repro.baselines`, :mod:`repro.notebook`, :mod:`repro.study` —
  benchmark, data, metrics, baselines and evaluation harnesses.

Quickstart::

    from repro import ExploreRequest, LinxEngine

    engine = LinxEngine()
    result = engine.explore(ExploreRequest(
        goal="Find an atypical country", dataset="netflix"))
    print(result.notebook_markdown)

``result.artifacts`` holds the live session, notebook and parsed query.
For many requests at once, submit them to a
:class:`repro.engine.RequestScheduler` (thread or process workers).
"""

from .engine import (
    ExploreRequest,
    ExploreResult,
    LinxEngine,
    ProgressEvent,
    RequestValidationError,
    StageFailedError,
)
from .engine.errors import EngineError
from .engine.result import StageStatus

__version__ = "2.0.0"

__all__ = [
    "EngineError",
    "ExploreRequest",
    "ExploreResult",
    "LinxEngine",
    "ProgressEvent",
    "RequestValidationError",
    "StageFailedError",
    "StageStatus",
    "__version__",
]
