"""Name-based registry of engine pipeline stages.

Stages used to plug in through constructor arguments only — fine in
process, but a served :class:`~repro.engine.request.ExploreRequest` arrives
as JSON and cannot carry a live object, and process-pool workers can only
rebuild what a picklable spec describes.  This module closes both gaps:
stage implementations register under a short name per *kind* (the
entry-point pattern), and requests / engine specs select them declaratively:

>>> ExploreRequest(goal="...", dataset="netflix",
...                stages={"session_generator": "atena"})   # doctest: +SKIP

A registered factory receives a :class:`StageContext` — the engine's shared
LLM client, lazily-built few-shot bank supplier and CDRL configuration — so
expensive state is injected rather than rebuilt per stage.  The built-in
implementations register themselves when :mod:`repro.engine.stages` is
imported (the registry triggers that import on first use, so name lookups
work regardless of import order); plug-in packages register theirs with the
:func:`register_stage_factory` decorator at import time.

Trained policies are not registered here: an engine opened on a
:class:`~repro.train.registry.PolicyRegistry` looks ``cdrl:<name>[-v<N>]``
names up in that registry itself, so this process-wide registry only ever
holds code.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from .errors import FieldError, RequestValidationError

if TYPE_CHECKING:  # kept out of the import graph: request validation
    from repro.cdrl.agent import CdrlConfig  # imports this module, and must
    from repro.llm.interface import LLMClient  # stay light.

#: The four pluggable stage kinds, keyed exactly as requests select them.
KIND_SPEC_DERIVER = "spec_deriver"
KIND_SESSION_GENERATOR = "session_generator"
KIND_NOTEBOOK_RENDERER = "notebook_renderer"
KIND_INSIGHT_EXTRACTOR = "insight_extractor"
STAGE_KINDS: tuple[str, ...] = (
    KIND_SPEC_DERIVER,
    KIND_SESSION_GENERATOR,
    KIND_NOTEBOOK_RENDERER,
    KIND_INSIGHT_EXTRACTOR,
)

#: Default stage name per kind (the paper's system).
DEFAULT_STAGE_NAMES: dict[str, str] = {
    KIND_SPEC_DERIVER: "nl2pd2ldx",
    KIND_SESSION_GENERATOR: "cdrl",
    KIND_NOTEBOOK_RENDERER: "markdown",
    KIND_INSIGHT_EXTRACTOR: "mechanical",
}


@dataclass
class StageContext:
    """Shared engine state handed to stage factories.

    ``fewshot_bank`` is a supplier callable (building the bank materialises
    the full benchmark, so it must stay lazy and shared), matching what
    :class:`~repro.engine.stages.ChainedSpecDeriver` expects.
    """

    llm_client: LLMClient
    fewshot_bank: Callable[[], Any]
    cdrl_config: CdrlConfig


#: A stage factory: builds one stage instance from the engine's context.
StageFactory = Callable[[StageContext], Any]


class StageRegistry:
    """Thread-safe mapping of ``(kind, name)`` to stage factories."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._factories: dict[str, dict[str, StageFactory]] = {
            kind: {} for kind in STAGE_KINDS
        }
        self._builtins_loaded = False

    # -- registration ----------------------------------------------------------------
    def register(
        self, kind: str, name: str, factory: StageFactory, *, replace: bool = False
    ) -> None:
        """Register *factory* under ``(kind, name)``.

        Re-registering an existing name raises unless ``replace=True`` —
        silently shadowing a built-in is almost always a bug.
        """
        if kind not in STAGE_KINDS:
            raise ValueError(f"unknown stage kind {kind!r}; expected one of {STAGE_KINDS}")
        if not name or not name.strip():
            raise ValueError("stage name must be a non-empty string")
        key = name.strip().lower()
        with self._lock:
            if not replace and key in self._factories[kind]:
                raise ValueError(f"stage {key!r} already registered for kind {kind!r}")
            self._factories[kind][key] = factory

    # -- lookups ---------------------------------------------------------------------
    def names(self, kind: str) -> list[str]:
        """Registered names for *kind*, sorted."""
        self._ensure_builtins()
        if kind not in STAGE_KINDS:
            raise ValueError(f"unknown stage kind {kind!r}; expected one of {STAGE_KINDS}")
        with self._lock:
            return sorted(self._factories[kind])

    def describe(self) -> dict[str, list[str]]:
        """Every registered name per kind (the server's ``/stages`` payload)."""
        return {kind: self.names(kind) for kind in STAGE_KINDS}

    def create(self, kind: str, name: str, context: StageContext) -> Any:
        """Build the stage registered under ``(kind, name)``.

        Unknown names raise :class:`RequestValidationError` with the field
        spelled ``stages.<kind>``, so serving layers map straight to a
        structured 400 payload.
        """
        self._ensure_builtins()
        if kind not in STAGE_KINDS:
            raise ValueError(f"unknown stage kind {kind!r}; expected one of {STAGE_KINDS}")
        key = str(name).strip().lower()
        with self._lock:
            factory = self._factories[kind].get(key)
        if factory is None:
            raise RequestValidationError(
                [
                    FieldError(
                        f"stages.{kind}",
                        f"unknown stage {name!r}; registered: {self.names(kind)}",
                    )
                ]
            )
        return factory(context)

    # -- built-in loading ------------------------------------------------------------
    def _ensure_builtins(self) -> None:
        """Import the built-in stage module once, registering its factories.

        Deferred so that importing this module (e.g. from ``request.py``
        for kind validation) does not pull in the full pipeline stack.
        """
        if self._builtins_loaded:
            return
        self._builtins_loaded = True
        import repro.engine.stages  # noqa: F401  (registers built-ins on import)


#: The process-wide registry of stage code; engines resolve every stage name
#: not held by their own policy registry against it.
STAGE_REGISTRY = StageRegistry()


def register_stage_factory(kind: str, name: str, *, replace: bool = False):
    """Decorator registering a stage factory in the default registry::

        @register_stage_factory("session_generator", "my-generator")
        def _build(context: StageContext):
            return MySessionGenerator(context.cdrl_config)

    Worker processes resolve names against *their own* copy of the default
    registry, so a plug-in's defining module must be importable (and
    imported) there too — true automatically for everything registered at
    package import time.
    """

    def decorate(factory: StageFactory) -> StageFactory:
        STAGE_REGISTRY.register(kind, name, factory, replace=replace)
        return factory

    return decorate
