"""Benchmark-side tracing: span timers wrapped around each layer's public calls.

The program carries no tracing of its own yet, so the traced run patches
the public methods listed in :data:`TARGETS` with wrappers that time every
call.  Each thread keeps a stack of open spans; when a span closes, its
duration is added to its parent's child time, so a layer's self time is its
inclusive time minus the part its child spans cover.  Spans are folded into
per-thread ``name -> [calls, busy, self]`` tables held in memory and merged
when the run ends.  A call whose innermost open span has the same name (an
``act`` that calls ``act_batch``) joins that span instead of nesting.

Tracing is installed and removed only between requests, while no request is
in flight, so traced and untraced requests can alternate in one run.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

#: (module, attribute path, span name).  The attribute path is either a
#: ``Class.method`` of the module or a module-level function the caller
#: looks up at call time.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.engine.stages", "ChainedSpecDeriver.derive", "engine.derive"),
    ("repro.engine.stages", "CdrlSessionGenerator.generate", "engine.generate"),
    ("repro.engine.stages", "MarkdownNotebookRenderer.render", "engine.render"),
    ("repro.engine.stages", "DefaultInsightExtractor.extract", "engine.insights"),
    ("repro.rl.policy", "CategoricalPolicy.act", "rl.act"),
    ("repro.rl.policy", "CategoricalPolicy.act_batch", "rl.act"),
    ("repro.rl.network", "MultiHeadPolicyNetwork.forward", "rl.forward"),
    ("repro.rl.network", "MultiHeadPolicyNetwork.forward_batch", "rl.forward"),
    ("repro.engine.batcher", "stacked_forward", "rl.forward"),
    ("repro.rl.policy", "CategoricalPolicy.decisions_from_forward", "rl.decide"),
    ("repro.rl.policy", "CategoricalPolicy.accumulate_gradient_batch", "rl.update.grad"),
    ("repro.rl.optimizer", "Adam.step", "rl.update.step"),
    ("repro.cdrl.agent", "LinxCdrlAgent.__init__", "cdrl.agent_init"),
    ("repro.cdrl.spec_network", "SpecificationAwarePolicy.decision_biases", "cdrl.guidance"),
    ("repro.cdrl.compliance", "ComplianceRewardStrategy.on_step", "cdrl.reward"),
    ("repro.cdrl.agent", "verify", "ldx.verify"),
    ("repro.explore.environment", "ExplorationEnvironment.step", "explore.step"),
    ("repro.explore.executor", "QueryExecutor.execute_step", "explore.executor"),
    ("repro.engine.batcher", "InferenceBatcher.submit", "engine.batcher.submit"),
    ("repro.engine.scheduler", "RequestScheduler.submit", "engine.scheduler.submit"),
    ("repro.engine.store", "ResultStore.get_payload_text", "engine.store.lookup"),
    ("repro.engine.store", "ResultStore.commit_result", "engine.store.commit"),
    ("repro.engine.store", "ResultStore.claim", "engine.store.claim"),
)

#: Spans whose truthy results are also counted (as ``<name>.true``): the
#: agent's ``verify`` calls, for the share of compliant training episodes.
COUNT_TRUE = frozenset({"ldx.verify"})


class Tracer:
    """Installs span wrappers on :data:`TARGETS` and accumulates their timings."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._tables: list[dict[str, list[float]]] = []
        self._tables_lock = threading.Lock()
        self._originals: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------------------
    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            table: dict[str, list[float]] = {}
            state = ([], table)
            self._local.state = state
            with self._tables_lock:
                self._tables.append(table)
        return state

    def _call(self, name: str, function, args, kwargs):
        stack, table = self._thread_state()
        if stack and stack[-1][0] == name:
            return function(*args, **kwargs)
        frame = [name, 0.0]
        stack.append(frame)
        started = time.perf_counter()
        try:
            result = function(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - started
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            entry = table.get(name)
            if entry is None:
                entry = table[name] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - frame[1]
        if name in COUNT_TRUE and result:
            counted = table.setdefault(name + ".true", [0, 0.0, 0.0])
            counted[0] += 1
        return result

    def _wrap(self, name: str, function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            return self._call(name, function, args, kwargs)

        return traced

    # -- patching -----------------------------------------------------------------------
    def install(self) -> None:
        if self._originals:
            return
        for module_name, path, name in TARGETS:
            owner = importlib.import_module(module_name)
            *owners, attribute = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = vars(owner)[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    # -- results ------------------------------------------------------------------------
    def totals(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, busy seconds, self seconds)`` over every thread."""
        merged: dict[str, list[float]] = {}
        with self._tables_lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, busy, own) in list(table.items()):
                entry = merged.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += busy
                entry[2] += own
        return {name: (int(c), b, s) for name, (c, b, s) in merged.items()}
