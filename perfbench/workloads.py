"""The three workloads and the runner that measures them.

* ``explore`` — in-process ``LinxEngine.explore`` with the default engine and
  one caller;
* ``serve`` — fresh requests over HTTP: ``ServerThread`` ->
  ``RequestScheduler(store=ResultStore, max_workers=2)`` ->
  ``LinxEngine(inference_batching=True)``, two client threads;
* ``serve-repeat`` — the same stack; set-up stores a fixed set of results and
  the clients resubmit them, so every request is served from the store.

All are closed loops run in rounds: in round ``r`` each client sends its next
request(s) and waits for the result(s).  A slice of the reference loop runs
between rounds, while no request is in flight, and is excluded from every
other timing.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.engine import LinxEngine, RequestScheduler, ResultStore
from repro.engine.server import ServerThread

from .common import (
    REQUEST_TIMEOUT_S,
    SEED_SPACE,
    ReferenceLoop,
    Served,
    batching_safe_mix,
    corpus_mix,
    machine_metadata,
    make_request,
    normalise,
    payload_digest,
    percentile,
    request_lists,
    rss_peak_mb,
    serve_one,
    warmup_requests,
)
from .tracing import Tracer

#: Reference-loop units timed right before and right after the timed phase.
REF_EDGE_UNITS = 10
#: Reference-loop units timed between two rounds.
REF_SLICE_UNITS = 2
#: Reference slices on each side of a round that make up its local unit.
REF_WINDOW = 5
#: Reference-loop units timed between two set-ups.
SETUP_REF_UNITS = 5
#: The reference unit of the machine the nominal round times were measured
#: on; ``setup_s`` is reported in seconds of that machine.
REF_NOMINAL_S = 0.0023
#: Results ``serve`` re-runs in-process on an unbatched engine.
EQUIVALENCE_SAMPLE = 4
#: Results ``explore`` re-runs on a fresh engine.
RERUN_SAMPLE = 2
#: Payloads (in request order) covered by the run's digest.
DIGEST_SAMPLE = 48


@dataclass(frozen=True)
class Sizes:
    """How much work a run does (the self-test shrinks these)."""

    #: Set-ups per run; ``setup_s`` is their median and the last one is measured.
    setup_repeats: int = 3
    #: Fewest requests a timed phase sends, so that the p90 always has at
    #: least ten samples beyond it.
    min_samples: int = 100
    #: Episode budget of the fresh requests of ``explore`` and ``serve``.
    episodes: int = 20
    #: Episode budget of ``serve-repeat``'s stored results and warm-ups.
    fill_episodes: int = 6
    #: Blocks of request lists generated up front (more than a run uses).
    blocks: int = 40


@dataclass
class Sample:
    """One request of the timed phase."""

    latency_s: float
    ok: bool
    traced: bool = False
    key: tuple = ()
    payload: Optional[dict] = None
    served: Optional[Served] = None
    queue_wait_s: float = 0.0
    error: str = ""
    #: The round that sent it, and the reference unit around that round.
    round: int = 0
    ref_unit: float = 0.0


@dataclass
class SetupTimes:
    setup_s: float = 0.0
    bank_s: float = 0.0
    warmup_s: float = 0.0
    store_fill_s: float = 0.0
    #: Mean reference unit of the slices right before and after this set-up.
    ref_unit_s: float = 0.0

    @property
    def nominal_s(self) -> float:
        """``setup_s`` at the nominal reference speed."""
        return self.setup_s * REF_NOMINAL_S / self.ref_unit_s


# -- explore ------------------------------------------------------------------------------
class ExploreWorkload:
    """The analyst's path: ``LinxEngine.explore`` in-process, one caller."""

    name = "explore"
    requests_per_round = 1
    nominal_round_s = 0.15
    settle_s = 0.0

    def __init__(self, seed: int, workdir: Path, sizes: Sizes):
        self.sizes = sizes
        self.block_rounds = len(corpus_mix())
        self.requests = request_lists(
            seed, self.name, corpus_mix(), clients=1, blocks=sizes.blocks,
            episodes=sizes.episodes,
        )[0]
        self.max_rounds = len(self.requests)
        self.engine: Optional[LinxEngine] = None

    def build(self, times: SetupTimes) -> None:
        self.engine = LinxEngine()
        started = time.perf_counter()
        self.engine.fewshot_bank()
        times.bank_s = time.perf_counter() - started
        started = time.perf_counter()
        for request in warmup_requests(self.sizes.episodes):
            self.engine.explore(request)
        times.warmup_s = time.perf_counter() - started

    def round(self, index: int) -> list[Sample]:
        request = self.requests[index]
        started = time.perf_counter()
        try:
            result = self.engine.explore(request)
        except Exception as exc:  # noqa: BLE001 — a failed request is counted, not fatal
            return [Sample(time.perf_counter() - started, False, key=(0, index),
                           error=f"{type(exc).__name__}: {exc}")]
        latency = time.perf_counter() - started
        return [Sample(latency, True, key=(0, index), payload=result.to_dict())]

    def after_round(self, samples: list[Sample]) -> None:
        pass

    def payloads(self, samples: list[Sample]) -> list[dict]:
        return [sample.payload for sample in samples if sample.ok]

    def check(self, samples: list[Sample]) -> list[str]:
        problems = []
        for sample in samples:
            if not sample.ok:
                continue
            payload = sample.payload
            incomplete = [s["name"] for s in payload["stages"] if s["status"] != "complete"]
            if incomplete or not payload["notebook_markdown"] or not payload["operations"]:
                problems.append(f"explore {sample.key}: incomplete result {incomplete}")
        # Determinism: a fresh engine must reproduce the served payloads.
        fresh = LinxEngine()
        try:
            for sample in [s for s in samples if s.ok][:RERUN_SAMPLE]:
                again = fresh.explore(self.requests[sample.key[1]]).to_dict()
                if normalise(again) != normalise(sample.payload):
                    problems.append(f"explore {sample.key}: re-run on a fresh engine differs")
        finally:
            fresh.close()
        return problems

    def counters(self) -> dict:
        return {"cache": self.engine.cache_stats()}

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.engine = None


# -- the HTTP workloads -------------------------------------------------------------------
class ClientPool:
    """Client threads that each run one round's work per :meth:`run_round`."""

    def __init__(self, count: int, work):
        self._work = work
        self._start = threading.Barrier(count + 1)
        self._end = threading.Barrier(count + 1)
        self._index = 0
        self._stop = False
        self._results: list[list[Sample]] = [[] for _ in range(count)]
        self._threads = [
            threading.Thread(target=self._main, args=(client,), name=f"perfbench-client-{client}")
            for client in range(count)
        ]
        for thread in self._threads:
            thread.start()

    def _main(self, client: int) -> None:
        while True:
            self._start.wait()
            if self._stop:
                return
            try:
                self._results[client] = self._work(client, self._index)
            except Exception as exc:  # noqa: BLE001 — reported as a failed sample
                self._results[client] = [Sample(0.0, False, key=(client, self._index),
                                                error=f"{type(exc).__name__}: {exc}")]
            self._end.wait()

    def run_round(self, index: int) -> list[Sample]:
        self._index = index
        self._start.wait()
        self._end.wait()
        return [sample for results in self._results for sample in results]

    def close(self) -> None:
        self._stop = True
        self._start.wait()
        for thread in self._threads:
            thread.join(timeout=REQUEST_TIMEOUT_S)


class _HttpWorkload:
    """Shared stack of ``serve`` and ``serve-repeat``."""

    clients = 2
    #: Idle time before each reference slice, so that the server's threads
    #: finishing the last round (closing connections, waking pollers) do not
    #: contend with the slice for the interpreter lock.
    settle_s = 0.02

    def __init__(self, seed: int, workdir: Path, sizes: Sizes):
        self.sizes = sizes
        self.episodes = sizes.episodes
        self.workdir = workdir
        self.engine: Optional[LinxEngine] = None
        self.store: Optional[ResultStore] = None
        self.scheduler: Optional[RequestScheduler] = None
        self.server: Optional[ServerThread] = None
        self.pool: Optional[ClientPool] = None

    def build(self, times: SetupTimes) -> None:
        self.engine = LinxEngine(inference_batching=True)
        self.store = ResultStore(self.workdir / "results.sqlite")
        self.scheduler = RequestScheduler(
            self.engine, store=self.store, max_workers=2,
            default_timeout=REQUEST_TIMEOUT_S,
        )
        self.server = ServerThread(self.scheduler).start()
        started = time.perf_counter()
        self.engine.fewshot_bank()
        times.bank_s = time.perf_counter() - started
        started = time.perf_counter()
        for request in warmup_requests(self.episodes):
            served = serve_one(self.server.port, json.dumps(request.to_dict()).encode())
            if not served.ok:
                raise RuntimeError(f"warm-up request failed: {served.status} {served.error}")
        times.warmup_s = time.perf_counter() - started
        self.pool = ClientPool(self.clients, self.client_round)

    def client_round(self, client: int, index: int) -> list[Sample]:
        raise NotImplementedError

    def round(self, index: int) -> list[Sample]:
        return self.pool.run_round(index)

    def after_round(self, samples: list[Sample]) -> None:
        """Queue waits from the tickets' snapshots (outside the round's time)."""
        for sample in samples:
            if sample.ok:
                status = self.scheduler.status(sample.served.ticket)
                sample.queue_wait_s = status["started_at"] - status["submitted_at"]

    def counters(self) -> dict:
        return {
            "cache": self.engine.cache_stats(),
            "batcher": self.engine.batcher.describe(),
            "lease_waits": self.scheduler.lease_waits,
            "write_retries": self.store.describe()["write_retries"],
        }

    def namespace(self) -> str:
        return self.engine.config_fingerprint()

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None
        if self.server is not None:
            self.server.stop()
            self.server = None
        if self.scheduler is not None:
            self.scheduler.shutdown()
            self.scheduler = None
        if self.engine is not None:
            self.engine.close()
            self.engine = None
        if self.store is not None:
            self.store.close()
            self.store = None


class ServeWorkload(_HttpWorkload):
    """Fresh requests over HTTP: claim -> execute -> commit, batched waves."""

    name = "serve"
    requests_per_round = 2
    nominal_round_s = 0.45

    def __init__(self, seed: int, workdir: Path, sizes: Sizes):
        super().__init__(seed, workdir, sizes)
        self.block_rounds = len(batching_safe_mix())
        self.requests = request_lists(
            seed, self.name, batching_safe_mix(), clients=self.clients, blocks=sizes.blocks,
            episodes=sizes.episodes,
        )
        self.bodies = [
            [json.dumps(request.to_dict()).encode() for request in client]
            for client in self.requests
        ]
        self.max_rounds = len(self.requests[0])

    def client_round(self, client: int, index: int) -> list[Sample]:
        served = serve_one(self.server.port, self.bodies[client][index])
        return [Sample(served.latency_s, served.ok, key=(client, index),
                       served=served, error=served.error)]

    def payloads(self, samples: list[Sample]) -> list[dict]:
        ordered = sorted((s for s in samples if s.ok), key=lambda s: (s.key[1], s.key[0]))
        return [json.loads(sample.served.result_text) for sample in ordered]

    def check(self, samples: list[Sample]) -> list[str]:
        problems = []
        namespace = self.namespace()
        for sample in samples:
            if not sample.ok:
                continue
            client, index = sample.key
            request = self.requests[client][index]
            if sample.served.submitted_from_store or sample.served.served_from_store:
                problems.append(f"serve {sample.key}: fresh request served from the store")
            stored = self.store.get_payload_text(namespace, request.canonical_hash())
            if stored is None or stored.encode() != sample.served.result_text:
                problems.append(f"serve {sample.key}: response differs from the committed result")
        # Batched == unbatched: re-run a fixed sample in-process, unbatched.
        reference = LinxEngine(cdrl_config=self.engine.cdrl_config)
        try:
            ordered = sorted((s for s in samples if s.ok), key=lambda s: (s.key[1], s.key[0]))
            for sample in ordered[:EQUIVALENCE_SAMPLE]:
                client, index = sample.key
                again = reference.explore(self.requests[client][index]).to_dict()
                if normalise(again) != normalise(json.loads(sample.served.result_text)):
                    problems.append(f"serve {sample.key}: batched payload != unbatched re-run")
        finally:
            reference.close()
        return problems


class ServeRepeatWorkload(_HttpWorkload):
    """Resubmissions of stored requests: POST -> 202 from store -> GET."""

    name = "serve-repeat"
    nominal_round_s = 0.17

    def __init__(self, seed: int, workdir: Path, sizes: Sizes):
        super().__init__(seed, workdir, sizes)
        self.episodes = sizes.fill_episodes
        self.block_rounds = 1
        self.requests_per_round = self.clients * len(batching_safe_mix())
        # The stored set is fixed (one request per stratum, fixed training
        # seeds); the seed only shuffles the order the clients resubmit in.
        self.fill = [
            make_request(instance, seed=SEED_SPACE + 100 + index,
                         episodes=sizes.fill_episodes, request_id=f"fill-{index}")
            for index, instance in enumerate(batching_safe_mix())
        ]
        self.bodies = [json.dumps(request.to_dict()).encode() for request in self.fill]
        # Each round, every client resubmits the whole stored set once, in
        # its own seed-shuffled order.
        rng = random.Random(f"{self.name}:{seed}")
        self.max_rounds = sizes.blocks * len(self.fill)
        self.order = [
            [rng.sample(range(len(self.fill)), len(self.fill)) for _ in range(self.max_rounds)]
            for _ in range(self.clients)
        ]
        self.expected: list[bytes] = []

    def build(self, times: SetupTimes) -> None:
        super().build(times)
        started = time.perf_counter()
        tickets = [self.scheduler.submit(request) for request in self.fill]
        for ticket in tickets:
            status = self.scheduler.wait(ticket.ticket_id, timeout=REQUEST_TIMEOUT_S)
            if status["state"] != "done":
                raise RuntimeError(f"store fill failed: {status}")
        times.store_fill_s = time.perf_counter() - started
        namespace = self.namespace()
        self.expected = []
        for request, ticket in zip(self.fill, tickets):
            text = self.store.get_payload_text(namespace, request.canonical_hash())
            if text is None or text != self.scheduler.result_text(ticket.ticket_id):
                raise RuntimeError("store fill did not commit the executed result")
            self.expected.append(text.encode())

    def client_round(self, client: int, index: int) -> list[Sample]:
        samples = []
        for position, which in enumerate(self.order[client][index]):
            served = serve_one(self.server.port, self.bodies[which])
            if served.result_text == self.expected[which]:
                # Keep one copy of each stored text: thousands of identical
                # responses must not grow the peak RSS with the run's length.
                served.result_text = self.expected[which]
            samples.append(Sample(served.latency_s, served.ok,
                                  key=(client, (index, position), which),
                                  served=served, error=served.error))
        return samples

    def payloads(self, samples: list[Sample]) -> list[dict]:
        parsed = [json.loads(text) for text in self.expected]
        ordered = sorted((s for s in samples if s.ok), key=lambda s: (s.key[1], s.key[0]))
        return [parsed[sample.key[2]] for sample in ordered]

    def check(self, samples: list[Sample]) -> list[str]:
        problems = []
        for sample in samples:
            if not sample.ok:
                continue
            served = sample.served
            if not (served.submitted_from_store and served.served_from_store):
                problems.append(f"serve-repeat {sample.key}: not flagged served_from_store")
            if served.result_text != self.expected[sample.key[2]]:
                problems.append(f"serve-repeat {sample.key}: response differs from stored text")
        namespace = self.namespace()
        for request, expected in zip(self.fill, self.expected):
            current = self.store.get_payload_text(namespace, request.canonical_hash())
            if current is None or current.encode() != expected:
                problems.append(f"serve-repeat: stored text of {request.request_id} changed")
        return problems


WORKLOADS = {
    workload.name: workload
    for workload in (ExploreWorkload, ServeWorkload, ServeRepeatWorkload)
}


# -- metrics ------------------------------------------------------------------------------
#: (name, unit) of every end-to-end metric, as listed in ``BENCHMARK.json``.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ref", "ref-units"),
    ("latency_p90_ref", "ref-units"),
    ("request_cost_ref", "ref-units"),
    ("compliance_rate", "ratio"),
    ("utility_mean", "score"),
    ("success_rate", "ratio"),
    ("rss_peak_mb", "MB"),
)

#: (name, unit) of every per-layer metric, as listed in ``BENCHMARK.json``.
#: Counts and times are per completed traced request.
PER_LAYER = (
    ("engine.derive.busy_s", "s"),
    ("engine.generate.busy_s", "s"),
    ("engine.generate.span_coverage", "ratio"),
    ("engine.render.busy_s", "s"),
    ("engine.insights.busy_s", "s"),
    ("rl.act.calls", "count"),
    ("rl.act.busy_s", "s"),
    ("rl.act.self_s", "s"),
    ("rl.forward.busy_s", "s"),
    ("rl.decide.busy_s", "s"),
    ("rl.update.calls", "count"),
    ("rl.update.busy_s", "s"),
    ("cdrl.agent_init.busy_s", "s"),
    ("cdrl.guidance.calls", "count"),
    ("cdrl.guidance.busy_s", "s"),
    ("cdrl.reward.busy_s", "s"),
    ("ldx.verify.busy_s", "s"),
    ("cdrl.compliant_episode_ratio", "ratio"),
    ("explore.step.calls", "count"),
    ("explore.step.busy_s", "s"),
    ("explore.step.self_s", "s"),
    ("explore.executor.calls", "count"),
    ("explore.executor.busy_s", "s"),
    ("explore.cache.hit_ratio", "ratio"),
    ("explore.cache.plan_hit_ratio", "ratio"),
    ("explore.cache.evictions", "count"),
    ("explore.cache.cached_rows", "rows"),
    ("engine.batcher.waves", "count"),
    ("engine.batcher.rows_per_wave", "rows"),
    ("engine.batcher.wait_s", "s"),
    ("engine.scheduler.submit.busy_s", "s"),
    ("engine.scheduler.queue_wait_s", "s"),
    ("engine.scheduler.lease_waits", "count"),
    ("engine.store.lookup.calls", "count"),
    ("engine.store.lookup.busy_s", "s"),
    ("engine.store.commit.busy_s", "s"),
    ("engine.store.claim.busy_s", "s"),
    ("engine.store.write_retries", "count"),
    ("engine.server.post_s", "s"),
    ("engine.server.events_s", "s"),
    ("engine.server.result_s", "s"),
    ("engine.server.result_bytes", "bytes"),
    ("setup.bank_s", "s"),
    ("setup.warmup_s", "s"),
    ("setup.store_fill_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


# -- the runner ---------------------------------------------------------------------------
@dataclass
class TimedPhase:
    samples: list[Sample] = field(default_factory=list)
    rounds: int = 0
    #: Summed round walls, keyed by whether tracing was installed.
    wall: dict = field(default_factory=lambda: {False: 0.0, True: 0.0})
    #: Seconds of every reference-loop unit timed between rounds.
    ref_units: list[float] = field(default_factory=list)


def planned_rounds(workload, seconds: float, min_samples: int) -> int:
    """Rounds a run makes: ``seconds`` of work at the workload's nominal pace.

    The amount of work is fixed by ``--seconds`` rather than by the clock,
    so every run with the same arguments does the same work whatever the
    machine's speed at the time.  It is rounded up to whole blocks (every
    stratum equally often) and to at least *min_samples* requests.
    """
    rounds = max(seconds / workload.nominal_round_s, min_samples / workload.requests_per_round)
    blocks = max(1, math.ceil(rounds / workload.block_rounds))
    return min(workload.max_rounds, blocks * workload.block_rounds)


def timed_phase(workload, rounds: int, ref: ReferenceLoop, tracer: Optional[Tracer]) -> TimedPhase:
    """*rounds* closed-loop rounds, with a reference-loop slice before each.

    Each sample gets a local reference unit: the mean over the slices within
    ``REF_WINDOW`` rounds of its own, so a latency is normalised by the
    machine's speed around the time it was measured.  With a tracer, odd
    rounds run traced and even rounds untraced, so both halves see the same
    machine.
    """
    phase = TimedPhase()
    first_unit = len(ref.unit_seconds)
    slices: list[float] = []
    try:
        while phase.rounds < rounds:
            traced = tracer is not None and phase.rounds % 2 == 1
            if tracer is not None:
                tracer.install() if traced else tracer.uninstall()
            time.sleep(workload.settle_s)
            ref.run(REF_SLICE_UNITS)
            slices.append(ref.unit_time(ref.unit_seconds[-REF_SLICE_UNITS:]))
            round_started = time.perf_counter()
            samples = workload.round(phase.rounds)
            phase.wall[traced] += time.perf_counter() - round_started
            workload.after_round(samples)
            for sample in samples:
                sample.traced = traced
                sample.round = phase.rounds
            phase.samples.extend(samples)
            phase.rounds += 1
    finally:
        if tracer is not None:
            tracer.uninstall()
    phase.ref_units = ref.unit_seconds[first_unit:]
    for sample in phase.samples:
        index = sample.round
        window = slices[max(0, index - REF_WINDOW):index + REF_WINDOW + 1]
        sample.ref_unit = sum(window) / len(window)
    return phase


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _end_to_end(phase: TimedPhase, setups: list[SetupTimes], ref_unit: float,
                payloads: list[dict]) -> dict[str, float]:
    ok = [sample for sample in phase.samples if sample.ok and not sample.traced]
    latencies = [sample.latency_s / sample.ref_unit for sample in ok]
    return {
        "setup_s": statistics.median(setup.nominal_s for setup in setups),
        "latency_p50_ref": percentile(latencies, 0.50),
        "latency_p90_ref": percentile(latencies, 0.90),
        "request_cost_ref": phase.wall[False] / len(ok) / ref_unit,
        "compliance_rate": _ratio(sum(1 for p in payloads if p["fully_compliant"]), len(payloads)),
        "utility_mean": _ratio(sum(p["utility_score"] for p in payloads), len(payloads)),
        "success_rate": _ratio(sum(1 for s in phase.samples if s.ok), len(phase.samples)),
        "rss_peak_mb": rss_peak_mb(),
    }


def _per_layer(workload, phase: TimedPhase, setups: list[SetupTimes], tracer: Tracer,
               before: dict, after: dict) -> dict[str, float]:
    traced = [s for s in phase.samples if s.ok and s.traced]
    untraced = [s for s in phase.samples if s.ok and not s.traced]
    count = max(1, len(traced))
    spans = tracer.totals()

    def span(name: str) -> tuple[int, float, float]:
        return spans.get(name, (0, 0.0, 0.0))

    def calls(name: str) -> float:
        return span(name)[0] / count

    def busy(name: str) -> float:
        return span(name)[1] / count

    def own(name: str) -> float:
        return span(name)[2] / count

    # Every agent run ends with one verify of its chosen session (whose
    # outcome is the result's ``fully_compliant``); the rest are per episode.
    agent_runs = span("engine.generate")[0]
    compliant_results = sum(
        1 for payload in workload.payloads(traced) if payload["fully_compliant"]
    ) if agent_runs else 0
    episode_verifies = span("ldx.verify")[0] - agent_runs
    episode_compliant = span("ldx.verify.true")[0] - compliant_results

    cache_before, cache_after = before["cache"], after["cache"]
    hits = cache_after["hits"] - cache_before["hits"]
    lookups = hits + cache_after["misses"] - cache_before["misses"]
    completed = max(1, len(traced) + len(untraced))
    waves = rows = 0
    if "batcher" in before:
        waves = after["batcher"]["waves"] - before["batcher"]["waves"]
        rows = after["batcher"]["rows"] - before["batcher"]["rows"]
    served = [s.served for s in traced if s.served is not None]

    def served_mean(value) -> float:
        return sum(value(s) for s in served) / len(served) if served else 0.0

    generate = span("engine.generate")
    cost_traced = _ratio(phase.wall[True], len(traced))
    cost_untraced = _ratio(phase.wall[False], len(untraced))
    return {
        "engine.derive.busy_s": busy("engine.derive"),
        "engine.generate.busy_s": busy("engine.generate"),
        "engine.generate.span_coverage": 1.0 - generate[2] / generate[1] if generate[1] else 0.0,
        "engine.render.busy_s": busy("engine.render"),
        "engine.insights.busy_s": busy("engine.insights"),
        "rl.act.calls": calls("rl.act"),
        "rl.act.busy_s": busy("rl.act"),
        "rl.act.self_s": own("rl.act"),
        "rl.forward.busy_s": busy("rl.forward"),
        "rl.decide.busy_s": busy("rl.decide"),
        "rl.update.calls": calls("rl.update.step"),
        "rl.update.busy_s": busy("rl.update.grad") + busy("rl.update.step"),
        "cdrl.agent_init.busy_s": busy("cdrl.agent_init"),
        "cdrl.guidance.calls": calls("cdrl.guidance"),
        "cdrl.guidance.busy_s": busy("cdrl.guidance"),
        "cdrl.reward.busy_s": busy("cdrl.reward"),
        "ldx.verify.busy_s": busy("ldx.verify"),
        "cdrl.compliant_episode_ratio": _ratio(episode_compliant, episode_verifies),
        "explore.step.calls": calls("explore.step"),
        "explore.step.busy_s": busy("explore.step"),
        "explore.step.self_s": own("explore.step"),
        "explore.executor.calls": calls("explore.executor"),
        "explore.executor.busy_s": busy("explore.executor"),
        "explore.cache.hit_ratio": _ratio(hits, lookups),
        "explore.cache.plan_hit_ratio": _ratio(
            cache_after["plan_hits"] - cache_before["plan_hits"], lookups),
        "explore.cache.evictions": (cache_after["evictions"] - cache_before["evictions"]) / completed,
        "explore.cache.cached_rows": float(cache_after["cached_rows"]),
        "engine.batcher.waves": waves / completed,
        "engine.batcher.rows_per_wave": _ratio(rows, waves),
        "engine.batcher.wait_s": busy("engine.batcher.submit"),
        "engine.scheduler.submit.busy_s": busy("engine.scheduler.submit"),
        "engine.scheduler.queue_wait_s": sum(s.queue_wait_s for s in traced) / count,
        "engine.scheduler.lease_waits": (
            after.get("lease_waits", 0) - before.get("lease_waits", 0)) / completed,
        "engine.store.lookup.calls": calls("engine.store.lookup"),
        "engine.store.lookup.busy_s": busy("engine.store.lookup"),
        "engine.store.commit.busy_s": busy("engine.store.commit"),
        "engine.store.claim.busy_s": busy("engine.store.claim"),
        "engine.store.write_retries": float(
            after.get("write_retries", 0) - before.get("write_retries", 0)),
        "engine.server.post_s": served_mean(lambda s: s.post_s),
        "engine.server.events_s": served_mean(lambda s: s.events_s),
        "engine.server.result_s": served_mean(lambda s: s.result_s),
        "engine.server.result_bytes": served_mean(lambda s: len(s.result_text)),
        "setup.bank_s": statistics.median(setup.bank_s for setup in setups),
        "setup.warmup_s": statistics.median(setup.warmup_s for setup in setups),
        "setup.store_fill_s": statistics.median(setup.store_fill_s for setup in setups),
        "trace.overhead_ratio": _ratio(cost_traced, cost_untraced) - 1.0 if cost_untraced else 0.0,
    }


def run(name: str, seed: int, seconds: float, trace: bool, root: Path,
        sizes: Sizes = Sizes()) -> tuple[dict, dict]:
    """Run workload *name*; returns ``(result line, run record)``."""
    workdir = root / ".perfbench_tmp" / f"{name}-{os.getpid()}"
    workload_class = WORKLOADS[name]
    setups: list[SetupTimes] = []
    workload = None
    ref = ReferenceLoop()
    try:
        # Set-up times are normalised by reference slices taken right
        # before and after each set-up, which track the machine's speed at
        # that moment (the set-ups themselves vary little within a run).
        slices: list[float] = []
        for attempt in range(sizes.setup_repeats):
            if workload is not None:
                workload.close()
                # Free the closed stack now, so the peak RSS does not depend
                # on when the collector happens to run.
                gc.collect()
            time.sleep(workload_class.settle_s)
            ref.run(SETUP_REF_UNITS)
            slices.append(ref.unit_time(ref.unit_seconds[-SETUP_REF_UNITS:]))
            workload = workload_class(seed, workdir / f"setup-{attempt}", sizes)
            times = SetupTimes()
            started = time.perf_counter()
            workload.build(times)
            times.setup_s = time.perf_counter() - started
            setups.append(times)
        time.sleep(workload.settle_s)
        ref.run(SETUP_REF_UNITS)
        slices.append(ref.unit_time(ref.unit_seconds[-SETUP_REF_UNITS:]))
        for position, times in enumerate(setups):
            times.ref_unit_s = (slices[position] + slices[position + 1]) / 2.0
        rss_after_setup = rss_peak_mb()
        edge = len(ref.unit_seconds)
        ref.run(REF_EDGE_UNITS)
        tracer = Tracer() if trace else None
        before = workload.counters()
        rounds = planned_rounds(workload, seconds, sizes.min_samples)
        phase = timed_phase(workload, rounds, ref, tracer)
        after = workload.counters()
        ref.run(REF_EDGE_UNITS)
        ref_unit = ref.unit_time(phase.ref_units)
        ok = [sample for sample in phase.samples if sample.ok]
        if not ok:
            raise RuntimeError(f"no request completed: {phase.samples[:1]}")
        problems = workload.check(phase.samples)
        payloads = workload.payloads(phase.samples)
        if trace:
            metrics = _per_layer(workload, phase, setups, tracer, before, after)
        else:
            metrics = _end_to_end(phase, setups, ref_unit, payloads)
        untraced = [sample.latency_s for sample in ok if not sample.traced]
        record = {
            "workload": name,
            "seed": seed,
            "trace": trace,
            "rounds": phase.rounds,
            "rss_peak_mb_after_setup": rss_after_setup,
            "samples": len(phase.samples),
            "samples_beyond_p90": len(untraced) - math.ceil(0.9 * len(untraced)),
            "latency_p50_s": percentile(untraced, 0.50),
            "latency_p90_s": percentile(untraced, 0.90),
            "requests_per_s": len(untraced) / phase.wall[False],
            "timed_wall_s": phase.wall[False] + phase.wall[True],
            "payload_digest": payload_digest(payloads[:DIGEST_SAMPLE]),
            "digest_covers": min(DIGEST_SAMPLE, len(payloads)),
            "reference_loop": {
                "unit_s_start": ref.unit_time(ref.unit_seconds[edge:edge + REF_EDGE_UNITS]),
                "unit_s_end": ref.unit_time(ref.unit_seconds[-REF_EDGE_UNITS:]),
                "unit_s_timed": ref_unit,
                "timed_units": len(phase.ref_units),
            },
            "setups": [{**vars(setup), "nominal_s": setup.nominal_s} for setup in setups],
            "failures": [sample.error for sample in phase.samples if not sample.ok][:5],
            "check_problems": problems[:20],
            "machine": machine_metadata(root),
        }
        result = {
            "correct": not problems and len(ok) == len(phase.samples),
            "attempted": len(phase.samples),
            "failed": len(phase.samples) - len(ok),
            "metrics": metrics,
        }
        return result, record
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
