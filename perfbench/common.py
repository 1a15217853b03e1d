"""Inputs, reference loop, HTTP client, output checks and run metadata.

Everything here is benchmark code: the program under test is only ever
reached through its public API (``repro.engine``) or its HTTP routes.
"""

from __future__ import annotations

import functools
import hashlib
import http.client
import json
import math
import os
import platform
import random
import resource
import sqlite3
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from repro.bench.generator import generate_benchmark
from repro.engine import ExploreRequest

#: Rows of every dataset a request explores (fixed on every workload).
NUM_ROWS = 300

#: Per-request training seeds are drawn from ``[1, SEED_SPACE)``; warm-up
#: and store-fill requests use seeds at or above it, so their canonical
#: hashes never collide with a timed request's.
SEED_SPACE = 1_000_000

#: Seconds a client waits on one HTTP exchange before counting a failure.
REQUEST_TIMEOUT_S = 120.0


# -- inputs -------------------------------------------------------------------------------
@functools.cache
def corpus_mix() -> tuple:
    """The fixed stratified mix: the first corpus instance of every
    (dataset, meta-goal) pair of the 182-instance ``generate_benchmark()``
    corpus — 3 datasets x 8 meta-goals = 24 natural-language goals."""
    first: dict[tuple[str, int], object] = {}
    for instance in generate_benchmark().instances:
        first.setdefault((instance.dataset, instance.meta_goal_id), instance)
    return tuple(first[key] for key in sorted(first))


#: Strata whose derived specification adds entries to the dataset's action
#: space (a snippet's operator or group attribute missing from the base
#: vocabulary).  With ``inference_batching=True`` the action space is pooled
#: per dataset while the guidance memos are pooled per specification, so once
#: one of these ran, later requests on that dataset can fail with mismatched
#: bias shapes.  The HTTP workloads leave them out so that no request fails.
BATCHING_UNSAFE = frozenset(
    {("flights", 4), ("playstore", 2), ("playstore", 5), ("playstore", 7), ("playstore", 8)}
)


def batching_safe_mix() -> tuple:
    """The 19 strata of :func:`corpus_mix` the batched engine serves reliably."""
    return tuple(
        instance for instance in corpus_mix()
        if (instance.dataset, instance.meta_goal_id) not in BATCHING_UNSAFE
    )


def make_request(instance, *, seed: int, episodes: int, request_id: str) -> ExploreRequest:
    """An NL-goal request (no ``ldx_text``, so the derive stage runs)."""
    return ExploreRequest(
        goal=instance.goal,
        dataset=instance.dataset,
        num_rows=NUM_ROWS,
        episodes=episodes,
        seed=seed,
        request_id=request_id,
    )


def request_lists(
    seed: int, label: str, mix: tuple, *, clients: int, blocks: int, episodes: int
) -> list[list[ExploreRequest]]:
    """One pre-generated request list per client, all drawn from *seed* alone.

    Rounds come in blocks of ``len(mix)``; each block visits every
    stratum once, in a seed-shuffled order, so any prefix of the run has the
    same mix up to one block.  In round ``r`` every client gets the same
    stratum (so concurrent requests cost alike), each with its own training
    seed; seeds are drawn without replacement, so every canonical request
    hash in the run is distinct.
    """
    rng = random.Random(f"{label}:{seed}")
    order: list[int] = []
    for _ in range(blocks):
        block = list(range(len(mix)))
        rng.shuffle(block)
        order.extend(block)
    seeds = rng.sample(range(1, SEED_SPACE), len(order) * clients)
    return [
        [
            make_request(
                mix[stratum],
                seed=seeds[index * clients + client],
                episodes=episodes,
                request_id=f"{label}-{client}-{index}",
            )
            for index, stratum in enumerate(order)
        ]
        for client in range(clients)
    ]


def warmup_requests(episodes: int) -> list[ExploreRequest]:
    """One fixed request per dataset (the first stratum of each)."""
    first: dict[str, object] = {}
    for instance in corpus_mix():
        first.setdefault(instance.dataset, instance)
    return [
        make_request(instance, seed=SEED_SPACE + index, episodes=episodes,
                     request_id=f"warmup-{dataset}")
        for index, (dataset, instance) in enumerate(sorted(first.items()))
    ]


# -- payload normalisation ----------------------------------------------------------------
def normalise(payload: dict) -> dict:
    """A result payload without its load-dependent fields.

    Per-stage ``seconds`` and the request's ``cache_stats`` delta depend on
    timing and on what ran before; every other field is a pure function of
    the request and must match bit for bit.
    """
    clean = json.loads(json.dumps(payload))
    clean.pop("cache_stats", None)
    for stage in clean.get("stages", []):
        stage.pop("seconds", None)
    return clean


def payload_digest(payloads: Iterable[dict]) -> str:
    """Order-sensitive digest of normalised payloads."""
    digest = hashlib.blake2b(digest_size=16)
    for payload in payloads:
        digest.update(json.dumps(normalise(payload), sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


# -- the reference loop -------------------------------------------------------------------
class ReferenceLoop:
    """Fixed work owned by the benchmark, timed in slices between requests.

    One unit is small-array numpy plus dict/list Python work shaped like the
    policy decision path: a trunk matmul, four softmax heads with clip/log
    entropies and inverse-CDF sampling, and a dict of picks.  Dividing a
    request's wall time by the unit time cancels most of the speed changes
    a shared machine goes through during a run.  The loop never calls the
    program, so no change to the program can speed up the yardstick.
    """

    STEPS = 24

    def __init__(self) -> None:
        rng = np.random.default_rng(20240501)
        self._observations = rng.standard_normal((16, 48))
        self._trunk = rng.standard_normal((48, 64)) / 7.0
        self._heads = [rng.standard_normal((64, size)) / 8.0 for size in (7, 12, 5, 9)]
        self.unit_seconds: list[float] = []
        self._checksum: Optional[float] = None

    def _unit(self) -> float:
        rng = np.random.default_rng(7)
        picks_seen: dict[tuple, int] = {}
        total = 0.0
        for step in range(self.STEPS):
            hidden = np.tanh(self._observations[step % 16] @ self._trunk)
            picks = []
            for head in self._heads:
                logits = hidden @ head
                exp = np.exp(logits - logits.max())
                probs = exp / exp.sum()
                logs = np.log(np.clip(probs, 1e-12, None))
                total -= float((probs * logs).sum())
                cdf = np.cumsum(probs)
                index = int((cdf <= rng.random() * cdf[-1]).sum())
                picks.append(min(index, len(probs) - 1))
            key = tuple(picks)
            picks_seen[key] = picks_seen.get(key, 0) + 1
        return total + len(picks_seen)

    def run(self, units: int) -> None:
        """Run and time *units* units; each unit must compute the same value."""
        for _ in range(units):
            started = time.perf_counter()
            checksum = self._unit()
            self.unit_seconds.append(time.perf_counter() - started)
            if self._checksum is None:
                self._checksum = checksum
            elif checksum != self._checksum:
                raise RuntimeError("reference loop is not deterministic")

    @staticmethod
    def unit_time(values: list[float]) -> float:
        """Mean seconds per unit over *values* (a slice of ``unit_seconds``)."""
        return sum(values) / len(values)


# -- statistics ---------------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def rss_peak_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- HTTP client --------------------------------------------------------------------------
_RESULT_MARKER = b'"result": '


@dataclass
class Served:
    """One request's trip through the HTTP stack, as the client saw it."""

    ok: bool
    status: int
    latency_s: float
    post_s: float = 0.0
    events_s: float = 0.0
    result_s: float = 0.0
    ticket: str = ""
    submitted_from_store: bool = False
    served_from_store: bool = False
    result_text: bytes = b""
    error: str = ""


def _exchange(port: int, method: str, path: str, body: bytes | None = None):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _drain_events(port: int, ticket: str) -> int:
    """Follow the ticket's SSE stream until the server closes it."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        connection.request("GET", f"/requests/{ticket}/events")
        response = connection.getresponse()
        while response.readline():
            pass
        return response.status
    finally:
        connection.close()


def serve_one(port: int, body: bytes) -> Served:
    """POST, follow SSE to the close, GET the result; never raises."""
    started = time.perf_counter()
    try:
        status, raw = _exchange(port, "POST", "/requests", body)
        posted = time.perf_counter()
        if status != 202:
            return Served(False, status, posted - started, error=raw[:200].decode("utf-8", "replace"))
        submitted = json.loads(raw)
        ticket = submitted["ticket"]
        status = _drain_events(port, ticket)
        streamed = time.perf_counter()
        if status != 200:
            return Served(False, status, streamed - started, ticket=ticket)
        status, raw = _exchange(port, "GET", f"/requests/{ticket}/result")
        finished = time.perf_counter()
    except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
        return Served(False, 0, time.perf_counter() - started, error=f"{type(exc).__name__}: {exc}")
    if status != 200:
        return Served(False, status, finished - started, ticket=ticket)
    # The server splices the stored text after a small JSON head:
    # {"ticket": ..., "served_from_store": ..., "result": <text>}
    cut = raw.index(_RESULT_MARKER)
    head = json.loads(raw[:cut].rstrip(b", ") + b"}")
    return Served(
        True,
        status,
        finished - started,
        post_s=posted - started,
        events_s=streamed - posted,
        result_s=finished - streamed,
        ticket=ticket,
        submitted_from_store=bool(submitted.get("served_from_store")),
        served_from_store=bool(head.get("served_from_store")),
        result_text=raw[cut + len(_RESULT_MARKER):-1],
    )


# -- run metadata -------------------------------------------------------------------------
def _git_sha(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas() -> dict:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except Exception:  # noqa: BLE001 — older numpy has no dict mode
        return {"name": "unknown", "version": "unknown"}


def machine_metadata(root: Path) -> dict:
    threads = {
        name: os.environ.get(name, "unset")
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "git_sha": _git_sha(root),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": sys.version.split()[0],
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "sqlite": sqlite3.sqlite_version,
        "blas": {**_blas(), "threads": threads},
        "machine": platform.machine(),
    }
