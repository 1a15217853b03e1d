"""Shared harness for the contract checks: HTTP client, differs, replicas.

* :func:`call` and :func:`stream_events` — a JSON client for the HTTP tier
  and a consumer of one ticket's SSE stream.
* :func:`first_difference` — the path of the first field where two
  JSON-like payloads differ (``operations[3][1]``), or ``None``;
  :func:`comparable` drops a payload's load-dependent fields first.
* :func:`training_divergence` / :func:`assert_same_training` — the first
  divergent episode, history field or parameter of two trainers.
* :func:`replica_main` — one server replica over a shared store
  directory, started by ``multiprocessing`` ``spawn`` children (which
  inherit the parent's ``sys.path`` and so import this module).
"""

from __future__ import annotations

import http.client
import json
import time
from pathlib import Path
from typing import Any, Optional

import numpy as np

from repro.cdrl import CdrlConfig
from repro.engine import LinxEngine, RequestScheduler, ResultStore
from repro.engine.server import ServerThread
from repro.reliability import FaultPlan, install_plan
from repro.rl.trainer import PolicyGradientTrainer


# -- HTTP ----------------------------------------------------------------------------
def call(
    port: int, method: str, path: str, body: dict[str, Any] | None = None
) -> tuple[int, dict[str, Any]]:
    """One JSON request to the server on *port*: ``(status, parsed body)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        payload = json.dumps(body) if body is not None else None
        connection.request(
            method, path, body=payload, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


def stream_events(port: int, ticket: str, timeout: float = 300.0) -> list[dict[str, Any]]:
    """Consume the ticket's SSE stream until the server closes it."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    events: list[dict[str, Any]] = []
    try:
        connection.request("GET", f"/requests/{ticket}/events")
        response = connection.getresponse()
        assert response.status == 200, f"SSE stream returned {response.status}"
        kind = None
        while True:
            raw = response.readline()
            if not raw:
                break  # server closed the stream
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith("event:"):
                kind = line.split(":", 1)[1].strip()
            elif line.startswith("data:"):
                payload = json.loads(line.split(":", 1)[1].strip())
                assert payload["kind"] == kind, "SSE event/data kind mismatch"
                events.append(payload)
    finally:
        connection.close()
    return events


# -- payload differ ------------------------------------------------------------------
def first_difference(expected: Any, actual: Any, path: str = "") -> Optional[str]:
    """Path of the first field where two JSON-like values differ, or ``None``.

    Walks dicts (in *expected*'s key order, then keys only *actual* has)
    and lists depth first; a missing key or a length mismatch is reported
    at the first absent position.
    """
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in [*expected, *(key for key in actual if key not in expected)]:
            where = f"{path}.{key}" if path else str(key)
            if key not in expected or key not in actual:
                return where
            found = first_difference(expected[key], actual[key], where)
            if found is not None:
                return found
        return None
    if isinstance(expected, (list, tuple)) and isinstance(actual, (list, tuple)):
        for index, (left, right) in enumerate(zip(expected, actual)):
            found = first_difference(left, right, f"{path}[{index}]")
            if found is not None:
                return found
        if len(expected) != len(actual):
            return f"{path}[{min(len(expected), len(actual))}]"
        return None
    return None if expected == actual else (path or "<root>")


def comparable(payload: dict[str, Any]) -> dict[str, Any]:
    """*payload* without what depends on timing and on earlier requests:
    ``cache_stats`` and each stage's ``seconds``."""
    clean = json.loads(json.dumps(payload))
    clean.pop("cache_stats", None)
    for stage in clean.get("stages", []):
        stage.pop("seconds", None)
    return clean


# -- training divergence -------------------------------------------------------------
def _at(values: list, index: int) -> object:
    return values[index] if index < len(values) else "<missing>"


def training_divergence(
    expected: PolicyGradientTrainer, actual: PolicyGradientTrainer
) -> Optional[str]:
    """The first difference between two trainers' outcomes, or ``None``.

    Compares the history episode by episode (returns and steps, then the
    greedy evaluations), then the weights and Adam state parameter by
    parameter, bit for bit.  ``cache_stats`` are left out: a resumed run
    starts with a cold cache.
    """
    histories = (expected.history, actual.history)
    for episode in range(max(len(h.episode_returns) for h in histories)):
        for name in ("episode_returns", "episode_steps"):
            left, right = (_at(getattr(h, name), episode) for h in histories)
            if left != right:
                return f"history: episode {episode} {name} {left!r} != {right!r}"
    for index in range(max(len(h.greedy_returns) for h in histories)):
        left, right = (_at(h.greedy_returns, index) for h in histories)
        if left != right:
            return f"history: greedy evaluation {index} (episode, return) {left!r} != {right!r}"
    parameters = zip(
        expected.policy.network.named_parameters(), actual.policy.network.named_parameters()
    )
    for index, ((name, left), (_, right)) in enumerate(parameters):
        if left.tobytes() != right.tobytes():
            flat = int(np.argmax(left.ravel() != right.ravel()))
            return (
                f"weights: parameter {index} ({name}) first differs at flat index "
                f"{flat}: {left.ravel()[flat].item()!r} != {right.ravel()[flat].item()!r}"
            )
    states = [t.optimizer.export_state(t.policy.network.weights()) for t in (expected, actual)]
    if states[0]["step"] != states[1]["step"]:
        return f"optimizer: step {states[0]['step']} != {states[1]['step']}"
    for index, (left, right) in enumerate(zip(states[0]["moments"], states[1]["moments"])):
        if left != right:
            return f"optimizer: moments of parameter {index} differ"
    return None


def assert_same_training(
    expected: PolicyGradientTrainer, actual: PolicyGradientTrainer, what: str = "run"
) -> None:
    """Raise ``AssertionError`` naming the first divergence of *actual*."""
    divergence = training_divergence(expected, actual)
    if divergence is not None:
        raise AssertionError(f"{what} diverged from the expected run: {divergence}")


# -- cluster replicas ----------------------------------------------------------------
def replica_main(
    index: int,
    root: str,
    port_queue,
    fault_json: Optional[str],
    episodes: int,
    lease_ttl: float,
) -> None:
    """One server replica over the store, cache, cancellation directory and
    execution journal under *root*; reports ``(index, port)`` on
    *port_queue*, then serves until terminated (or until *fault_json*'s
    plan kills it)."""
    if fault_json:
        install_plan(FaultPlan.from_json(fault_json))
    base = Path(root)
    engine = LinxEngine(
        cdrl_config=CdrlConfig(episodes=episodes),
        disk_cache_path=base / "cache.sqlite",
    )
    scheduler = RequestScheduler(
        engine,
        store=ResultStore(base / "results.sqlite"),
        max_workers=2,
        replica_id=f"replica-{index}",
        lease_ttl=lease_ttl,
        heartbeat_interval=lease_ttl / 4.0,
        cancel_dir=base / "cancel",
        execution_journal=base / "executions.log",
    )
    hosted = ServerThread(scheduler).start()
    port_queue.put((index, hosted.port))
    while True:
        time.sleep(3600)
