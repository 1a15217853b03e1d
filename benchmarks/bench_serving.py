"""Benchmark — continuous cross-request batching under sustained serving load.

Drives the *real* HTTP serving stack twice — :class:`~repro.engine.core.LinxEngine`
behind a :class:`~repro.engine.scheduler.RequestScheduler` behind the asyncio
:class:`~repro.engine.server.LinxHttpServer` — with 8 concurrent HTTP clients
submitting CDRL exploration requests (distinct seeds) and blocking on the
Server-Sent-Events stream until each result lands:

* **unbatched** — every request trains its policy independently: one policy
  forward per environment step per request;
* **batched** — ``inference_batching=True``: all requests attach to the
  engine's :class:`~repro.engine.batcher.InferenceBatcher`, whose wave thread
  coalesces their observation rows into shared stacked forwards.

Both modes pool read-only exploration state (scorers, action spaces,
decision memos, LDX matchers) across requests through the engine's
:class:`~repro.cdrl.context.SharedExplorationContext`.

Batching must not change behaviour: for every client seed, the result payload
served over HTTP must be **bit-identical** between the two modes (modulo
per-stage wall-clock ``seconds`` and load-dependent ``cache_stats``, which are
excluded from result equality by design).  That assertion always gates.

Results land in ``BENCH_serving.json`` in the repository root.

Acceptance gates (enforced as assertions, run in CI):

* batched mode reaches ``REPRO_BENCH_MIN_SERVING_SPEEDUP`` x the unbatched
  request throughput (default 2.0 — the design target on idle multi-row
  hardware; wall-clock ratios are load-sensitive, and on a busy single-core
  runner the stacked forwards save Python dispatch but not FLOPs, so CI may
  lower the gate via the environment),
* batched payloads are bit-identical to unbatched payloads (never relaxable),
* the batcher actually coalesces: mean rows per wave >= 2.
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
from pathlib import Path

from conftest import print_table, scale

from repro.cdrl import CdrlConfig
from repro.engine import ExploreRequest, LinxEngine, RequestScheduler
from repro.engine.server import ServerThread

#: Minimum batched/unbatched request-throughput ratio (acceptance criterion).
#: The bit-identity assertions always gate; only this wall-clock ratio may be
#: relaxed through the environment on noisy or single-core runners.
MIN_SERVING_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_SERVING_SPEEDUP", "2.0"))

#: Minimum mean observation rows per inference wave (proves coalescing).
MIN_WAVE_OCCUPANCY = float(os.environ.get("REPRO_BENCH_MIN_WAVE_OCCUPANCY", "2.0"))

#: Where the machine-readable result lands (repository root).
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_serving.json"

CLIENTS = 8
NUM_ROWS = 400
LINGER_MS = 30.0

#: The serve.py comparison query: one branch per side of a country split.
LDX = (
    "ROOT CHILDREN <A1,A2>\n"
    "A1 LIKE [F,country,eq,(?<X>.*)] and CHILDREN {B1}\n"
    "B1 LIKE [G,(?<Y>.*),count,.*]\n"
    "A2 LIKE [F,country,neq,(?<X>.*)] and CHILDREN {B2}\n"
    "B2 LIKE [G,(?<Y>.*),count,.*]\n"
)


def _call(port: int, method: str, path: str, body: dict | None = None):
    """One JSON request against the local server."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=600)
    try:
        connection.request(
            method,
            path,
            body=json.dumps(body) if body is not None else None,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


def _drain_events(port: int, ticket: str) -> None:
    """Block on the ticket's SSE stream until the server closes it (terminal)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=600)
    try:
        connection.request("GET", f"/requests/{ticket}/events")
        response = connection.getresponse()
        while response.readline():
            pass
    finally:
        connection.close()


def _request(index: int, episodes: int) -> ExploreRequest:
    return ExploreRequest(
        goal="Find a country with different viewing habits than the rest",
        dataset="netflix",
        num_rows=NUM_ROWS,
        ldx_text=LDX,
        episodes=episodes,
        seed=index,
        request_id=f"bench-{index}",
    )


def _normalise(payload: dict) -> dict:
    """A result payload with the load-dependent fields stripped.

    ``cache_stats`` and per-stage ``seconds`` are the only fields that may
    legitimately differ between the two modes (they are excluded from
    :class:`ExploreResult` equality for the same reason); everything else
    must match bit for bit.
    """
    clean = json.loads(json.dumps(payload))
    clean.pop("cache_stats", None)
    for stage in clean.get("stages", []):
        stage.pop("seconds", None)
    return clean


def _run_mode(batched: bool, episodes: int):
    """One sustained-load burst against a fresh server; returns its telemetry."""
    engine = LinxEngine(
        cdrl_config=CdrlConfig(episodes=episodes),
        inference_batching=batched,
        batch_linger_ms=LINGER_MS,
    )
    scheduler = RequestScheduler(
        engine, max_workers=CLIENTS, max_pending=CLIENTS * 4, default_timeout=600
    )
    payloads: list[dict | None] = [None] * CLIENTS
    latencies: list[float] = [0.0] * CLIENTS
    errors: list[BaseException] = []
    barrier = threading.Barrier(CLIENTS + 1)
    try:
        with ServerThread(scheduler) as hosted:
            port = hosted.port

            # Warm-up request (untimed): materialises the dataset, the action
            # space, and the numpy kernels — steady-state serving, not cold
            # start, is what the burst measures.
            status, submitted = _call(
                port, "POST", "/requests", _request(999, episodes).to_dict()
            )
            assert status == 202, submitted
            _drain_events(port, submitted["ticket"])

            def client(index: int) -> None:
                try:
                    barrier.wait()
                    started = time.perf_counter()
                    status, submitted = _call(
                        port, "POST", "/requests", _request(index, episodes).to_dict()
                    )
                    assert status == 202, submitted
                    _drain_events(port, submitted["ticket"])
                    status, body = _call(
                        port, "GET", f"/requests/{submitted['ticket']}/result"
                    )
                    assert status == 200, body
                    latencies[index] = time.perf_counter() - started
                    payloads[index] = _normalise(body["result"])
                except BaseException as exc:  # noqa: BLE001 — surfaced in the main thread
                    errors.append(exc)

            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)
            ]
            for thread in threads:
                thread.start()
            barrier.wait()
            started = time.perf_counter()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - started
            _, stats = _call(port, "GET", "/stats")
        if errors:
            raise errors[0]
        return {
            "wall": wall,
            "latencies": latencies,
            "payloads": payloads,
            "batching": stats["scheduler"].get("batching"),
            "cache": engine.cache_stats(),
        }
    finally:
        scheduler.shutdown()
        engine.close()


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    position = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[position]


def _run_serving_benchmark():
    episodes = scale(30, 60)
    rounds = scale(2, 4)
    unbatched_runs, batched_runs = [], []
    for _ in range(rounds):  # interleaved A/B: load noise hits both modes alike
        unbatched_runs.append(_run_mode(False, episodes))
        batched_runs.append(_run_mode(True, episodes))

    # Best round per mode: on a shared box external load is strictly
    # additive, so the fastest round is the least-contaminated estimate of
    # each mode's sustained throughput (all rounds are recorded below).
    unbatched_wall = min(run["wall"] for run in unbatched_runs)
    batched_wall = min(run["wall"] for run in batched_runs)
    unbatched_throughput = CLIENTS / unbatched_wall
    batched_throughput = CLIENTS / batched_wall
    unbatched_latencies = [l for run in unbatched_runs for l in run["latencies"]]
    batched_latencies = [l for run in batched_runs for l in run["latencies"]]

    bit_identical = all(
        run["payloads"] == unbatched_runs[0]["payloads"]
        for run in unbatched_runs[1:] + batched_runs
    )
    batching = batched_runs[-1]["batching"]
    return [
        {
            "workload": f"serving: {CLIENTS} concurrent CDRL requests, batched vs unbatched",
            "kind": "continuous_batching",
            "clients": CLIENTS,
            "episodes": episodes,
            "rounds": rounds,
            "unbatched_wall_s": round(unbatched_wall, 3),
            "batched_wall_s": round(batched_wall, 3),
            "unbatched_walls_s": [round(run["wall"], 3) for run in unbatched_runs],
            "batched_walls_s": [round(run["wall"], 3) for run in batched_runs],
            "unbatched_requests_per_s": round(unbatched_throughput, 3),
            "batched_requests_per_s": round(batched_throughput, 3),
            "speedup": round(batched_throughput / unbatched_throughput, 2),
            "unbatched_latency_p50_s": round(_percentile(unbatched_latencies, 0.5), 3),
            "unbatched_latency_p95_s": round(_percentile(unbatched_latencies, 0.95), 3),
            "batched_latency_p50_s": round(_percentile(batched_latencies, 0.5), 3),
            "batched_latency_p95_s": round(_percentile(batched_latencies, 0.95), 3),
            "bit_identical": bit_identical,
            "mean_rows_per_wave": batching["mean_rows_per_wave"],
            "waves": batching["waves"],
            "batching": batching,
            "cache": batched_runs[-1]["cache"],
        }
    ]


def _emit_json(rows: list[dict]) -> None:
    payload = {
        "benchmark": "serving_continuous_batching",
        "dataset": "netflix",
        "num_rows": NUM_ROWS,
        "clients": CLIENTS,
        "linger_ms": LINGER_MS,
        "gates": {
            "min_serving_speedup": MIN_SERVING_SPEEDUP,
            "min_wave_occupancy": MIN_WAVE_OCCUPANCY,
        },
        "workloads": rows,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def test_serving_throughput(benchmark):
    rows = benchmark.pedantic(_run_serving_benchmark, iterations=1, rounds=1)
    for row in rows:
        printable = {k: v for k, v in row.items() if not isinstance(v, dict)}
        print_table(row["workload"], [printable])
    _emit_json(rows)
    # Bit-identity gates unconditionally: batching must be a pure scheduling
    # change, invisible in every served payload.
    assert all(row["bit_identical"] for row in rows)
    for row in rows:
        assert row["mean_rows_per_wave"] >= MIN_WAVE_OCCUPANCY, row
        assert row["speedup"] >= MIN_SERVING_SPEEDUP, row
