"""Multi-replica fault-tolerance smoke: exactly-once serving under a crash.

Boots **three** HTTP server replicas — separate processes, separate
schedulers — over ONE shared store/cache directory, drives ≥ 20 requests
with heavily duplicated canonical hashes through a round-robin client,
and kills one replica mid-request with a scripted
:class:`~repro.reliability.FaultPlan` (a hard ``os._exit`` the instant
its first execution lease commits — the worst case: the lease is held by
a corpse).  It then asserts the fault-tolerance contract of the serving
tier end to end:

* **exactly-once execution** — every canonical request hash was executed
  exactly once across the whole cluster (execution-journal ``execute`` /
  ``commit`` lines and the store's row count agree), no matter how many
  duplicate submissions arrived or which replica died;
* **lease takeover** — the crashed replica's lease expired and a
  surviving replica re-executed its request without manual intervention
  (the survivors' ``/stats`` report the takeover);
* **bit-identical payloads** — every served result is identical to a
  single-replica unfaulted baseline run, byte for byte, modulo wall-clock
  fields (per-stage ``seconds``, ``cache_stats``) and the client-chosen
  ``request_id``.

Run exactly as CI does::

    PYTHONPATH=src python -m repro.engine.serve_cluster
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Any, Optional

from repro.cdrl.agent import CdrlConfig
from repro.reliability import FaultPlan, install_plan

from .core import LinxEngine
from .request import ExploreRequest
from .scheduler import RequestScheduler
from .serve_smoke import _call
from .server import ServerThread
from .store import ResultStore

#: Cluster shape and workload (≥ 20 requests, heavy hash duplication).
REPLICAS = 3
UNIQUE_REQUESTS = 7
DUPLICATES = 3  # 7 unique x 3 submissions = 21 requests on the wire
EPISODES = 6
NUM_ROWS = 200
LDX = "ROOT CHILDREN <A1>\nA1 LIKE [G,.*]"

#: Short lease so the killed replica's takeover happens in seconds.
LEASE_TTL = 2.0

#: The injected crash: replica 0 hard-exits with this code the moment its
#: first lease claim commits (killed mid-request, lease held by a corpse).
CRASH_EXIT_CODE = 23


def _request_payload(unique: int, submission: int) -> dict[str, Any]:
    """Submission *submission* of unique request *unique*.

    The ``request_id`` differs per submission while everything the
    canonical hash covers is identical — duplicates by construction.
    """
    return {
        "request_id": f"req-u{unique}-s{submission}",
        "goal": f"explore viewing habits (variant {unique})",
        "dataset": "netflix",
        "num_rows": NUM_ROWS,
        "ldx_text": LDX,
        "episodes": EPISODES,
        "seed": unique,
    }


def _replica_main(
    index: int,
    root: str,
    port_queue: "multiprocessing.Queue",
    fault_json: Optional[str],
) -> None:
    """One server replica over the shared store/cache directory."""
    if fault_json:
        install_plan(FaultPlan.from_json(fault_json))
    base = Path(root)
    engine = LinxEngine(
        cdrl_config=CdrlConfig(episodes=EPISODES),
        disk_cache_path=base / "cache.sqlite",
    )
    store = ResultStore(base / "results.sqlite")
    scheduler = RequestScheduler(
        engine,
        store=store,
        max_workers=2,
        replica_id=f"replica-{index}",
        lease_ttl=LEASE_TTL,
        heartbeat_interval=LEASE_TTL / 4.0,
        cancel_dir=base / "cancel",
        execution_journal=base / "executions.log",
    )
    hosted = ServerThread(scheduler).start()
    port_queue.put((index, hosted.port))
    # Serve until the parent terminates us (SIGTERM) — or until the fault
    # plan hard-kills the process mid-request.
    while True:
        time.sleep(3600)


def _submit_and_fetch(
    ports: list[int], payload: dict[str, Any], start: int,
    deadline_seconds: float = 180.0,
) -> dict[str, Any]:
    """Round-robin client with failover: submit, poll, resubmit on a dead replica."""
    deadline = time.monotonic() + deadline_seconds
    offset = start
    while time.monotonic() < deadline:
        port = ports[offset % len(ports)]
        offset += 1
        try:
            status, body = _call(port, "POST", "/requests", payload)
        except OSError:
            continue  # replica is gone: fail over to the next one
        if status in (429, 503):
            time.sleep(0.2)
            continue
        assert status == 202, f"submit returned {status}: {body}"
        ticket = body["ticket"]
        while time.monotonic() < deadline:
            try:
                status, body = _call(port, "GET", f"/requests/{ticket}/result")
            except OSError:
                break  # replica died mid-request: resubmit elsewhere
            if status == 200:
                return body["result"]
            assert status == 202, f"result returned {status}: {body}"
            time.sleep(0.25)
    raise AssertionError(f"request {payload['request_id']} not served in time")


def _normalise(payload: dict[str, Any]) -> dict[str, Any]:
    """Strip wall-clock and identity fields; everything else must be identical."""
    clean = json.loads(json.dumps(payload))
    clean.pop("cache_stats", None)
    for stage in clean.get("stages", []):
        stage.pop("seconds", None)
    clean.get("request", {}).pop("request_id", None)
    return clean


def main(argv: Optional[list[str]] = None) -> int:
    argparse.ArgumentParser(
        prog="python -m repro.engine.serve_cluster",
        description="Multi-replica exactly-once/crash-takeover smoke check.",
    ).parse_args(argv)

    started = time.time()
    context = multiprocessing.get_context("spawn")
    crash_plan = FaultPlan.crash_after_claim(exit_code=CRASH_EXIT_CODE).to_json()

    with tempfile.TemporaryDirectory(prefix="linx-cluster-") as root:
        port_queue = context.Queue()
        procs = [
            context.Process(
                target=_replica_main,
                args=(index, root, port_queue, crash_plan if index == 0 else None),
                daemon=True,
            )
            for index in range(REPLICAS)
        ]
        for proc in procs:
            proc.start()
        ports_by_index = dict(port_queue.get(timeout=300) for _ in range(REPLICAS))
        ports = [ports_by_index[index] for index in range(REPLICAS)]
        print(f"[cluster] {REPLICAS} replicas up on ports {ports} "
              f"(replica 0 scripted to crash on its first lease claim)")

        try:
            # ---- drive the duplicated workload round-robin ---------------------
            results: dict[str, list[dict[str, Any]]] = {}
            submission_index = 0
            for duplicate in range(DUPLICATES):
                for unique in range(UNIQUE_REQUESTS):
                    payload = _request_payload(unique, duplicate)
                    result = _submit_and_fetch(ports, payload, submission_index)
                    results.setdefault(f"u{unique}", []).append(result)
                    submission_index += 1
            total = sum(len(group) for group in results.values())
            assert total == UNIQUE_REQUESTS * DUPLICATES >= 20
            print(f"[cluster] {total} requests served "
                  f"({UNIQUE_REQUESTS} unique hashes x {DUPLICATES} submissions)")

            # ---- the injected crash actually happened --------------------------
            procs[0].join(timeout=60)
            assert procs[0].exitcode == CRASH_EXIT_CODE, (
                f"replica 0 should have crashed with exit code {CRASH_EXIT_CODE}, "
                f"got {procs[0].exitcode}"
            )
            for proc in procs[1:]:
                assert proc.is_alive(), "a survivor replica died unexpectedly"
            print(f"[cluster] replica 0 crashed as scripted "
                  f"(exit code {procs[0].exitcode}); survivors healthy")

            # ---- exactly-once execution ----------------------------------------
            journal = [
                json.loads(line)
                for line in (Path(root) / "executions.log").read_text().splitlines()
            ]
            executes = Counter(
                entry["request_hash"] for entry in journal if entry["action"] == "execute"
            )
            commits = Counter(
                entry["request_hash"] for entry in journal if entry["action"] == "commit"
            )
            assert len(commits) == UNIQUE_REQUESTS, (
                f"expected {UNIQUE_REQUESTS} committed hashes, got {len(commits)}"
            )
            duplicated = {h: n for h, n in executes.items() if n != 1}
            assert not duplicated, f"duplicate executions: {duplicated}"
            duplicated = {h: n for h, n in commits.items() if n != 1}
            assert not duplicated, f"duplicate commits: {duplicated}"
            with ResultStore(Path(root) / "results.sqlite") as audit:
                rows = len(audit)
            assert rows == UNIQUE_REQUESTS, (
                f"store holds {rows} rows, expected {UNIQUE_REQUESTS}"
            )
            print(f"[cluster] exactly-once verified: {len(commits)} hashes, "
                  f"one execute + one commit each; store rows = {rows}")

            # ---- lease takeover of the corpse's claim --------------------------
            takeovers = 0
            for port in ports[1:]:
                _, stats = _call(port, "GET", "/stats")
                takeovers += stats["store"]["leases"]["takeovers"]
                health_status, health = _call(port, "GET", "/healthz")
                assert health_status == 200 and health["status"] == "ok"
            assert takeovers >= 1, (
                "the crashed replica's expired lease was never taken over"
            )
            print(f"[cluster] lease takeovers by survivors: {takeovers}")
        finally:
            for proc in procs[1:]:
                proc.terminate()
            for proc in procs[1:]:
                proc.join(timeout=30)

        # ---- bit-identity against a single-replica unfaulted run --------------
        with tempfile.TemporaryDirectory(prefix="linx-baseline-") as baseline_root:
            engine = LinxEngine(
                cdrl_config=CdrlConfig(episodes=EPISODES),
                disk_cache_path=Path(baseline_root) / "cache.sqlite",
            )
            try:
                for unique in range(UNIQUE_REQUESTS):
                    request = ExploreRequest.from_dict(
                        _request_payload(unique, submission=99)
                    )
                    baseline = _normalise(engine.explore(request).to_dict())
                    for served in results[f"u{unique}"]:
                        assert _normalise(served) == baseline, (
                            f"request u{unique}: cluster payload differs from the "
                            f"unfaulted single-replica baseline"
                        )
            finally:
                engine.close()
        print(f"[cluster] all {total} payloads bit-identical to the unfaulted "
              f"baseline (modulo timings and request_id)")

    print(f"[cluster] SMOKE OK in {time.time() - started:.1f}s: exactly-once, "
          f"crash takeover, and bit-identity all verified")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
