"""Fault-tolerance walkthrough: a replica cluster surviving a crash.

The serving tier runs as several replicas: server processes that share one
`ResultStore` file, coordinated by a **lease table** inside it.  Before
executing a request, a replica atomically claims its canonical hash, so
duplicated submissions across the cluster execute exactly once.  A
heartbeat renews held leases; a replica that dies stops renewing, its
leases expire after `lease_ttl`, and a surviving replica *takes over* the
work without operator intervention.

This script makes the failure visible:

1. boots three replicas (separate processes) over one store directory,
2. scripts replica 0 to hard-crash (`os._exit`) the instant its first
   execution lease commits — the nastiest moment, since the lease is now
   durably held by a corpse,
3. submits the same request to every replica, watches the survivors wait
   out the corpse's lease and take over,
4. prints the execution journal: one ``execute`` and one ``commit`` line
   per canonical hash, cluster-wide.

The deterministic fault harness (`repro.reliability.FaultPlan`) drives
step 2.  Run with::

    python examples/serve_cluster.py
"""

import http.client
import json
import multiprocessing
import tempfile
import time
from collections import Counter
from pathlib import Path

from repro.cdrl import CdrlConfig
from repro.engine import LinxEngine, RequestScheduler, ResultStore
from repro.engine.server import ServerThread
from repro.reliability import FaultPlan, install_plan

#: Short lease so the crashed replica's takeover happens in seconds.
LEASE_TTL = 2.0
#: Replica 0 hard-exits with this code when its first lease claim commits.
CRASH_EXIT_CODE = 23
EPISODES = 6

REQUEST = {
    "goal": "explore viewing habits",
    "dataset": "netflix",
    "num_rows": 200,
    "ldx_text": "ROOT CHILDREN <A1>\nA1 LIKE [G,.*]",
    "episodes": EPISODES,
    "seed": 0,
}


def _call(port, method, path, body=None):
    """One JSON request to the replica on *port*: ``(status, parsed body)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        connection.request(
            method, path, body=json.dumps(body) if body is not None else None,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


def _replica_main(index, root, port_queue, fault_json):
    """One server replica over the shared store/cache directory."""
    if fault_json:
        install_plan(FaultPlan.from_json(fault_json))
    base = Path(root)
    engine = LinxEngine(
        cdrl_config=CdrlConfig(episodes=EPISODES),
        disk_cache_path=base / "cache.sqlite",
    )
    scheduler = RequestScheduler(
        engine,
        store=ResultStore(base / "results.sqlite"),
        max_workers=2,
        replica_id=f"replica-{index}",
        lease_ttl=LEASE_TTL,
        heartbeat_interval=LEASE_TTL / 4.0,
        cancel_dir=base / "cancel",
        execution_journal=base / "executions.log",
    )
    hosted = ServerThread(scheduler).start()
    port_queue.put((index, hosted.port))
    while True:  # serve until terminated, or until the fault plan kills us
        time.sleep(3600)


def main() -> None:
    context = multiprocessing.get_context("spawn")
    crash_plan = FaultPlan.crash_after_claim(exit_code=CRASH_EXIT_CODE).to_json()

    with tempfile.TemporaryDirectory(prefix="linx-cluster-demo-") as root:
        port_queue = context.Queue()
        procs = [
            context.Process(
                target=_replica_main,
                args=(index, root, port_queue, crash_plan if index == 0 else None),
                daemon=True,
            )
            for index in range(3)
        ]
        for proc in procs:
            proc.start()
        ports = dict(port_queue.get(timeout=300) for _ in range(3))
        print(f"replicas up: {ports}")
        print("replica 0 is scripted to crash the moment its first lease commits\n")

        try:
            # The same canonical request to every replica: one must die
            # holding the lease, another must take over.
            payload = REQUEST
            for index in sorted(ports):
                body = dict(payload, request_id=f"demo-via-replica-{index}")
                try:
                    status, submitted = _call(ports[index], "POST", "/requests", body)
                    print(f"replica {index}: submit -> {status} "
                          f"ticket={submitted.get('ticket')}")
                except OSError:
                    # The scripted crash fires while this very submit is in
                    # flight: the lease commits, the process hard-exits, and
                    # the connection drops before a response is written.
                    print(f"replica {index}: connection dropped (crashed mid-request)")

            # Poll the survivors until one of them serves the result.
            result = None
            deadline = time.monotonic() + 120
            while result is None and time.monotonic() < deadline:
                for index in sorted(ports)[1:]:
                    body = dict(payload, request_id=f"demo-poll-{index}")
                    try:
                        status, submitted = _call(ports[index], "POST", "/requests", body)
                    except OSError:
                        continue
                    if status != 202:
                        continue
                    status, answer = _call(
                        ports[index], "GET",
                        f"/requests/{submitted['ticket']}/result",
                    )
                    if status == 200:
                        result = answer["result"]
                        print(f"\nreplica {index} served the result "
                              f"({len(result['operations'])} operations) after the "
                              f"takeover")
                        _, stats = _call(ports[index], "GET", "/stats")
                        print(f"lease takeovers: "
                              f"{stats['store']['leases']['takeovers']}, "
                              f"lease waits: {stats['scheduler']['leases']['waits']}")
                        break
                time.sleep(0.25)
            assert result is not None, "no survivor served the result in time"

            procs[0].join(timeout=30)
            print(f"\nreplica 0 exit code: {procs[0].exitcode} "
                  f"(scripted crash = {CRASH_EXIT_CODE}); lease TTL was {LEASE_TTL}s")

            journal = [
                json.loads(line)
                for line in (Path(root) / "executions.log").read_text().splitlines()
            ]
            per_action = Counter(entry["action"] for entry in journal)
            print(f"\nexecution journal ({per_action['execute']} execute, "
                  f"{per_action['commit']} commit):")
            for entry in journal:
                print(f"  {entry['action']:<8} {entry['request_hash'][:12]}… "
                      f"by {entry['replica']}")
            print("\nexactly-once: every hash has one execute and one commit, "
                  "even though three replicas were asked and one died mid-claim")
        finally:
            for proc in procs[1:]:
                proc.terminate()
            for proc in procs[1:]:
                proc.join(timeout=30)


if __name__ == "__main__":
    main()
