"""Fault-injection matrix: every scripted failure recovers on its own.

One proving test per :class:`~repro.reliability.FaultPlan` kind —
``crash_after_claim``, ``crash_before_commit``, ``sqlite_busy``,
``hung_stage``, ``torn_cache_write`` — each asserting recovery without
manual intervention and without duplicate execution, plus the primitives
they are built from: the shared sqlite retry helper, deterministic fault
plans, corrupt-database quarantine, lease coordination, and cross-process
cancellation.
"""

from __future__ import annotations

import json
import multiprocessing
import random
import sqlite3
import threading
import time
from collections import Counter

import pytest

from repro.cdrl import CdrlConfig
from repro.datasets import load_dataset
from repro.engine import (
    TICKET_CANCELLED,
    TICKET_DONE,
    TICKET_FAILED,
    ExploreRequest,
    LinxEngine,
    RequestScheduler,
    RequestTimeoutError,
    ResultStore,
    SessionOutcome,
)
from repro.reliability import (
    KIND_CRASH,
    KIND_HANG,
    SITE_CACHE_WRITE,
    SITE_CHECKPOINT,
    SITE_STORE_COMMIT,
    SITE_STORE_WRITE,
    FaultPlan,
    FaultSpec,
    FileCancelEvent,
    InjectedFaultError,
    clear_plan,
    fault_point,
    install_plan,
    is_transient_sqlite_error,
    retry_sqlite,
)
from repro.explore import session_from_operations
from repro.explore.cache import ExecutionCache
from repro.explore.diskcache import DiskCacheTier
from repro.explore.operations import FilterOperation, GroupAggOperation
from eager_oracle import plan_from
from harness import call, comparable, first_difference, replica_main
from store_helpers import get_payload, put

LDX = "ROOT CHILDREN <A1>\nA1 LIKE [G,.*]"


@pytest.fixture(autouse=True)
def _no_plan_leaks():
    """Every test starts and ends with no fault plan installed."""
    clear_plan()
    yield
    clear_plan()


def _request(**overrides) -> ExploreRequest:
    base = dict(goal="explore", dataset="netflix", num_rows=60, ldx_text=LDX)
    base.update(overrides)
    return ExploreRequest(**base)


class TickingGenerator:
    """Stub generator counting executions; ticks the cooperative checkpoint."""

    name = "ticking"

    def __init__(self, ticks: int = 3, tick_seconds: float = 0.01,
                 release: threading.Event | None = None):
        self.ticks = ticks
        self.tick_seconds = tick_seconds
        self.release = release
        self.calls = 0

    def generate(self, table, ldx_text, *, episodes=None, seed=None, cache=None,
                 on_episode=None):
        self.calls += 1
        episode = 0
        deadline = time.monotonic() + 30
        while True:
            if on_episode is not None:
                on_episode(episode, 0.0, None)
            episode += 1
            if self.release is not None:
                if self.release.is_set():
                    break
                if time.monotonic() > deadline:  # pragma: no cover - hang guard
                    raise RuntimeError("release event never set")
            elif episode >= self.ticks:
                break
            time.sleep(self.tick_seconds)
        session = session_from_operations(
            table,
            [
                FilterOperation("country", "eq", "India"),
                GroupAggOperation("type", "count", "type"),
            ],
            cache=cache,
        )
        return SessionOutcome(session=session, episodes_trained=episode)


def _scheduler(generator, store, **kwargs) -> RequestScheduler:
    engine = LinxEngine(session_generator=generator)
    return RequestScheduler(engine, store=store, max_workers=1, **kwargs)


# -- the shared retry helper ---------------------------------------------------------------

class TestRetrySqlite:
    def test_transient_errors_retry_then_succeed(self):
        sleeps: list[float] = []
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] <= 2:
                raise sqlite3.OperationalError("database is locked")
            return 42

        assert retry_sqlite(flaky, sleep=sleeps.append) == 42
        assert calls["n"] == 3
        assert len(sleeps) == 2
        # Bounded exponential backoff with jitter in [0.5, 1.0]x.
        assert all(0 < delay <= 0.25 for delay in sleeps)

    def test_non_retryable_error_raises_immediately(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise sqlite3.DatabaseError("file is not a database")

        with pytest.raises(sqlite3.DatabaseError):
            retry_sqlite(broken, sleep=lambda _: None)
        assert calls["n"] == 1

    def test_exhausted_attempts_reraise_and_report(self):
        observed: list[int] = []

        def wedged():
            raise sqlite3.OperationalError("database is locked")

        with pytest.raises(sqlite3.OperationalError):
            retry_sqlite(
                wedged, attempts=3, sleep=lambda _: None,
                on_retry=lambda attempt, exc, delay: observed.append(attempt),
            )
        assert observed == [0, 1]

    def test_delays_are_deterministic_with_seeded_rng(self):
        def capture_delays():
            sleeps: list[float] = []

            def wedged():
                raise sqlite3.OperationalError("database is busy")

            with pytest.raises(sqlite3.OperationalError):
                retry_sqlite(wedged, rng=random.Random(7), sleep=sleeps.append)
            return sleeps

        assert capture_delays() == capture_delays()

    def test_transient_classifier(self):
        assert is_transient_sqlite_error(sqlite3.OperationalError("database is locked"))
        assert is_transient_sqlite_error(sqlite3.OperationalError("database is busy"))
        assert not is_transient_sqlite_error(sqlite3.OperationalError("no such table: x"))
        assert not is_transient_sqlite_error(ValueError("locked"))


# -- fault plans ---------------------------------------------------------------------------

class TestFaultPlan:
    def test_json_round_trip_is_lossless(self):
        plan = FaultPlan([
            FaultSpec(SITE_STORE_COMMIT, KIND_CRASH, after=2, times=3),
            FaultSpec(SITE_CHECKPOINT, KIND_HANG, seconds=0.5),
        ])
        restored = FaultPlan.from_json(plan.to_json())
        assert [spec.to_dict() for spec in restored.specs] == [
            spec.to_dict() for spec in plan.specs
        ]

    def test_fires_exactly_on_scheduled_arrivals(self):
        install_plan(FaultPlan([
            FaultSpec(SITE_STORE_COMMIT, KIND_CRASH, after=1, times=1)
        ]))
        fault_point(SITE_STORE_COMMIT)  # arrival 1: before the window
        with pytest.raises(InjectedFaultError):
            fault_point(SITE_STORE_COMMIT)  # arrival 2: fires
        fault_point(SITE_STORE_COMMIT)  # arrival 3: window exhausted
        fault_point(SITE_CHECKPOINT)  # other sites never fire

    def test_busy_kind_raises_a_retryable_error(self):
        install_plan(FaultPlan.sqlite_busy(times=1))
        with pytest.raises(sqlite3.OperationalError) as excinfo:
            fault_point(SITE_STORE_WRITE)
        assert is_transient_sqlite_error(excinfo.value)

    def test_hang_kind_sleeps_for_the_scripted_duration(self):
        install_plan(FaultPlan.hung_stage(seconds=0.15))
        before = time.monotonic()
        fault_point(SITE_CHECKPOINT)
        assert time.monotonic() - before >= 0.12

    def test_no_plan_is_a_no_op(self):
        assert fault_point(SITE_STORE_COMMIT) is None


# -- the five scripted failure modes -------------------------------------------------------

class TestCrashAfterClaim:
    def test_crash_after_claim_fails_ticket_then_recovers(self, tmp_path):
        """A worker dying right after its lease commits must not wedge the hash."""
        generator = TickingGenerator()
        store = ResultStore(tmp_path / "results.sqlite")
        try:
            with _scheduler(generator, store, lease_ttl=5.0) as scheduler:
                install_plan(FaultPlan.crash_after_claim())
                ticket = scheduler.submit(_request())
                snapshot = scheduler.wait(ticket.ticket_id, timeout=60)
                assert snapshot["state"] == TICKET_FAILED
                assert snapshot["error_kind"] == "InjectedFaultError"
                # The crash hit before the engine ran: nothing executed,
                # nothing stored.
                assert generator.calls == 0
                assert len(store) == 0
                # The worker-hardening path recorded the traceback.
                events, _, done = scheduler.events_since(ticket.ticket_id)
                assert done
                assert "InjectedFaultError" in events[-1].payload["traceback"]
                # Recovery without intervention: once the fault clears, the
                # same hash re-claims (takeover of this replica's own stale
                # lease) and executes exactly once.
                clear_plan()
                retry = scheduler.submit(_request())
                assert retry.ticket_id != ticket.ticket_id
                assert scheduler.wait(retry.ticket_id, timeout=60)["state"] == TICKET_DONE
                assert generator.calls == 1
                assert len(store) == 1
        finally:
            store.close()

    def test_expired_crash_lease_is_taken_over_by_a_sibling(self, tmp_path):
        """A ghost lease (holder crashed, never released) expires and is re-claimed."""
        generator = TickingGenerator()
        store = ResultStore(tmp_path / "results.sqlite")
        try:
            with _scheduler(generator, store, lease_ttl=5.0) as scheduler:
                # Simulate the crashed sibling: a short-TTL lease on the
                # exact (namespace, hash) the submit below needs.
                request = _request()
                store.claim(
                    scheduler._store_namespace, request.canonical_hash(),
                    "ghost-replica", 0.3,
                )
                ticket = scheduler.submit(request)
                snapshot = scheduler.wait(ticket.ticket_id, timeout=60)
                assert snapshot["state"] == TICKET_DONE
                assert generator.calls == 1
                # The worker observed the foreign lease, waited, took over.
                assert scheduler.describe()["leases"]["waits"] >= 1
                assert store.describe()["leases"]["takeovers"] >= 1
        finally:
            store.close()


class TestCrashBeforeCommit:
    def test_crash_before_commit_reexecutes_on_resubmit(self, tmp_path):
        """Dying between execution and the store commit loses the work, not the hash."""
        generator = TickingGenerator()
        store = ResultStore(tmp_path / "results.sqlite")
        try:
            with _scheduler(generator, store) as scheduler:
                install_plan(FaultPlan.crash_before_commit())
                ticket = scheduler.submit(_request())
                snapshot = scheduler.wait(ticket.ticket_id, timeout=60)
                assert snapshot["state"] == TICKET_FAILED
                assert snapshot["error_kind"] == "InjectedFaultError"
                assert "store write failed" in snapshot["error"]
                # The engine DID run, but the commit was lost: no row.
                assert generator.calls == 1
                assert len(store) == 0
                # The lease was released on the failure path, so recovery
                # needs no TTL wait.
                assert store.lease(
                    scheduler._store_namespace, ticket.request_hash
                ) is None
                clear_plan()
                retry = scheduler.submit(_request())
                assert scheduler.wait(retry.ticket_id, timeout=60)["state"] == TICKET_DONE
                assert generator.calls == 2
                assert len(store) == 1
        finally:
            store.close()


class TestSqliteBusy:
    def test_store_claim_rides_out_a_busy_storm(self, tmp_path):
        """Three consecutive injected lock errors are absorbed by the backoff."""
        store = ResultStore(tmp_path / "results.sqlite")
        try:
            install_plan(FaultPlan.sqlite_busy(times=3))
            assert store.claim("ns", "hash-1", "replica-a", 30.0)
            assert store.write_retries == 3
            assert store.lease("ns", "hash-1")["replica_id"] == "replica-a"
        finally:
            store.close()

    def test_store_put_rides_out_a_busy_storm(self, tmp_path):
        engine = LinxEngine(session_generator=TickingGenerator())
        result = engine.explore(_request())
        store = ResultStore(tmp_path / "results.sqlite")
        try:
            install_plan(FaultPlan.sqlite_busy(times=2))
            put(store, "ns", "hash-1", result)
            assert store.write_retries == 2
            assert get_payload(store, "ns", "hash-1") == result.to_dict()
        finally:
            store.close()

    def test_sqlite_busy_exhaustion_degrades_cache_to_memory(self, tmp_path):
        """A disk tier that stays locked costs persistence, never the request."""
        flights = load_dataset("flights", num_rows=120)
        operation = FilterOperation("airline", "eq", "AA")
        result = flights.filter_rows(
            [value == "AA" for value in flights.column("airline").values]
        )
        plan = plan_from([operation])
        cache = ExecutionCache(disk=tmp_path / "cache.sqlite")
        try:
            cache.put_plan(flights, plan, result)
            # Storm longer than every retry attempt: the flush gives up.
            install_plan(FaultPlan.sqlite_busy(site=SITE_CACHE_WRITE, times=100))
            assert cache.flush() == 0
            assert cache.write_failures == 1
            assert cache.pending_writes == 0  # dropped, not retried forever
            assert len(cache.disk) == 0
            # The memory tier still serves the result.
            assert cache.get_plan(flights, plan) == result
            # And once the storm passes, later writes persist again.
            clear_plan()
            cache.put_plan(flights, plan, result)
            assert cache.flush() == 1
            assert len(cache.disk) == 1
        finally:
            cache.close()


class TestHungStage:
    def test_hung_stage_is_cancelled_by_the_deadline(self, tmp_path):
        """A hang at a checkpoint is observed by the deadline check right after it."""
        generator = TickingGenerator(ticks=10_000, tick_seconds=0.01)
        store = ResultStore(tmp_path / "results.sqlite")
        try:
            with _scheduler(generator, store) as scheduler:
                install_plan(FaultPlan.hung_stage(seconds=0.3))
                ticket = scheduler.submit(_request(), timeout=0.1)
                snapshot = scheduler.wait(ticket.ticket_id, timeout=60)
                assert snapshot["state"] == TICKET_CANCELLED
                assert snapshot["error_kind"] == "RequestTimeoutError"
                assert len(store) == 0
        finally:
            store.close()

    def test_hung_stage_times_out_at_engine_level(self):
        engine = LinxEngine(
            session_generator=TickingGenerator(ticks=10_000, tick_seconds=0.01)
        )
        install_plan(FaultPlan.hung_stage(seconds=0.3))
        with pytest.raises(RequestTimeoutError):
            engine.explore(_request(), timeout=0.1)


class TestTornCacheWrite:
    def test_torn_cache_write_repairs_as_a_miss(self, tmp_path):
        """A half-written payload reads as a miss, is removed, and re-puts cleanly."""
        flights = load_dataset("flights", num_rows=120)
        key = ExecutionCache.key_for(flights, FilterOperation("airline", "eq", "AA"))
        tier = DiskCacheTier(tmp_path / "cache.sqlite")
        try:
            install_plan(FaultPlan.torn_cache_write())
            tier.put(key, flights)
            assert len(tier) == 1  # the torn row IS on disk...
            clear_plan()
            assert tier.get(key) is None  # ...but reads repair it as a miss
            assert len(tier) == 0  # and the corrupt row is gone
            tier.put(key, flights)  # recovery: a clean re-put round-trips
            assert tier.get(key) == flights
        finally:
            tier.close()


# -- corrupt-database quarantine -----------------------------------------------------------

class TestQuarantine:
    def test_corrupt_store_is_quarantined_and_rebuilt(self, tmp_path):
        path = tmp_path / "results.sqlite"
        path.write_bytes(b"definitely not a sqlite database" * 64)
        store = ResultStore(path)
        try:
            assert store.quarantined_path is not None
            assert "corrupt" in store.quarantined_path
            # The corrupt bytes were preserved for post-mortems...
            assert (tmp_path / store.quarantined_path.rsplit("/", 1)[-1]).exists()
            # ...and the rebuilt store works immediately.
            assert store.claim("ns", "h", "replica", 30.0)
            assert len(store) == 0
            assert store.describe()["quarantined_path"] == store.quarantined_path
        finally:
            store.close()

    def test_corrupt_cache_tier_is_quarantined_and_rebuilt(self, tmp_path):
        flights = load_dataset("flights", num_rows=60)
        key = ExecutionCache.key_for(flights, FilterOperation("airline", "eq", "AA"))
        path = tmp_path / "cache.sqlite"
        path.write_bytes(b"\x00" * 4096)
        tier = DiskCacheTier(path)
        try:
            assert tier.quarantined_path is not None
            tier.put(key, flights)
            assert tier.get(key) == flights
        finally:
            tier.close()

    def test_healthy_files_are_not_quarantined(self, tmp_path):
        path = tmp_path / "results.sqlite"
        first = ResultStore(path)
        first.claim("ns", "h", "replica", 30.0)
        first.close()
        second = ResultStore(path)
        try:
            assert second.quarantined_path is None
        finally:
            second.close()


# -- exactly-once across replicas ----------------------------------------------------------

class TestExactlyOnceAcrossSchedulers:
    def test_two_schedulers_one_store_execute_once(self, tmp_path):
        """The second replica waits on the first's lease and serves its result."""
        release = threading.Event()
        generator_a = TickingGenerator(release=release)
        generator_b = TickingGenerator(release=release)
        store_a = ResultStore(tmp_path / "results.sqlite")
        store_b = ResultStore(tmp_path / "results.sqlite")
        request = _request()
        try:
            # Generous TTL: lease *expiry* is deliberately out of reach here
            # (takeover has its own test); a slow CI box must not let a's
            # lease lapse mid-execution and hand b a duplicate run.
            with _scheduler(generator_a, store_a, replica_id="a", lease_ttl=60.0) as a, \
                 _scheduler(generator_b, store_b, replica_id="b", lease_ttl=60.0) as b:
                namespace = a._store_namespace
                assert namespace == b._store_namespace  # identical configs
                ticket_a = a.submit(request)
                # Wait for replica a to claim the execution lease.
                deadline = time.monotonic() + 30
                while store_b.lease(namespace, request.canonical_hash()) is None:
                    assert time.monotonic() < deadline, "replica a never claimed"
                    time.sleep(0.01)
                ticket_b = b.submit(request)
                # Let a finish only once b is waiting on its lease.
                while b.describe()["leases"]["waits"] < 1:
                    assert time.monotonic() < deadline, "replica b never waited"
                    time.sleep(0.01)
                release.set()
                assert a.wait(ticket_a.ticket_id, timeout=60)["state"] == TICKET_DONE
                snapshot_b = b.wait(ticket_b.ticket_id, timeout=60)
                assert snapshot_b["state"] == TICKET_DONE
                # b never executed: it waited out a's lease and served the
                # stored result.
                assert snapshot_b["served_from_store"] is True
                assert generator_a.calls == 1
                assert generator_b.calls == 0
                assert b.describe()["leases"]["waits"] >= 1
                assert len(store_a) == 1
        finally:
            release.set()
            store_a.close()
            store_b.close()


def _submit(ports: list[int], payload: dict, offset: int, deadline: float) -> tuple[int, str]:
    """Submit *payload* round-robin from *offset*, failing over past dead
    replicas: ``(port, ticket)``."""
    while time.monotonic() < deadline:
        port = ports[offset % len(ports)]
        offset += 1
        try:
            status, body = call(port, "POST", "/requests", payload)
        except OSError:
            continue  # replica is gone: fail over to the next one
        if status in (429, 503):
            time.sleep(0.2)
            continue
        assert status == 202, f"submit returned {status}: {body}"
        return port, body["ticket"]
    raise AssertionError(f"request {payload['request_id']} not accepted in time")


def _serve_all(ports: list[int], payloads: list[dict]) -> list[dict]:
    """Submit every payload round-robin before fetching any, so duplicates of
    one hash are live on several replicas at once; a request whose replica
    dies is resubmitted to the next one.  The results, in order."""
    deadline = time.monotonic() + 180
    live = [_submit(ports, payload, offset, deadline) for offset, payload in enumerate(payloads)]
    results = []
    for offset, (payload, (port, ticket)) in enumerate(zip(payloads, live)):
        while True:
            assert time.monotonic() < deadline, f"{payload['request_id']} not served in time"
            try:
                status, body = call(port, "GET", f"/requests/{ticket}/result")
            except OSError:  # replica died mid-request: resubmit elsewhere
                offset += 1
                port, ticket = _submit(ports, payload, offset, deadline)
                continue
            if status == 200:
                results.append(body["result"])
                break
            assert status == 202, f"result returned {status}: {body}"
            time.sleep(0.25)
    return results


class TestReplicaCluster:
    REPLICAS, UNIQUE, DUPLICATES, EPISODES = 3, 7, 3, 6
    CRASH_EXIT_CODE = 23

    def _payload(self, unique: int, submission: int) -> dict:
        """Submissions of one unique request differ only in ``request_id``,
        which the canonical hash leaves out."""
        return {
            "request_id": f"req-u{unique}-s{submission}",
            "goal": f"explore viewing habits (variant {unique})",
            "dataset": "netflix",
            "num_rows": 200,
            "ldx_text": LDX,
            "episodes": self.EPISODES,
            "seed": unique,
        }

    def test_crash_after_claim_on_one_of_three_replicas(self, tmp_path):
        """Three replicas over one store serve 21 requests (7 hashes x 3, the
        three submissions of a hash on three replicas at once), while
        replica 0 hard-exits the moment its first lease commits: each hash
        executes and commits exactly once, a survivor takes the dead lease
        over, and every payload equals an unfaulted single-engine run."""
        context = multiprocessing.get_context("spawn")
        crash_plan = FaultPlan.crash_after_claim(exit_code=self.CRASH_EXIT_CODE).to_json()
        port_queue = context.Queue()
        procs = [
            context.Process(
                target=replica_main,
                args=(index, str(tmp_path), port_queue,
                      crash_plan if index == 0 else None, self.EPISODES, 2.0),
                daemon=True,
            )
            for index in range(self.REPLICAS)
        ]
        for proc in procs:
            proc.start()
        try:
            ports_by_index = dict(port_queue.get(timeout=300) for _ in procs)
            ports = [ports_by_index[index] for index in range(self.REPLICAS)]
            uniques = [unique for _ in range(self.DUPLICATES) for unique in range(self.UNIQUE)]
            payloads = [
                self._payload(unique, submission // self.UNIQUE)
                for submission, unique in enumerate(uniques)
            ]
            served = list(zip(uniques, _serve_all(ports, payloads)))
            procs[0].join(timeout=60)
            assert procs[0].exitcode == self.CRASH_EXIT_CODE
            assert all(proc.is_alive() for proc in procs[1:]), "a survivor died"

            journal = [
                json.loads(line)
                for line in (tmp_path / "executions.log").read_text().splitlines()
            ]
            for action in ("execute", "commit"):
                counts = Counter(
                    entry["request_hash"] for entry in journal if entry["action"] == action
                )
                assert len(counts) == self.UNIQUE, f"{action}: {len(counts)} hashes"
                repeated = {h: n for h, n in counts.items() if n != 1}
                assert not repeated, f"duplicate {action}s: {repeated}"
            with ResultStore(tmp_path / "results.sqlite") as audit:
                assert len(audit) == self.UNIQUE

            takeovers = 0
            for port in ports[1:]:
                _, stats = call(port, "GET", "/stats")
                takeovers += stats["store"]["leases"]["takeovers"]
                status, health = call(port, "GET", "/healthz")
                assert status == 200 and health["status"] == "ok"
            assert takeovers >= 1, "the dead replica's lease was never taken over"
        finally:
            for proc in procs:
                proc.terminate()
            for proc in procs:
                proc.join(timeout=30)

        engine = LinxEngine(
            cdrl_config=CdrlConfig(episodes=self.EPISODES),
            disk_cache_path=tmp_path / "baseline-cache.sqlite",
        )
        try:
            baselines = [
                comparable(engine.explore(
                    ExploreRequest.from_dict(self._payload(unique, 0))
                ).to_dict())
                for unique in range(self.UNIQUE)
            ]
        finally:
            engine.close()
        for unique, payload in served:
            payload = comparable(payload)
            payload["request"]["request_id"] = baselines[unique]["request"]["request_id"]
            differs = first_difference(baselines[unique], payload)
            assert differs is None, f"request u{unique}: cluster payload differs at {differs}"


# -- cross-process cancellation ------------------------------------------------------------

class TestProcessCancellation:
    def test_file_cancel_event_latches_across_instances(self, tmp_path):
        path = tmp_path / "batch.cancel"
        controller = FileCancelEvent(path)
        worker_side = FileCancelEvent(path, poll_interval=0.0)
        assert not worker_side.is_set()
        controller.set()
        assert worker_side.is_set()
        assert worker_side.wait(timeout=1.0)
        controller.clear()
        assert not path.exists()

    def test_scheduler_cancel_reaches_process_worker(self, tmp_path):
        """cancel() on a running process-mode ticket terminates at a checkpoint,
        writes no store row, and surfaces the cancelled stage status."""
        engine = LinxEngine(cdrl_config=CdrlConfig(episodes=5_000))
        store = ResultStore(tmp_path / "results.sqlite")
        try:
            with RequestScheduler(
                engine, store=store, workers="process", max_workers=1,
                cancel_dir=tmp_path / "cancel",
            ) as scheduler:
                ticket = scheduler.submit(
                    _request(num_rows=100, episodes=5_000, seed=0)
                )
                # Wait until the worker has streamed its first episode event:
                # the request is provably mid-stage in the other process.
                deadline = time.monotonic() + 120
                while not any(
                    event.kind == "episode"
                    for event in scheduler.events_since(ticket.ticket_id)[0]
                ):
                    assert time.monotonic() < deadline, "worker never started"
                    time.sleep(0.05)
                assert scheduler.cancel(ticket.ticket_id) is True
                snapshot = scheduler.wait(ticket.ticket_id, timeout=120)
                assert snapshot["state"] == TICKET_CANCELLED
                assert snapshot["error_kind"] == "RequestCancelledError"
                assert len(store) == 0
                # The generate stage was marked cancelled inside the worker
                # process (events may trail the terminal state briefly).
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    events, _, _ = scheduler.events_since(ticket.ticket_id)
                    if any(
                        event.payload.get("status") == "cancelled"
                        for event in events
                    ):
                        break
                    time.sleep(0.05)
                else:  # pragma: no cover - assertion context on timeout
                    raise AssertionError("no cancelled stage status event arrived")
        finally:
            store.close()
