"""Tests for the request scheduler (lifecycle, dedup, back-pressure, cancel)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.cdrl import CdrlConfig
from repro.engine import (
    EVENT_EPISODE,
    EVENT_REQUEST_CANCELLED,
    EVENT_REQUEST_FAILED,
    EVENT_REQUEST_FINISHED,
    EVENT_REQUEST_STARTED,
    TICKET_CANCELLED,
    TICKET_DONE,
    TICKET_FAILED,
    ExploreRequest,
    LinxEngine,
    RequestCancelledError,
    RequestScheduler,
    RequestTimeoutError,
    RequestValidationError,
    ResultStore,
    SchedulerFullError,
    SessionOutcome,
)
from repro.explore import session_from_operations
from repro.explore.operations import FilterOperation, GroupAggOperation
from repro.llm import chatgpt_client, gpt4_client

LDX = "ROOT CHILDREN <A1>\nA1 LIKE [G,.*]"


def _request(**overrides) -> ExploreRequest:
    base = dict(goal="explore", dataset="netflix", num_rows=60, ldx_text=LDX)
    base.update(overrides)
    return ExploreRequest(**base)


class TickingGenerator:
    """A stub generator that ticks episodes until released or interrupted.

    ``on_episode`` is the engine's cooperative checkpoint, so raising a
    cancellation/timeout from inside it (the engine's guard does) aborts
    generation exactly as it would abort real CDRL training.
    """

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
                if time.monotonic() > deadline:  # pragma: no cover - test hang guard
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


def _scheduler(generator=None, **kwargs) -> RequestScheduler:
    engine = LinxEngine(session_generator=generator or TickingGenerator())
    return RequestScheduler(engine, **kwargs)


class TestLifecycle:
    def test_ticket_runs_to_done_with_ordered_events(self):
        with _scheduler(max_workers=1) as scheduler:
            ticket = scheduler.submit(_request(request_id="life"))
            snapshot = scheduler.wait(ticket.ticket_id, timeout=60)
            assert snapshot["state"] == TICKET_DONE
            assert snapshot["started_at"] >= snapshot["submitted_at"]
            assert snapshot["finished_at"] >= snapshot["started_at"]
            events, cursor, done = scheduler.events_since(ticket.ticket_id)
            assert done
            kinds = [event.kind for event in events]
            assert kinds[0] == EVENT_REQUEST_STARTED
            assert kinds[-1] == EVENT_REQUEST_FINISHED
            assert EVENT_EPISODE in kinds
            assert all(event.request_id == "life" for event in events)
            payload = scheduler.result_payload(ticket.ticket_id)
            assert payload["operations"]

    def test_invalid_request_rejected_without_ticket(self):
        with _scheduler(max_workers=1) as scheduler:
            with pytest.raises(RequestValidationError):
                scheduler.submit(_request(goal="  "))
            assert scheduler.describe()["tickets"] == 0

    def test_failed_request_becomes_failed_ticket(self):
        class Exploding:
            name = "boom"

            def generate(self, table, ldx_text, **kwargs):
                raise RuntimeError("kaput")

        with _scheduler(Exploding(), max_workers=1) as scheduler:
            ticket = scheduler.submit(_request())
            snapshot = scheduler.wait(ticket.ticket_id, timeout=60)
            assert snapshot["state"] == TICKET_FAILED
            assert "kaput" in snapshot["error"]
            events, _, done = scheduler.events_since(ticket.ticket_id)
            assert done
            assert events[-1].kind == EVENT_REQUEST_FAILED
            assert scheduler.result_payload(ticket.ticket_id) is None

    def test_wait_times_out_on_live_ticket(self):
        release = threading.Event()
        try:
            with _scheduler(TickingGenerator(release=release), max_workers=1) as scheduler:
                ticket = scheduler.submit(_request())
                with pytest.raises(TimeoutError):
                    scheduler.wait(ticket.ticket_id, timeout=0.2)
                release.set()
                assert scheduler.wait(ticket.ticket_id, timeout=60)["state"] == TICKET_DONE
        finally:
            release.set()


class TestDeduplication:
    def test_identical_live_request_joins_ticket(self):
        release = threading.Event()
        try:
            with _scheduler(TickingGenerator(release=release), max_workers=1) as scheduler:
                first = scheduler.submit(_request(seed=1))
                second = scheduler.submit(_request(seed=1))
                assert second.ticket_id == first.ticket_id
                assert second.deduplicated
                distinct = scheduler.submit(_request(seed=2))
                assert distinct.ticket_id != first.ticket_id
                release.set()
                scheduler.wait(first.ticket_id, timeout=60)
                scheduler.wait(distinct.ticket_id, timeout=60)
        finally:
            release.set()

    def test_completed_request_without_store_reexecutes(self):
        generator = TickingGenerator()
        with _scheduler(generator, max_workers=1) as scheduler:
            first = scheduler.submit(_request())
            scheduler.wait(first.ticket_id, timeout=60)
            second = scheduler.submit(_request())
            assert second.ticket_id != first.ticket_id
            scheduler.wait(second.ticket_id, timeout=60)
            assert generator.calls == 2


class TestBackPressure:
    def test_full_queue_raises_scheduler_full(self):
        release = threading.Event()
        try:
            with _scheduler(
                TickingGenerator(release=release), max_workers=1, max_pending=2
            ) as scheduler:
                scheduler.submit(_request(seed=1))
                scheduler.submit(_request(seed=2))
                with pytest.raises(SchedulerFullError) as excinfo:
                    scheduler.submit(_request(seed=3))
                assert excinfo.value.capacity == 2
                release.set()
        finally:
            release.set()

    def test_capacity_frees_up_after_completion(self):
        with _scheduler(max_workers=1, max_pending=1) as scheduler:
            first = scheduler.submit(_request(seed=1))
            scheduler.wait(first.ticket_id, timeout=60)
            second = scheduler.submit(_request(seed=2))
            assert scheduler.wait(second.ticket_id, timeout=60)["state"] == TICKET_DONE


class TestCancellation:
    def test_cancel_queued_ticket(self, tmp_path):
        release = threading.Event()
        store = ResultStore(tmp_path / "results.sqlite")
        try:
            with _scheduler(
                TickingGenerator(release=release), max_workers=1, store=store
            ) as scheduler:
                running = scheduler.submit(_request(seed=1))
                queued = scheduler.submit(_request(seed=2))
                assert scheduler.cancel(queued.ticket_id)
                snapshot = scheduler.status(queued.ticket_id)
                assert snapshot["state"] == TICKET_CANCELLED
                events, _, done = scheduler.events_since(queued.ticket_id)
                assert done
                assert events[-1].kind == EVENT_REQUEST_CANCELLED
                release.set()
                scheduler.wait(running.ticket_id, timeout=60)
                # Only the completed request reached the store — a cancelled
                # ticket never leaves a row.
                assert len(store) == 1
                assert queued.request_hash not in store.request_hashes()
        finally:
            release.set()
            store.close()

    def test_cancel_running_ticket_cooperatively(self, tmp_path):
        release = threading.Event()
        store = ResultStore(tmp_path / "results.sqlite")
        try:
            with _scheduler(
                TickingGenerator(release=release, tick_seconds=0.02),
                max_workers=1,
                store=store,
            ) as scheduler:
                ticket = scheduler.submit(_request())
                # Wait for the first episode tick: the request is mid-stage.
                deadline = time.monotonic() + 30
                while not scheduler.status(ticket.ticket_id)["events_seen"]:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                assert scheduler.cancel(ticket.ticket_id)
                snapshot = scheduler.wait(ticket.ticket_id, timeout=60)
                assert snapshot["state"] == TICKET_CANCELLED
                assert snapshot["error_kind"] == "RequestCancelledError"
                assert len(store) == 0
        finally:
            release.set()
            store.close()

    def test_cancel_terminal_ticket_reports_false(self):
        with _scheduler(max_workers=1) as scheduler:
            ticket = scheduler.submit(_request())
            scheduler.wait(ticket.ticket_id, timeout=60)
            assert not scheduler.cancel(ticket.ticket_id)

    def test_shutdown_cancels_queued_tickets(self):
        release = threading.Event()
        try:
            scheduler = _scheduler(TickingGenerator(release=release), max_workers=1)
            running = scheduler.submit(_request(seed=1))
            deadline = time.monotonic() + 30
            while scheduler.status(running.ticket_id)["state"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            queued = scheduler.submit(_request(seed=2))
            release.set()
            scheduler.shutdown()
            assert scheduler.status(running.ticket_id)["state"] == TICKET_DONE
            assert scheduler.status(queued.ticket_id)["state"] == TICKET_CANCELLED
            with pytest.raises(RuntimeError):
                scheduler.submit(_request(seed=3))
        finally:
            release.set()


class TestTimeouts:
    def test_request_timeout_cancels_ticket(self, tmp_path):
        store = ResultStore(tmp_path / "results.sqlite")
        try:
            with _scheduler(
                TickingGenerator(ticks=10_000, tick_seconds=0.02),
                max_workers=1,
                store=store,
            ) as scheduler:
                ticket = scheduler.submit(_request(), timeout=0.15)
                snapshot = scheduler.wait(ticket.ticket_id, timeout=60)
                assert snapshot["state"] == TICKET_CANCELLED
                assert snapshot["error_kind"] == "RequestTimeoutError"
                assert len(store) == 0
        finally:
            store.close()

    def test_default_timeout_applies(self):
        with _scheduler(
            TickingGenerator(ticks=10_000, tick_seconds=0.02),
            max_workers=1,
            default_timeout=0.15,
        ) as scheduler:
            ticket = scheduler.submit(_request())
            assert scheduler.wait(ticket.ticket_id, timeout=60)["state"] == TICKET_CANCELLED


class TestEngineCooperativeInterruption:
    """The engine-level primitives the scheduler builds on."""

    def test_explore_timeout_raises(self):
        engine = LinxEngine(
            session_generator=TickingGenerator(ticks=10_000, tick_seconds=0.02)
        )
        with pytest.raises(RequestTimeoutError):
            engine.explore(_request(), timeout=0.15)

    def test_explore_cancel_event_raises(self):
        cancel = threading.Event()
        cancel.set()
        engine = LinxEngine(session_generator=TickingGenerator())
        with pytest.raises(RequestCancelledError):
            engine.explore(_request(), cancel_event=cancel)

    def test_generate_stage_marked_cancelled(self):
        from repro.engine import STAGE_GENERATE, STATUS_CANCELLED

        engine = LinxEngine(
            session_generator=TickingGenerator(ticks=10_000, tick_seconds=0.02)
        )
        events = []
        with pytest.raises(RequestTimeoutError):
            engine.explore(_request(), timeout=0.15, observer=events.append)
        cancelled = [
            event for event in events
            if event.payload.get("status") == STATUS_CANCELLED
        ]
        assert cancelled and cancelled[0].stage == STAGE_GENERATE


def _raise_stage_failure():
    from repro.engine import StageFailedError

    raise StageFailedError("generate_session", RuntimeError("boom"))


class TestErrorPickling:
    """Engine errors must cross the process-pool pipe intact."""

    def test_errors_round_trip_through_pickle(self):
        import pickle

        from repro.engine import FieldError, StageFailedError

        samples = [
            StageFailedError("generate_session", RuntimeError("boom")),
            RequestCancelledError("req-1"),
            RequestTimeoutError("req-1", 30.0),
            SchedulerFullError(5, 4),
            RequestValidationError([FieldError("goal", "bad")]),
        ]
        for exc in samples:
            restored = pickle.loads(pickle.dumps(exc))
            assert type(restored) is type(exc)
            assert str(restored) == str(exc)
        assert pickle.loads(pickle.dumps(samples[2])).timeout == 30.0
        assert pickle.loads(pickle.dumps(samples[4])).fields() == ("goal",)

    def test_stage_failure_does_not_brick_a_process_pool(self):
        from concurrent.futures import ProcessPoolExecutor

        from repro.engine import StageFailedError

        with ProcessPoolExecutor(max_workers=1) as pool:
            with pytest.raises(StageFailedError, match="generate_session"):
                pool.submit(_raise_stage_failure).result()
            # An unpicklable exception would have broken the pool here and
            # failed every later task of the long-lived scheduler pool.
            assert pool.submit(len, [1, 2]).result() == 2


class TestConfigFingerprint:
    def test_custom_stage_objects_change_the_namespace(self):
        class LoudGenerator(TickingGenerator):
            name = "loud"

        default = LinxEngine(cdrl_config=CdrlConfig(episodes=5))
        custom = LinxEngine(
            cdrl_config=CdrlConfig(episodes=5), session_generator=LoudGenerator()
        )
        same_custom = LinxEngine(
            cdrl_config=CdrlConfig(episodes=5), session_generator=LoudGenerator()
        )
        assert default.config_fingerprint() != custom.config_fingerprint()
        assert custom.config_fingerprint() == same_custom.config_fingerprint()

    def test_episode_budget_changes_the_namespace(self):
        a = LinxEngine(cdrl_config=CdrlConfig(episodes=5))
        b = LinxEngine(cdrl_config=CdrlConfig(episodes=9))
        assert a.config_fingerprint() != b.config_fingerprint()

    def test_llm_client_changes_the_namespace(self):
        # The client derives the specification, so two engines that differ
        # only in it produce different results and must not share a namespace.
        default = LinxEngine(cdrl_config=CdrlConfig(episodes=5))
        chatgpt = LinxEngine(cdrl_config=CdrlConfig(episodes=5), llm_client=chatgpt_client())
        assert default.config_fingerprint() != chatgpt.config_fingerprint()
        assert (
            LinxEngine(cdrl_config=CdrlConfig(episodes=5), llm_client=gpt4_client())
            .config_fingerprint()
            == default.config_fingerprint()
        )

    def test_engine_level_stage_selection_changes_the_namespace(self):
        a = LinxEngine(cdrl_config=CdrlConfig(episodes=5))
        b = LinxEngine(
            cdrl_config=CdrlConfig(episodes=5),
            stages={"session_generator": "atena"},
        )
        assert a.config_fingerprint() != b.config_fingerprint()


class TestProcessExecution:
    def test_process_scheduler_streams_episode_events(self, tmp_path):
        engine = LinxEngine(cdrl_config=CdrlConfig(episodes=5))
        store = ResultStore(tmp_path / "results.sqlite")
        try:
            with RequestScheduler(
                engine, store=store, workers="process", max_workers=1
            ) as scheduler:
                ticket = scheduler.submit(_request(num_rows=100, episodes=5, seed=0))
                snapshot = scheduler.wait(ticket.ticket_id, timeout=300)
                assert snapshot["state"] == TICKET_DONE
                events, _, done = scheduler.events_since(ticket.ticket_id)
                assert done
                kinds = [event.kind for event in events]
                # Episode-level progress crossed the process boundary.
                assert EVENT_EPISODE in kinds
                assert kinds[0] == EVENT_REQUEST_STARTED
                assert kinds[-1] == EVENT_REQUEST_FINISHED
                # Identical resubmission is served from the store.
                replay = scheduler.submit(_request(num_rows=100, episodes=5, seed=0))
                assert scheduler.wait(replay.ticket_id, timeout=30)["served_from_store"]
        finally:
            store.close()

    def test_storeless_scheduler_removes_only_its_own_cancel_dir(self, tmp_path):
        """Without a store, the sentinel registry is a temp dir made on the
        first process request; shutdown removes it, but never a caller's."""
        engine = LinxEngine(cdrl_config=CdrlConfig(episodes=3))
        given = tmp_path / "cancel"
        given.mkdir()
        dirs = []
        for cancel_dir in (None, given):
            with RequestScheduler(
                engine, workers="process", max_workers=1, cancel_dir=cancel_dir
            ) as scheduler:
                ticket = scheduler.submit(_request(num_rows=60, episodes=3, seed=0))
                assert scheduler.wait(ticket.ticket_id, timeout=300)["state"] == TICKET_DONE
                dirs.append(scheduler._cancel_dir)
                assert dirs[-1].is_dir()
        made, kept = dirs
        assert made != given and not made.exists()
        assert kept == given and given.is_dir()

    def test_process_scheduler_rejects_custom_stage_objects(self):
        engine = LinxEngine(session_generator=TickingGenerator())
        with pytest.raises(ValueError):
            RequestScheduler(engine, workers="process")


class TestTerminalRetention:
    def test_constructor_validates_retention_arguments(self):
        engine = LinxEngine(session_generator=TickingGenerator())
        with pytest.raises(ValueError, match="max_terminal_tickets"):
            RequestScheduler(engine, max_terminal_tickets=0)
        with pytest.raises(ValueError, match="terminal_events_keep"):
            RequestScheduler(engine, terminal_events_keep=-1)

    def test_old_terminal_tickets_are_truncated_then_dropped(self):
        with _scheduler(
            max_workers=1, max_terminal_tickets=2, terminal_events_keep=1
        ) as scheduler:
            tickets = []
            for index in range(4):
                ticket = scheduler.submit(_request(request_id=f"gc-{index}", seed=index))
                scheduler.wait(ticket.ticket_id, timeout=60)
                tickets.append(ticket.ticket_id)

            # The two oldest were dropped entirely: unknown ticket.
            for dropped in tickets[:2]:
                with pytest.raises(KeyError):
                    scheduler.status(dropped)
            # The third is retained but truncated to its terminal event.
            events, _, done = scheduler.events_since(tickets[2])
            assert done
            assert [event.kind for event in events] == [EVENT_REQUEST_FINISHED]
            assert scheduler.status(tickets[2])["state"] == TICKET_DONE
            # The newest keeps its full event log.
            events, _, done = scheduler.events_since(tickets[3])
            assert done
            kinds = [event.kind for event in events]
            assert kinds[0] == EVENT_REQUEST_STARTED
            assert EVENT_EPISODE in kinds

            described = scheduler.describe()
            assert described["terminal_retention"] == {
                "max_terminal_tickets": 2,
                "terminal_events_keep": 1,
            }
            assert described["gc"]["dropped_tickets"] == 2
            assert described["gc"]["truncated_events"] > 0

    def test_live_tickets_are_never_collected(self):
        release = threading.Event()
        generator = TickingGenerator(release=release)
        with _scheduler(
            generator, max_workers=1, max_terminal_tickets=1, terminal_events_keep=0
        ) as scheduler:
            live = scheduler.submit(_request(request_id="gc-live", seed=0))
            try:
                # Terminal churn while gc-live is still running: a queued
                # ticket cancelled behind the busy worker.
                dead = scheduler.submit(_request(request_id="gc-dead", seed=1))
                scheduler.cancel(dead.ticket_id)
                scheduler.wait(dead.ticket_id, timeout=60)
                assert scheduler.status(live.ticket_id)["state"] in (
                    "queued",
                    "running",
                )
            finally:
                release.set()
            snapshot = scheduler.wait(live.ticket_id, timeout=60)
            assert snapshot["state"] == TICKET_DONE

    def test_default_retention_keeps_everything_small_scale(self):
        with _scheduler(max_workers=1) as scheduler:
            tickets = [
                scheduler.submit(_request(request_id=f"keep-{index}", seed=index))
                for index in range(3)
            ]
            for ticket in tickets:
                scheduler.wait(ticket.ticket_id, timeout=60)
            for ticket in tickets:
                events, _, done = scheduler.events_since(ticket.ticket_id)
                assert done and len(events) > 2
            gc_stats = scheduler.describe()["gc"]
            assert gc_stats == {"dropped_tickets": 0, "truncated_events": 0}

    def test_duplicate_submit_after_terminal_gc_serves_from_store(self, tmp_path):
        """Dedup vs. ticket GC: a hash whose terminal ticket was dropped must
        fall through to the result store, not crash or re-execute."""
        generator = TickingGenerator()
        store = ResultStore(tmp_path / "results.sqlite")
        try:
            with _scheduler(
                generator,
                max_workers=1,
                store=store,
                max_terminal_tickets=1,
                terminal_events_keep=0,
            ) as scheduler:
                first = scheduler.submit(_request(seed=1))
                scheduler.wait(first.ticket_id, timeout=60)
                # Churn: a second, different request evicts seed-1's
                # terminal ticket from the table.
                churn = scheduler.submit(_request(seed=2))
                scheduler.wait(churn.ticket_id, timeout=60)
                with pytest.raises(KeyError):
                    scheduler.status(first.ticket_id)
                assert generator.calls == 2
                # The duplicate resubmission: no live ticket, no in-table
                # terminal ticket — served from the store, not re-executed.
                again = scheduler.submit(_request(seed=1))
                snapshot = scheduler.wait(again.ticket_id, timeout=30)
                assert snapshot["state"] == TICKET_DONE
                assert snapshot["served_from_store"] is True
                assert generator.calls == 2
        finally:
            store.close()


class TestDrain:
    def test_drain_rejects_new_work_but_finishes_running(self):
        from repro.engine import SchedulerDrainingError

        release = threading.Event()
        try:
            with _scheduler(TickingGenerator(release=release), max_workers=1) as scheduler:
                running = scheduler.submit(_request(seed=1))
                scheduler.drain()
                assert scheduler.health()["status"] == "draining"
                with pytest.raises(SchedulerDrainingError) as excinfo:
                    scheduler.submit(_request(seed=2))
                assert scheduler.replica_id in str(excinfo.value)
                release.set()
                # In-flight work still completes normally under drain.
                assert scheduler.wait(running.ticket_id, timeout=60)["state"] == TICKET_DONE
        finally:
            release.set()

    def test_health_reports_readiness_signals(self):
        with _scheduler(max_workers=1) as scheduler:
            health = scheduler.health()
            assert health["status"] == "ok"
            assert health["leases_held"] == 0
            assert health["queue_depth"] == 0
            assert health["replica_id"] == scheduler.replica_id

    def test_shutdown_releases_held_leases(self, tmp_path):
        store = ResultStore(tmp_path / "results.sqlite")
        try:
            scheduler = _scheduler(TickingGenerator(), max_workers=1, store=store)
            namespace = scheduler._store_namespace
            # A lease the worker never released (e.g. it died hard).
            store.claim(namespace, "orphan-hash", scheduler.replica_id, 300.0)
            scheduler._held_leases.add("orphan-hash")
            scheduler.shutdown()
            assert store.lease(namespace, "orphan-hash") is None
        finally:
            store.close()
