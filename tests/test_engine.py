"""Tests for the service-oriented engine API (requests, results, batching)."""

from __future__ import annotations

import json

import pytest

from repro.cdrl import CdrlConfig
from repro.dataframe import DataTable
from repro.engine import (
    EVENT_EPISODE,
    EVENT_REQUEST_FINISHED,
    EVENT_REQUEST_STARTED,
    EVENT_STAGE_FINISHED,
    EVENT_STAGE_SKIPPED,
    EVENT_STAGE_STARTED,
    PERMISSIVE_LDX,
    STAGE_DERIVE,
    STAGE_GENERATE,
    STAGE_INSIGHTS,
    STAGE_ORDER,
    STAGE_RENDER,
    STATUS_COMPLETE,
    STATUS_FAILED,
    STATUS_SKIPPED,
    TICKET_DONE,
    ExploreRequest,
    ExploreResult,
    LinxEngine,
    RequestScheduler,
    RequestValidationError,
    SessionOutcome,
    StageFailedError,
)
from repro.explore import session_from_operations
from repro.explore.operations import FilterOperation, GroupAggOperation
from harness import comparable, first_difference


@pytest.fixture
def netflix_mini() -> DataTable:
    return DataTable(
        {
            "country": ["India", "US", "US", "India", "UK", "US", "India", "UK", "US", "India"],
            "type": ["Movie"] * 4 + ["TV Show"] * 3 + ["Movie"] * 3,
            "rating": ["TV-14", "TV-MA", "TV-MA", "TV-14", "TV-MA", "PG", "TV-14", "R", "TV-MA", "TV-14"],
            "duration": [100, 50, 90, 110, 45, 95, 120, 105, 80, 99],
        },
        name="netflix",
    )


@pytest.fixture
def engine() -> LinxEngine:
    return LinxEngine(cdrl_config=CdrlConfig(episodes=15, seed=3))


def _request(comparison_query, **overrides) -> ExploreRequest:
    base = dict(
        goal="Find a country with different viewing habits than the rest of the world",
        dataset="netflix",
        ldx_text=comparison_query.render(),
        seed=3,
    )
    base.update(overrides)
    return ExploreRequest(**base)


class TestRequestValidation:
    def test_valid_request_passes(self):
        ExploreRequest(goal="g", dataset="netflix").validate()

    def test_empty_goal_rejected(self):
        with pytest.raises(RequestValidationError) as excinfo:
            ExploreRequest(goal="   ", dataset="netflix").validate()
        assert "goal" in excinfo.value.fields()

    def test_unknown_dataset_rejected(self):
        with pytest.raises(RequestValidationError) as excinfo:
            ExploreRequest(goal="g", dataset="no-such-dataset").validate()
        assert "dataset" in excinfo.value.fields()

    def test_bad_numeric_fields_all_reported_at_once(self):
        with pytest.raises(RequestValidationError) as excinfo:
            ExploreRequest(
                goal="g", dataset="netflix", num_rows=0, episodes=-5, seed="x"
            ).validate()
        assert set(excinfo.value.fields()) == {"num_rows", "episodes", "seed"}

    def test_bool_seed_rejected(self):
        with pytest.raises(RequestValidationError):
            ExploreRequest(goal="g", dataset="netflix", seed=True).validate()

    def test_blank_ldx_text_rejected(self):
        with pytest.raises(RequestValidationError) as excinfo:
            ExploreRequest(goal="g", dataset="netflix", ldx_text="  ").validate()
        assert "ldx_text" in excinfo.value.fields()

    def test_unsupported_schema_version_rejected(self):
        with pytest.raises(RequestValidationError) as excinfo:
            ExploreRequest(goal="g", dataset="netflix", schema_version="9.9").validate()
        assert "schema_version" in excinfo.value.fields()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(RequestValidationError) as excinfo:
            ExploreRequest.from_dict({"goal": "g", "dataset": "netflix", "bogus": 1})
        assert "bogus" in excinfo.value.fields()

    def test_from_dict_rejects_missing_required_fields(self):
        with pytest.raises(RequestValidationError) as excinfo:
            ExploreRequest.from_dict({"goal": "g"})
        assert "dataset" in excinfo.value.fields()

    def test_validation_error_serializes(self):
        with pytest.raises(RequestValidationError) as excinfo:
            ExploreRequest(goal="", dataset="netflix").validate()
        payload = excinfo.value.to_dict()
        assert payload["errors"][0]["field"] == "goal"

    def test_request_round_trips_through_json(self):
        request = ExploreRequest(
            goal="g", dataset="netflix", num_rows=100, episodes=5, seed=7,
            request_id="r-1",
        )
        restored = ExploreRequest.from_dict(json.loads(json.dumps(request.to_dict())))
        assert restored == request

    def test_engine_rejects_invalid_request_before_work(self, engine):
        with pytest.raises(RequestValidationError):
            engine.explore(ExploreRequest(goal="", dataset="netflix"))

    def test_ad_hoc_table_without_ldx_rejected(self, engine):
        table = DataTable({"x": [1, 2, 3]}, name="adhoc")
        with pytest.raises(RequestValidationError) as excinfo:
            engine.explore(ExploreRequest(goal="g", dataset="adhoc"), table=table)
        assert "ldx_text" in excinfo.value.fields()


class TestExploreResult:
    def test_json_round_trip_is_lossless(self, engine, netflix_mini, comparison_query):
        result = engine.explore(_request(comparison_query), table=netflix_mini)
        restored = ExploreResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored == result
        assert restored.to_dict() == result.to_dict()
        assert restored.artifacts is None

    def test_result_has_all_stage_statuses(self, engine, netflix_mini, comparison_query):
        result = engine.explore(_request(comparison_query), table=netflix_mini)
        assert [status.name for status in result.stages] == list(STAGE_ORDER)
        assert result.stage_status(STAGE_DERIVE) == STATUS_SKIPPED
        for name in (STAGE_GENERATE, STAGE_RENDER, STAGE_INSIGHTS):
            assert result.stage_status(name) == STATUS_COMPLETE
        assert result.stage(STAGE_GENERATE).seconds > 0.0

    def test_operations_rebuild_the_session(self, engine, netflix_mini, comparison_query):
        result = engine.explore(_request(comparison_query), table=netflix_mini)
        rebuilt = result.rebuild_session(netflix_mini)
        original = result.artifacts.session
        assert [n.signature() for n in rebuilt.query_nodes()] == [
            n.signature() for n in original.query_nodes()
        ]

    def test_unsupported_result_schema_rejected(self):
        with pytest.raises(RequestValidationError):
            ExploreResult.from_dict({"schema_version": "0.1", "request": {}})

    def test_unknown_result_field_rejected(self, engine, netflix_mini, comparison_query):
        payload = engine.explore(_request(comparison_query), table=netflix_mini).to_dict()
        payload["fully_complaint"] = True  # typo'd / renamed key
        with pytest.raises(RequestValidationError) as excinfo:
            ExploreResult.from_dict(payload)
        assert "fully_complaint" in excinfo.value.fields()

    def test_derivation_fallback_surfaced(self, engine, netflix_mini):
        request = ExploreRequest(
            goal="whatever goal", dataset="netflix", ldx_text="THIS IS NOT LDX ((("
        )
        result = engine.explore(request, table=netflix_mini)
        assert result.derivation_fallback
        assert result.ldx_text == PERMISSIVE_LDX
        assert any("permissive" in warning for warning in result.warnings)
        # The live artifacts carry the parsed fallback specification.
        assert result.artifacts.query is not None

    def test_no_fallback_flag_on_parseable_ldx(self, engine, netflix_mini, comparison_query):
        result = engine.explore(_request(comparison_query), table=netflix_mini)
        assert not result.derivation_fallback
        assert result.warnings == []


class TestBatchExecution:
    def test_shared_cache_reused_across_batch(self, netflix_mini, comparison_query):
        engine = LinxEngine(cdrl_config=CdrlConfig(episodes=12, seed=0))
        requests = [_request(comparison_query, seed=3) for _ in range(4)]
        results = [engine.explore(request, table=netflix_mini) for request in requests]
        for result in results[1:]:
            assert result.cache_stats["hits"] > 0
            assert result.cache_stats["hit_rate"] > 0.0

    def test_identical_seeds_give_identical_results(self, netflix_mini, comparison_query):
        engine = LinxEngine(cdrl_config=CdrlConfig(episodes=12, seed=0))
        request = _request(comparison_query, seed=3)
        first = engine.explore(request, table=netflix_mini)
        second = engine.explore(request, table=netflix_mini)
        assert first == second  # timings/cache stats excluded from equality

    def test_null_request_seed_uses_configured_generator_seed(
        self, netflix_mini, comparison_query
    ):
        config = CdrlConfig(episodes=12, seed=7)
        deferred = LinxEngine(cdrl_config=config).explore(
            _request(comparison_query, seed=None), table=netflix_mini
        )
        explicit = LinxEngine(cdrl_config=config).explore(
            _request(comparison_query, seed=7), table=netflix_mini
        )
        assert deferred.operations == explicit.operations
        assert deferred.utility_score == explicit.utility_score

    def test_cache_execution_flag_disables_shared_cache(
        self, netflix_mini, comparison_query
    ):
        engine = LinxEngine(
            cdrl_config=CdrlConfig(episodes=10, cache_execution=False)
        )
        result = engine.explore(_request(comparison_query), table=netflix_mini)
        # The agent must ignore the offered shared cache entirely: an
        # uncached ablation timed through the engine stays truly uncached.
        assert result.cache_stats["hits"] == 0
        assert result.cache_stats["misses"] == 0


def _scheduled_payloads(engine, requests, max_workers):
    """Run *requests* concurrently through a thread scheduler; payloads in order."""
    with RequestScheduler(engine, max_workers=max_workers) as scheduler:
        tickets = [scheduler.submit(request) for request in requests]
        for ticket in tickets:
            assert scheduler.wait(ticket.ticket_id, timeout=300)["state"] == TICKET_DONE
        return [scheduler.result_payload(ticket.ticket_id) for ticket in tickets]


class TestRegisteredDatasetBatch:
    """Many requests against the registry (no table override)."""

    def test_thread_scheduler_matches_sequential_explore(self, comparison_query):
        ldx = comparison_query.render()
        requests = [
            ExploreRequest(
                goal="compare countries",
                dataset="netflix",
                num_rows=120,
                ldx_text=ldx,
                episodes=10,
                seed=seed,
                request_id=f"batch-{seed}",
            )
            for seed in (0, 1, 2, 3)
        ]
        sequential_engine = LinxEngine(cdrl_config=CdrlConfig(episodes=10))
        sequential = [sequential_engine.explore(request) for request in requests]
        parallel_engine = LinxEngine(cdrl_config=CdrlConfig(episodes=10))
        parallel = _scheduled_payloads(parallel_engine, requests, max_workers=4)
        for request, alone, payload in zip(requests, sequential, parallel):
            differs = first_difference(comparable(alone.to_dict()), comparable(payload))
            assert differs is None, f"{request.request_id}: scheduled payload differs at {differs}"
        assert [payload["request"]["request_id"] for payload in parallel] == [
            "batch-0", "batch-1", "batch-2", "batch-3",
        ]

    def test_batch_matches_single_explore_under_identical_seeds(self, comparison_query):
        requests = [
            ExploreRequest(
                goal="compare countries",
                dataset="netflix",
                num_rows=120,
                ldx_text=comparison_query.render(),
                episodes=10,
                seed=seed,
            )
            for seed in (0, 1, 2, 3)
        ]
        shared = LinxEngine(cdrl_config=CdrlConfig(episodes=10))
        payloads = _scheduled_payloads(shared, requests, max_workers=4)
        for request, payload in zip(requests, payloads):
            single = LinxEngine(cdrl_config=CdrlConfig(episodes=10)).explore(request)
            differs = first_difference(comparable(single.to_dict()), comparable(payload))
            assert differs is None, f"seed {request.seed}: batched payload differs at {differs}"
        # Concurrent requests on one engine reuse each other's executions.
        assert shared.cache_stats()["hits"] > 0

    def test_explicit_and_derived_requests_round_trip_and_rerun_identically(
        self, comparison_query
    ):
        """An explicit-LDX and an NL-derived request, scheduled together,
        parse back losslessly, and re-run to the same payload on the same
        engine and on a fresh one: engine-wide state never leaks between
        requests."""
        goal = "Find a country with different viewing habits than the rest of the world"
        requests = [
            ExploreRequest(goal=goal, dataset="netflix", num_rows=300,
                           ldx_text=comparison_query.render(), seed=0,
                           request_id="explicit-ldx"),
            ExploreRequest(goal=goal, dataset="netflix", num_rows=300, episodes=12,
                           seed=1, request_id="derived-ldx"),
        ]
        config = CdrlConfig(episodes=12)
        engine = LinxEngine(cdrl_config=config)
        payloads = _scheduled_payloads(engine, requests, max_workers=2)
        assert engine.cache_stats()["hits"] + engine.cache_stats()["misses"] > 0
        fresh = LinxEngine(cdrl_config=config)
        for request, payload in zip(requests, payloads):
            restored = ExploreResult.from_dict(json.loads(json.dumps(payload)))
            assert restored.to_dict() == payload, f"{request.request_id}: lossy round-trip"
            assert restored.operations and restored.notebook_markdown, request.request_id
            for label, rerun_engine in (("the same", engine), ("a fresh", fresh)):
                differs = first_difference(
                    comparable(payload), comparable(rerun_engine.explore(request).to_dict())
                )
                assert differs is None, (
                    f"{request.request_id}: re-run on {label} engine differs at {differs}"
                )

    def test_batch_reuses_cache_on_later_requests(self, comparison_query):
        engine = LinxEngine(cdrl_config=CdrlConfig(episodes=10))
        request = ExploreRequest(
            goal="compare countries",
            dataset="netflix",
            num_rows=120,
            ldx_text=comparison_query.render(),
            episodes=10,
            seed=0,
        )
        results = [engine.explore(request) for _ in range(4)]
        for result in results[1:]:
            assert result.cache_stats["hits"] > 0


class TestProgressEvents:
    def test_event_ordering_for_one_request(self, engine, netflix_mini, comparison_query):
        events = []
        engine.explore(
            _request(comparison_query, request_id="evt"),
            table=netflix_mini,
            observer=events.append,
        )
        assert all(event.request_id == "evt" for event in events)
        kinds = [(event.kind, event.stage) for event in events]
        assert kinds[0] == (EVENT_REQUEST_STARTED, "")
        assert kinds[1] == (EVENT_STAGE_SKIPPED, STAGE_DERIVE)
        assert kinds[2] == (EVENT_STAGE_STARTED, STAGE_GENERATE)
        assert kinds[-1] == (EVENT_REQUEST_FINISHED, "")
        # Episode ticks arrive strictly between generate start and finish.
        episode_positions = [
            index for index, event in enumerate(events) if event.kind == EVENT_EPISODE
        ]
        generate_finish = kinds.index((EVENT_STAGE_FINISHED, STAGE_GENERATE))
        assert episode_positions, "no episode ticks observed"
        assert all(2 < position < generate_finish for position in episode_positions)
        assert [event.payload["episode"] for event in events if event.kind == EVENT_EPISODE] == list(
            range(len(episode_positions))
        )
        # Render and insights each start then finish, in pipeline order.
        tail = kinds[generate_finish + 1 : -1]
        assert tail == [
            (EVENT_STAGE_STARTED, STAGE_RENDER),
            (EVENT_STAGE_FINISHED, STAGE_RENDER),
            (EVENT_STAGE_STARTED, STAGE_INSIGHTS),
            (EVENT_STAGE_FINISHED, STAGE_INSIGHTS),
        ]

    def test_batch_labels_unlabelled_requests(self, comparison_query):
        engine = LinxEngine(cdrl_config=CdrlConfig(episodes=8))
        requests = [
            ExploreRequest(
                goal="compare countries",
                dataset="netflix",
                num_rows=100,
                ldx_text=comparison_query.render(),
                episodes=8,
                seed=seed,
            )
            for seed in (0, 1)
        ]
        with RequestScheduler(engine, max_workers=1) as scheduler:
            tickets = [scheduler.submit(request) for request in requests]
            for ticket in tickets:
                scheduler.wait(ticket.ticket_id, timeout=300)
                events, _, _ = scheduler.events_since(ticket.ticket_id)
                # Unlabelled requests are labelled by their ticket.
                assert {event.request_id for event in events} == {ticket.ticket_id}
            assert len({ticket.ticket_id for ticket in tickets}) == 2


class TestProcessEventStreaming:
    """Process workers stream full event sequences back to the parent."""

    def test_process_batch_streams_episode_events(self):
        engine = LinxEngine(cdrl_config=CdrlConfig(episodes=5))
        requests = [
            ExploreRequest(
                goal="compare countries",
                dataset="netflix",
                num_rows=100,
                ldx_text="ROOT CHILDREN <A1>\nA1 LIKE [G,.*]",
                episodes=5,
                seed=seed,
                request_id=f"proc-{seed}",
            )
            for seed in (0, 1)
        ]
        with RequestScheduler(engine, workers="process", max_workers=2) as scheduler:
            tickets = [scheduler.submit(request) for request in requests]
            for request, ticket in zip(requests, tickets):
                assert scheduler.wait(ticket.ticket_id, timeout=300)["state"] == TICKET_DONE
                events, _, done = scheduler.events_since(ticket.ticket_id)
                assert done
                # Two workers ran concurrently, yet each ticket holds only
                # its own request's events, in order, episode ticks included.
                assert {event.request_id for event in events} == {request.request_id}
                kinds = [event.kind for event in events]
                assert kinds[0] == EVENT_REQUEST_STARTED
                assert kinds[-1] == EVENT_REQUEST_FINISHED
                assert kinds.index(EVENT_STAGE_STARTED) < kinds.index(EVENT_EPISODE)


class StubGenerator:
    """Minimal SessionGenerator plug-in for stage-protocol tests."""

    name = "stub"

    def __init__(self):
        self.calls = 0

    def generate(self, table, ldx_text, *, episodes=None, seed=None, cache=None, on_episode=None):
        self.calls += 1
        if on_episode is not None:
            on_episode(0, 1.0, None)
        session = session_from_operations(
            table,
            [
                FilterOperation("country", "eq", "India"),
                GroupAggOperation("type", "count", "type"),
            ],
            cache=cache,
        )
        return SessionOutcome(session=session, utility_score=1.5, episodes_trained=1)


class TestPluggableStages:
    def test_custom_session_generator_is_used(self, netflix_mini, comparison_query):
        generator = StubGenerator()
        engine = LinxEngine(session_generator=generator)
        result = engine.explore(_request(comparison_query), table=netflix_mini)
        assert generator.calls == 1
        assert result.operations == [
            ["F", "country", "eq", "India"],
            ["G", "type", "count", "type"],
        ]
        assert result.utility_score == 1.5

    def test_failing_optional_stage_is_nonfatal(self, netflix_mini, comparison_query):
        class FailingExtractor:
            name = "boom"

            def extract(self, session):
                raise RuntimeError("kaput")

        engine = LinxEngine(
            session_generator=StubGenerator(), insight_extractor=FailingExtractor()
        )
        result = engine.explore(_request(comparison_query), table=netflix_mini)
        assert result.stage_status(STAGE_INSIGHTS) == STATUS_FAILED
        assert "kaput" in result.stage(STAGE_INSIGHTS).detail
        assert any("kaput" in warning for warning in result.warnings)
        assert result.notebook_markdown  # earlier stages unaffected

    def test_failing_required_stage_raises(self, netflix_mini, comparison_query):
        class FailingGenerator:
            name = "boom"

            def generate(self, table, ldx_text, *, episodes=None, seed=None, cache=None, on_episode=None):
                raise RuntimeError("no session for you")

        engine = LinxEngine(session_generator=FailingGenerator())
        with pytest.raises(StageFailedError) as excinfo:
            engine.explore(_request(comparison_query), table=netflix_mini)
        assert excinfo.value.stage == STAGE_GENERATE
