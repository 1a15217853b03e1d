"""Tests for the name-based stage registry and declarative stage selection."""

from __future__ import annotations

import pytest

from repro.cdrl import CdrlConfig
from repro.dataframe import DataTable
from repro.engine import (
    KIND_SESSION_GENERATOR,
    STAGE_KINDS,
    STAGE_REGISTRY,
    TICKET_DONE,
    ExploreRequest,
    LinxEngine,
    RequestScheduler,
    RequestValidationError,
    SessionOutcome,
    StageContext,
    StageRegistry,
    register_stage_factory,
)
from repro.explore import session_from_operations
from repro.explore.operations import FilterOperation, GroupAggOperation
from harness import comparable, first_difference

LDX = "ROOT CHILDREN <A1>\nA1 LIKE [G,.*]"


@pytest.fixture
def netflix_mini() -> DataTable:
    return DataTable(
        {
            "country": ["India", "US", "US", "India", "UK", "US", "India", "UK"],
            "type": ["Movie"] * 4 + ["TV Show"] * 4,
            "duration": [100, 50, 90, 110, 45, 95, 120, 105],
        },
        name="netflix",
    )


def _request(**overrides) -> ExploreRequest:
    base = dict(goal="explore", dataset="netflix", ldx_text=LDX, episodes=6, seed=0)
    base.update(overrides)
    return ExploreRequest(**base)


class TestRegistryBasics:
    def test_builtins_registered_per_kind(self):
        names = STAGE_REGISTRY.describe()
        assert set(names) == set(STAGE_KINDS)
        assert names["spec_deriver"] == ["nl2pd2ldx"]
        assert names["session_generator"] == ["atena", "cdrl"]
        assert names["notebook_renderer"] == ["markdown"]
        assert names["insight_extractor"] == ["mechanical"]

    def test_register_rejects_duplicates_unless_replace(self):
        registry = StageRegistry()
        registry.register(KIND_SESSION_GENERATOR, "mine", lambda ctx: "v1")
        with pytest.raises(ValueError):
            registry.register(KIND_SESSION_GENERATOR, "mine", lambda ctx: "v2")
        registry.register(KIND_SESSION_GENERATOR, "mine", lambda ctx: "v2", replace=True)
        context = StageContext(llm_client=None, fewshot_bank=lambda: None, cdrl_config=None)
        assert registry.create(KIND_SESSION_GENERATOR, "mine", context) == "v2"

    def test_register_rejects_unknown_kind_and_blank_name(self):
        registry = StageRegistry()
        with pytest.raises(ValueError):
            registry.register("no_such_kind", "x", lambda ctx: None)
        with pytest.raises(ValueError):
            registry.register(KIND_SESSION_GENERATOR, "  ", lambda ctx: None)

    def test_unknown_name_raises_structured_error(self):
        context = StageContext(llm_client=None, fewshot_bank=lambda: None, cdrl_config=None)
        with pytest.raises(RequestValidationError) as excinfo:
            STAGE_REGISTRY.create(KIND_SESSION_GENERATOR, "nope", context)
        assert "stages.session_generator" in excinfo.value.fields()

    def test_names_are_case_insensitive(self):
        registry = StageRegistry()
        registry.register(KIND_SESSION_GENERATOR, "MiXeD", lambda ctx: "built")
        context = StageContext(llm_client=None, fewshot_bank=lambda: None, cdrl_config=None)
        assert registry.create(KIND_SESSION_GENERATOR, "mixed", context) == "built"


class TestRequestStageValidation:
    def test_unknown_stage_kind_rejected(self):
        with pytest.raises(RequestValidationError) as excinfo:
            _request(stages={"sessiongenerator": "atena"}).validate()
        assert any(f.startswith("stages.") for f in excinfo.value.fields())

    def test_blank_stage_name_rejected(self):
        with pytest.raises(RequestValidationError) as excinfo:
            _request(stages={"session_generator": "  "}).validate()
        assert "stages.session_generator" in excinfo.value.fields()

    def test_stages_round_trip_through_json(self):
        request = _request(stages={"session_generator": "atena"})
        restored = ExploreRequest.from_dict(request.to_dict())
        assert restored == request
        assert restored.stages == {"session_generator": "atena"}

    def test_canonical_hash_covers_stage_selection(self):
        plain = _request()
        atena = _request(stages={"session_generator": "atena"})
        assert plain.canonical_hash() != atena.canonical_hash()
        # ... but an empty mapping is the same identity as no mapping.
        assert plain.canonical_hash() == _request(stages={}).canonical_hash()

    def test_canonical_hash_ignores_request_id(self):
        assert (
            _request(request_id="a").canonical_hash()
            == _request(request_id="b").canonical_hash()
        )

    def test_canonical_hash_normalizes_stage_name_spelling(self):
        # The registry resolves names case-insensitively and stripped, so
        # equivalent spellings must share one identity (dedup + store key).
        assert (
            _request(stages={"session_generator": "atena"}).canonical_hash()
            == _request(stages={"session_generator": " Atena "}).canonical_hash()
        )


class TestEngineStageSelection:
    def test_engine_level_stage_names(self, netflix_mini):
        engine = LinxEngine(
            cdrl_config=CdrlConfig(episodes=6, seed=0),
            stages={"session_generator": "atena"},
        )
        result = engine.explore(_request(), table=netflix_mini)
        assert result.stage_names["session_generator"] == "atena"
        assert result.episodes_trained > 0

    def test_per_request_stage_selection_overrides_engine(self, netflix_mini):
        engine = LinxEngine(cdrl_config=CdrlConfig(episodes=6, seed=0))
        default = engine.explore(_request(), table=netflix_mini)
        assert default.stage_names["session_generator"] == "cdrl"
        swapped = engine.explore(
            _request(stages={"session_generator": "atena"}), table=netflix_mini
        )
        assert swapped.stage_names["session_generator"] == "atena"
        # The engine's configured default is untouched for later requests.
        again = engine.explore(_request(), table=netflix_mini)
        assert again.stage_names["session_generator"] == "cdrl"

    def test_unknown_request_stage_name_fails_before_work(self, netflix_mini):
        engine = LinxEngine(cdrl_config=CdrlConfig(episodes=6))
        with pytest.raises(RequestValidationError) as excinfo:
            engine.explore(
                _request(stages={"session_generator": "no-such"}), table=netflix_mini
            )
        assert "stages.session_generator" in excinfo.value.fields()

    def test_unknown_engine_stage_kind_rejected(self):
        with pytest.raises(ValueError):
            LinxEngine(stages={"generator": "cdrl"})

    def test_custom_registered_stage_usable_by_name(self, netflix_mini):
        @register_stage_factory(KIND_SESSION_GENERATOR, "stub-registry-test")
        def _build(context):
            class _Stub:
                name = "stub-registry-test"

                def generate(self, table, ldx_text, *, episodes=None, seed=None,
                             cache=None, on_episode=None):
                    session = session_from_operations(
                        table,
                        [
                            FilterOperation("country", "eq", "India"),
                            GroupAggOperation("type", "count", "type"),
                        ],
                        cache=cache,
                    )
                    return SessionOutcome(session=session, episodes_trained=1)

            return _Stub()

        engine = LinxEngine(cdrl_config=CdrlConfig(episodes=6))
        result = engine.explore(
            _request(stages={"session_generator": "stub-registry-test"}),
            table=netflix_mini,
        )
        assert result.stage_names["session_generator"] == "stub-registry-test"
        assert result.operations == [
            ["F", "country", "eq", "India"],
            ["G", "type", "count", "type"],
        ]

    def test_stage_instances_memoized_per_engine(self, netflix_mini):
        engine = LinxEngine(cdrl_config=CdrlConfig(episodes=6))
        first = engine._stage_by_name(KIND_SESSION_GENERATOR, "atena")
        second = engine._stage_by_name(KIND_SESSION_GENERATOR, "ATENA")
        assert first is second


def _process_payload(engine: LinxEngine, request: ExploreRequest) -> dict:
    """Run *request* in a one-worker process-mode scheduler; its payload."""
    with RequestScheduler(engine, workers="process", max_workers=1) as scheduler:
        ticket = scheduler.submit(request)
        assert scheduler.wait(ticket.ticket_id, timeout=300)["state"] == TICKET_DONE
        return scheduler.result_payload(ticket.ticket_id)


class TestProcessModeStageNames:
    def test_named_stages_allowed_in_process_mode(self):
        """Registry-named stages lift the custom-stage process restriction."""
        engine = LinxEngine(
            cdrl_config=CdrlConfig(episodes=5),
            stages={"session_generator": "atena"},
        )
        assert not engine._custom_stages
        assert engine.worker_spec()["stages"] == {"session_generator": "atena"}
        request = ExploreRequest(
            goal="g", dataset="netflix", num_rows=100, ldx_text=LDX,
            episodes=5, seed=0, request_id="p0",
        )
        via_process = _process_payload(engine, request)
        in_process = LinxEngine(
            cdrl_config=CdrlConfig(episodes=5),
            stages={"session_generator": "atena"},
        ).explore(request)
        assert via_process["stage_names"]["session_generator"] == "atena"
        differs = first_difference(comparable(in_process.to_dict()), comparable(via_process))
        assert differs is None, f"process payload differs at {differs}"

    def test_per_request_names_ride_to_process_workers(self):
        engine = LinxEngine(cdrl_config=CdrlConfig(episodes=5))
        request = ExploreRequest(
            goal="g", dataset="netflix", num_rows=100, ldx_text=LDX,
            episodes=5, seed=0, stages={"session_generator": "atena"},
        )
        payload = _process_payload(engine, request)
        assert payload["stage_names"]["session_generator"] == "atena"
        in_process = LinxEngine(cdrl_config=CdrlConfig(episodes=5)).explore(request)
        differs = first_difference(comparable(in_process.to_dict()), comparable(payload))
        assert differs is None, f"process payload differs at {differs}"

    def test_object_configured_stages_still_rejected(self):
        class NullRenderer:
            name = "null"

            def render(self, session, goal):
                raise NotImplementedError

        engine = LinxEngine(notebook_renderer=NullRenderer())
        with pytest.raises(ValueError):
            RequestScheduler(engine, workers="process")
