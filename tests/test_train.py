"""Tests for the distributed training tier (checkpoints, fleet, registry)."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdrl.agent import CdrlConfig
from repro.engine import (
    ExploreRequest,
    LinxEngine,
    RequestValidationError,
)
from repro.engine.registry import KIND_SESSION_GENERATOR, StageRegistry
from repro.rl.trainer import TrainerConfig, TrainingHistory
from repro.train.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    TrainingCheckpoint,
    TrainSpec,
    deserialize_buffer,
    serialize_buffer,
)
from repro.train.learner import FleetLearner
from repro.train.registry import (
    PolicyRegistry,
    RegisteredPolicySessionGenerator,
    config_fingerprint,
)

LDX = """
ROOT CHILDREN <A1,A2>
A1 LIKE [F,delay_reason,eq,weather] and CHILDREN {B1}
B1 LIKE [G,(?<Y>.*),mean,(?<Z>.*)]
A2 LIKE [F,delay_reason,neq,weather] and CHILDREN {B2}
B2 LIKE [G,(?<Y>.*),mean,(?<Z>.*)]
"""


def _spec(episodes: int = 6, seed: int = 3, **config_overrides) -> TrainSpec:
    config = CdrlConfig(
        episodes=episodes, episode_length=3, seed=seed, **config_overrides
    )
    return TrainSpec(dataset="flights", ldx_text=LDX, num_rows=120, config=config)


def _history_fields(history: TrainingHistory) -> dict:
    """History minus cache_stats (fleet and single-process cache differently)."""
    payload = history.to_dict()
    return {
        key: payload[key]
        for key in ("episode_returns", "episode_steps", "greedy_returns")
    }


# -- satellite: history round-trip ---------------------------------------------------
class TestTrainingHistoryRoundTrip:
    def test_round_trip_preserves_everything(self):
        history = TrainingHistory(
            episode_returns=[1.0, -0.5, 2.25],
            episode_steps=[4, 3, 5],
            greedy_returns=[(2, 1.75)],
            cache_stats={"hits": 3, "misses": 1},
        )
        restored = TrainingHistory.from_dict(history.to_dict())
        assert restored == history
        assert restored.greedy_returns == [(2, 1.75)]

    def test_round_trip_of_empty_history(self):
        assert TrainingHistory.from_dict(TrainingHistory().to_dict()) == (
            TrainingHistory()
        )

    def test_to_dict_is_json_primitive(self):
        import json

        history = TrainingHistory(episode_returns=[0.5], episode_steps=[2],
                                  greedy_returns=[(0, 0.5)])
        assert TrainingHistory.from_dict(
            json.loads(json.dumps(history.to_dict()))
        ) == history


# -- satellite: structured config validation -----------------------------------------
class TestConfigValidation:
    def test_valid_configs_produce_no_errors(self):
        assert TrainerConfig().validate() == []
        assert CdrlConfig().validate() == []

    def test_trainer_config_reports_each_bad_field(self):
        errors = TrainerConfig(
            episodes=0, learning_rate=0.0, discount=1.5, batch_episodes=-1
        ).validate()
        fields = {error.field for error in errors}
        assert fields == {"episodes", "learning_rate", "discount", "batch_episodes"}

    def test_trainer_check_raises_validation_error(self):
        with pytest.raises(RequestValidationError) as excinfo:
            TrainerConfig(learning_rate=-1.0).check()
        assert any(
            error.field == "learning_rate" for error in excinfo.value.errors
        )

    def test_cdrl_config_prefixes_nested_trainer_fields(self):
        errors = CdrlConfig(
            episode_length=0, trainer=TrainerConfig(discount=0.0)
        ).validate()
        fields = {error.field for error in errors}
        assert "episode_length" in fields
        assert "trainer.discount" in fields

    def test_agent_construction_rejects_invalid_config(self):
        spec = _spec()
        bad = TrainSpec(
            dataset=spec.dataset,
            ldx_text=spec.ldx_text,
            num_rows=spec.num_rows,
            config=CdrlConfig(episodes=0),
        )
        with pytest.raises(RequestValidationError):
            bad.build_agent()


# -- checkpoint serialization --------------------------------------------------------
class TestCheckpointSerialization:
    def test_buffer_round_trip(self):
        spec = _spec(episodes=2)
        learner = FleetLearner(spec, num_actors=1, envs_per_actor=1, workers="inline")
        with learner:
            learner.train()
        # Re-collect one episode to get a real buffer through the actor path.
        from repro.train.actor import collect_chunk

        records = collect_chunk(
            learner.fleet.payload,
            learner.trainer.policy.network.export_state(),
            0,
            1,
        )
        rows = records[0]["buffer"]
        buffer = deserialize_buffer(rows)
        assert serialize_buffer(buffer) == rows
        assert len(buffer.transitions) == len(rows)
        decision = buffer.transitions[0].decision
        assert not hasattr(decision, "probabilities")
        assert decision.observation.flags.writeable

    def test_blob_round_trip(self):
        spec = _spec(episodes=4)
        with FleetLearner(
            spec, num_actors=1, envs_per_actor=1, workers="inline"
        ) as learner:
            learner.collect_until(2)
            checkpoint = learner.checkpoint()
        restored = TrainingCheckpoint.from_blob(checkpoint.to_blob())
        assert restored == checkpoint

    def test_unknown_schema_version_rejected(self):
        spec = _spec(episodes=2)
        with FleetLearner(
            spec, num_actors=1, envs_per_actor=1, workers="inline"
        ) as learner:
            blob = learner.checkpoint().to_blob()
        payload = pickle.loads(blob)
        payload["schema_version"] = CHECKPOINT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema version"):
            TrainingCheckpoint.from_blob(pickle.dumps(payload, protocol=4))

    def test_save_and_load_file(self, tmp_path):
        spec = _spec(episodes=2)
        path = tmp_path / "run.ckpt"
        with FleetLearner(
            spec,
            num_actors=1,
            envs_per_actor=1,
            workers="inline",
            checkpoint_path=path,
        ) as learner:
            learner.collect_until(2)
        assert TrainingCheckpoint.load(path).episodes_completed == 2

    def test_spec_payload_round_trip(self):
        spec = _spec(episodes=7, seed=11)
        assert TrainSpec.from_payload(spec.to_payload()) == spec


# -- tentpole: fleet bit-identity ----------------------------------------------------
class TestFleetBitIdentity:
    def test_two_actors_match_single_process_two_envs(self):
        spec = _spec()
        baseline = spec.build_agent(num_envs=2)
        baseline_history = baseline.trainer.train()
        with FleetLearner(
            spec, num_actors=2, envs_per_actor=1, workers="inline"
        ) as learner:
            result = learner.train()
            assert learner.trainer.policy.network.export_state() == (
                baseline.trainer.policy.network.export_state()
            )
            assert learner.trainer.optimizer.export_state(
                learner.trainer.policy.parameters()
            ) == baseline.trainer.optimizer.export_state(
                baseline.trainer.policy.parameters()
            )
        assert _history_fields(result.history) == _history_fields(baseline_history)

    def test_actor_and_env_split_is_operational_only(self):
        spec = _spec(episodes=4)
        states = []
        for num_actors, envs_per_actor in ((1, 4), (2, 2), (4, 1)):
            with FleetLearner(
                spec,
                num_actors=num_actors,
                envs_per_actor=envs_per_actor,
                workers="inline",
            ) as learner:
                learner.train()
                states.append(learner.trainer.policy.network.export_state())
        assert states[0] == states[1] == states[2]

    def test_wave_size_validation(self):
        spec = _spec(episodes=2)
        with FleetLearner(
            spec, num_actors=1, envs_per_actor=1, workers="inline"
        ) as learner:
            with pytest.raises(ValueError, match="exceeds"):
                learner.fleet.collect_wave(
                    learner.trainer.policy.network.export_state(), 0, 2
                )


# -- tentpole: kill-and-resume -------------------------------------------------------
class TestKillAndResume:
    def test_resume_matches_uninterrupted_run(self, tmp_path):
        spec = _spec()
        baseline = spec.build_agent(num_envs=2)
        baseline_history = baseline.trainer.train()

        path = tmp_path / "run.ckpt"
        with FleetLearner(
            spec,
            num_actors=2,
            envs_per_actor=1,
            workers="inline",
            checkpoint_path=path,
        ) as partial:
            stopped = partial.collect_until(3)
        assert 0 < stopped < spec.config.episodes

        resumed = FleetLearner.from_checkpoint(path, workers="inline")
        with resumed:
            result = resumed.train()
            assert resumed.trainer.policy.network.export_state() == (
                baseline.trainer.policy.network.export_state()
            )
            assert resumed.trainer.optimizer.export_state(
                resumed.trainer.policy.parameters()
            ) == baseline.trainer.optimizer.export_state(
                baseline.trainer.policy.parameters()
            )
        assert _history_fields(result.history) == _history_fields(baseline_history)

    def test_resume_from_completion_checkpoint_is_a_no_op(self, tmp_path):
        spec = _spec(episodes=4)
        path = tmp_path / "run.ckpt"
        with FleetLearner(
            spec,
            num_actors=2,
            envs_per_actor=1,
            workers="inline",
            checkpoint_path=path,
        ) as learner:
            learner.train()
            final = learner.trainer.policy.network.export_state()
        resumed = FleetLearner.from_checkpoint(path, workers="inline")
        with resumed:
            resumed.train()
            assert resumed.trainer.policy.network.export_state() == final

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=4),
           stop_after=st.integers(min_value=1, max_value=5))
    def test_resume_property_over_seeds_and_stop_points(
        self, tmp_path_factory, seed, stop_after
    ):
        """Stopping at any wave boundary of any seed resumes bit-identically."""
        spec = _spec(seed=seed)
        path = tmp_path_factory.mktemp("ckpt") / "run.ckpt"
        with FleetLearner(
            spec,
            num_actors=2,
            envs_per_actor=1,
            workers="inline",
            checkpoint_path=path,
        ) as uninterrupted:
            uninterrupted.train()
            expected = uninterrupted.trainer.policy.network.export_state()

        with FleetLearner(
            spec,
            num_actors=2,
            envs_per_actor=1,
            workers="inline",
            checkpoint_path=path,
        ) as partial:
            partial.collect_until(stop_after)
        resumed = FleetLearner.from_checkpoint(path, workers="inline")
        with resumed:
            resumed.train()
            assert resumed.trainer.policy.network.export_state() == expected


# -- the policy registry -------------------------------------------------------------
class TestPolicyRegistry:
    def _trained_learner(self, episodes: int = 4) -> FleetLearner:
        learner = FleetLearner(
            _spec(episodes=episodes), num_actors=1, envs_per_actor=2, workers="inline"
        )
        with learner:
            learner.train()
        return learner

    def test_publish_versions_and_get(self, tmp_path):
        learner = self._trained_learner()
        with PolicyRegistry(tmp_path / "pol.sqlite") as registry:
            assert learner.publish(registry, "alpha", metrics={"utility": 1.0}) == 1
            assert learner.publish(registry, "alpha") == 2
            assert registry.versions("alpha") == [1, 2]
            assert len(registry) == 2
            record = registry.get("alpha", 1)
            assert record["metrics"] == {"utility": 1.0}
            assert record["dataset"] == "flights"
            assert record["promoted"] is True  # version 1 auto-promoted
            assert isinstance(record["checkpoint"], TrainingCheckpoint)
            assert record["config_fingerprint"] == config_fingerprint(
                learner.spec.config
            )

    def test_promotion_moves_the_default(self, tmp_path):
        learner = self._trained_learner()
        with PolicyRegistry(tmp_path / "pol.sqlite") as registry:
            learner.publish(registry, "alpha")
            learner.publish(registry, "alpha")
            assert registry.get("alpha")["version"] == 1
            registry.promote("alpha", 2)
            assert registry.get("alpha")["version"] == 2
            assert registry.get("alpha", 1)["promoted"] is False
            with pytest.raises(KeyError, match="no version"):
                registry.promote("alpha", 9)

    def test_missing_policy_raises(self, tmp_path):
        with PolicyRegistry(tmp_path / "pol.sqlite") as registry:
            with pytest.raises(KeyError):
                registry.get("ghost")
            assert registry.versions("ghost") == []

    @pytest.mark.parametrize("name", ["", "has space", "cdrl:x", "-lead", "a/b"])
    def test_invalid_names_rejected(self, tmp_path, name):
        learner = self._trained_learner(episodes=2)
        with PolicyRegistry(tmp_path / "pol.sqlite") as registry:
            with pytest.raises(ValueError, match="invalid policy name"):
                learner.publish(registry, name)

    def test_names_are_case_folded(self, tmp_path):
        learner = self._trained_learner(episodes=2)
        with PolicyRegistry(tmp_path / "pol.sqlite") as registry:
            assert learner.publish(registry, "Alpha") == 1
            assert registry.versions("ALPHA") == [1]
            assert registry.get("alpha")["name"] == "alpha"

    def test_attach_registers_versioned_and_alias_stages(self, tmp_path):
        learner = self._trained_learner()
        stage_registry = StageRegistry()
        with PolicyRegistry(tmp_path / "pol.sqlite") as registry:
            learner.publish(registry, "alpha")
            names = registry.attach(stage_registry)
            assert set(names) == {"cdrl:alpha-v1", "cdrl:alpha"}
            listed = stage_registry.describe()[KIND_SESSION_GENERATOR]
            assert "cdrl:alpha-v1" in listed and "cdrl:alpha" in listed
            # Publishing after attach self-registers the new version.
            learner.publish(registry, "alpha")
            listed = stage_registry.describe()[KIND_SESSION_GENERATOR]
            assert "cdrl:alpha-v2" in listed

    def test_schema_version_mismatch_drops_store(self, tmp_path):
        path = tmp_path / "pol.sqlite"
        learner = self._trained_learner(episodes=2)
        with PolicyRegistry(path) as registry:
            learner.publish(registry, "alpha")
        import sqlite3

        with sqlite3.connect(path) as conn:
            conn.execute(
                "UPDATE meta SET value = '0' WHERE key = 'schema_version'"
            )
        with PolicyRegistry(path) as registry:
            assert registry.invalidated is True
            assert len(registry) == 0


class TestServingRegisteredPolicies:
    def test_engine_serves_registered_policy_by_name(self, tmp_path):
        learner = FleetLearner(
            _spec(), num_actors=2, envs_per_actor=1, workers="inline"
        )
        with learner:
            learner.train()
            registry_path = tmp_path / "pol.sqlite"
            with PolicyRegistry(registry_path) as registry:
                learner.publish(registry, "served")
        engine = LinxEngine(policy_registry_path=registry_path)
        try:
            result = engine.explore(
                ExploreRequest(
                    goal="weather delays",
                    dataset="flights",
                    num_rows=120,
                    ldx_text=LDX,
                    episodes=3,
                    seed=3,
                    stages={"session_generator": "cdrl:served-v1"},
                )
            )
            assert result.stage_names["session_generator"] == "cdrl:served-v1"
            assert result.operations
            assert result.episodes_trained == learner.total_episodes
        finally:
            engine.policy_registry.close()

    def test_generator_rejects_mismatched_table(self, tmp_path):
        learner = FleetLearner(
            _spec(episodes=2), num_actors=1, envs_per_actor=1, workers="inline"
        )
        with learner:
            learner.train()
            with PolicyRegistry(tmp_path / "pol.sqlite") as registry:
                learner.publish(registry, "flightsonly")
                generator = RegisteredPolicySessionGenerator(registry, "flightsonly")
                from repro.datasets.registry import load_dataset

                other = load_dataset("netflix", num_rows=60)
                with pytest.raises(ValueError, match="does not fit table"):
                    generator.generate(other, LDX)

    def test_generator_honours_request_episode_budget(self, tmp_path):
        learner = FleetLearner(
            _spec(episodes=2), num_actors=1, envs_per_actor=1, workers="inline"
        )
        with learner:
            learner.train()
            with PolicyRegistry(tmp_path / "pol.sqlite") as registry:
                learner.publish(registry, "budgeted")
                generator = RegisteredPolicySessionGenerator(registry, "budgeted")
                table = learner.spec.load_table()
                attempts = []
                outcome = generator.generate(
                    table,
                    LDX,
                    episodes=2,
                    on_episode=lambda episode, *_: attempts.append(episode),
                )
                assert attempts == [0, 1]
                assert outcome.episodes_trained == 2  # trained episodes, from history
