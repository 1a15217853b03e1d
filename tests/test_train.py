"""Tests for the training tier (checkpointed runs, resume, registry)."""

from __future__ import annotations

import os
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
from repro.explore.rollouts import collect_rollouts
from repro.rl.trainer import TrainerConfig, TrainingHistory
from repro.train import __main__ as cli
from repro.train.checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    TrainingCheckpoint,
    TrainSpec,
    deserialize_buffer,
    serialize_buffer,
)
from repro.train.registry import (
    PolicyRegistry,
    RegisteredPolicySessionGenerator,
    config_fingerprint,
)
from repro.train.run import TrainingRun, assert_same_training, training_divergence
from rollout_oracle import collect_sequential_rollouts

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


def _outcome(result) -> tuple:
    """What a run returns: operations, utility and both compliance flags."""
    return (
        [operation.signature() for operation in result.session.operations],
        float(result.utility_score),
        result.fully_compliant,
        result.structurally_compliant,
    )


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
        run = TrainingRun(_spec(episodes=2))
        run.train()
        rollout = collect_rollouts(
            [run.agent.environment],
            run.agent.policy,
            decision_to_choice=run.trainer.decision_to_choice,
        )
        rows = serialize_buffer(rollout.buffers[0])
        buffer = deserialize_buffer(rows)
        assert serialize_buffer(buffer) == rows
        assert len(buffer.transitions) == len(rows)
        decision = buffer.transitions[0].decision
        assert not hasattr(decision, "probabilities")
        assert decision.observation.flags.writeable

    def test_blob_round_trip(self):
        run = TrainingRun(_spec(episodes=4))
        run.collect_until(2)
        checkpoint = run.checkpoint()
        restored = TrainingCheckpoint.from_blob(checkpoint.to_blob())
        assert restored == checkpoint

    def test_checkpoint_carries_the_policy_generator_state(self, tmp_path):
        path = tmp_path / "run.ckpt"
        run = TrainingRun(_spec(episodes=4), checkpoint_path=path)
        run.collect_until(2)
        state = run.agent.policy.rng.bit_generator.state
        assert TrainingCheckpoint.load(path).policy_rng_state == state
        resumed = TrainingRun.from_checkpoint(path)
        assert resumed.agent.policy.rng.bit_generator.state == state

    def test_unknown_schema_version_rejected(self):
        blob = TrainingRun(_spec(episodes=2)).checkpoint().to_blob()
        payload = pickle.loads(blob)
        payload["schema_version"] = CHECKPOINT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema version"):
            TrainingCheckpoint.from_blob(pickle.dumps(payload, protocol=4))

    def test_save_and_load_file(self, tmp_path):
        path = tmp_path / "run.ckpt"
        TrainingRun(_spec(episodes=2), checkpoint_path=path).collect_until(2)
        assert TrainingCheckpoint.load(path).episodes_completed == 2

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "run.ckpt"
        run = TrainingRun(_spec(episodes=4), checkpoint_path=path)
        run.collect_until(1)
        previous = path.read_bytes()

        def disk_full(_fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fsync", disk_full)
        with pytest.raises(OSError, match="No space"):
            run.collect_until(2)  # the checkpoint at episode 2 fails
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ckpt"]
        assert path.read_bytes() == previous
        assert TrainingCheckpoint.load(path).episodes_completed == 1

    def test_truncated_file_raises_value_error_naming_the_path(self, tmp_path):
        path = tmp_path / "run.ckpt"
        TrainingRun(_spec(episodes=2), checkpoint_path=path).collect_until(2)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError, match="run.ckpt"):
            TrainingCheckpoint.load(path)

    def test_spec_payload_round_trip(self):
        spec = _spec(episodes=7, seed=11)
        assert TrainSpec.from_payload(spec.to_payload()) == spec


# -- one training path: TrainingRun == agent.run() ----------------------------------
class TestTrainingRunEqualsAgentRun:
    @pytest.mark.parametrize("num_envs", [1, 2, 4])
    def test_run_equals_agent_run(self, num_envs):
        spec = _spec(num_envs=num_envs)
        agent = spec.build_agent()
        expected = agent.run()
        run = TrainingRun(spec)
        result = run.train()
        assert_same_training(agent.trainer, run.trainer)
        assert result.history == expected.history  # cache_stats included
        assert _outcome(result) == _outcome(expected)

    def test_checkpoint_stretches_do_not_change_the_run(self, tmp_path):
        spec = _spec(episodes=7, num_envs=2)
        plain = TrainingRun(spec)
        plain_result = plain.train()
        checkpointed = TrainingRun(
            spec, checkpoint_path=tmp_path / "run.ckpt", checkpoint_every=2
        )
        assert _outcome(checkpointed.train()) == _outcome(plain_result)
        assert_same_training(plain.trainer, checkpointed.trainer)


class TestWeightsVersion:
    def test_reads_keep_the_version_and_writes_bump_it(self):
        """Only weight writes invalidate caches keyed on ``weights_version``."""
        run = TrainingRun(_spec(episodes=4))
        run.collect_until(2)
        network = run.trainer.policy.network
        version = network.weights_version
        assert network.num_parameters() > 0
        checkpoint = run.checkpoint()
        assert training_divergence(run.trainer, run.trainer) is None
        assert network.weights_version == version
        run.trainer.optimizer.step(run.trainer.policy.parameters())
        assert network.weights_version > version
        version = network.weights_version
        network.load_state(checkpoint.network_state)
        assert network.weights_version > version


class TestDivergenceGate:
    def test_identical_runs_have_no_divergence(self):
        first, second = TrainingRun(_spec(episodes=2)), TrainingRun(_spec(episodes=2))
        first.train()
        second.train()
        assert training_divergence(first.trainer, second.trainer) is None

    def test_names_the_first_divergent_episode_and_field(self):
        first, second = TrainingRun(_spec(episodes=4)), TrainingRun(_spec(episodes=4))
        first.train()
        second.train()
        second.trainer.history.episode_steps[3] += 1
        second.trainer.history.episode_returns[2] += 1.0
        with pytest.raises(AssertionError, match="episode 2 episode_returns"):
            assert_same_training(first.trainer, second.trainer)
        second.trainer.history.episode_returns.pop()
        second.trainer.history.episode_returns[2] -= 1.0
        assert "episode 3 episode_returns" in training_divergence(
            first.trainer, second.trainer
        )

    def test_names_the_first_differing_parameter(self):
        first, second = TrainingRun(_spec(episodes=2)), TrainingRun(_spec(episodes=2))
        first.train()
        second.train()
        name, weight = second.trainer.policy.network.named_parameters()[1]
        weight.ravel()[5] += 1.0
        divergence = training_divergence(first.trainer, second.trainer)
        assert divergence.startswith(f"weights: parameter 1 ({name})")
        assert "flat index 5" in divergence


# -- kill-and-resume -----------------------------------------------------------------
class TestKillAndResume:
    def test_resume_matches_uninterrupted_run(self, tmp_path):
        spec = _spec(num_envs=2)
        baseline = spec.build_agent()
        expected = baseline.run()

        path = tmp_path / "run.ckpt"
        stopped = TrainingRun(spec, checkpoint_path=path).collect_until(3)
        assert stopped == 4  # the first wave boundary at or past 3
        resumed = TrainingRun.from_checkpoint(path)
        result = resumed.train()
        assert_same_training(baseline.trainer, resumed.trainer, "kill-and-resume")
        assert _outcome(result) == _outcome(expected)

    def test_resume_from_completion_checkpoint_is_a_no_op(self, tmp_path):
        spec = _spec(episodes=4, num_envs=2)
        path = tmp_path / "run.ckpt"
        finished = TrainingRun(spec, checkpoint_path=path)
        finished.train()
        resumed = TrainingRun.from_checkpoint(path)
        resumed.train()
        assert_same_training(finished.trainer, resumed.trainer, "completed resume")

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=4),
        stop_after=st.integers(min_value=1, max_value=5),
        num_envs=st.sampled_from([1, 2, 4]),
        batch_episodes=st.sampled_from([2, 3, 8]),
    )
    def test_resume_property_over_seeds_and_stop_points(
        self, tmp_path_factory, seed, stop_after, num_envs, batch_episodes
    ):
        """Stopping at any wave boundary of any seed resumes bit-identically,
        including mid-batch, with elite replay and greedy evaluations."""
        trainer = TrainerConfig(batch_episodes=batch_episodes, greedy_eval_every=2)
        spec = _spec(seed=seed, num_envs=num_envs, trainer=trainer)
        uninterrupted = TrainingRun(spec)
        expected = uninterrupted.train()

        path = tmp_path_factory.mktemp("ckpt") / "run.ckpt"
        TrainingRun(spec, checkpoint_path=path).collect_until(stop_after)
        resumed = TrainingRun.from_checkpoint(path)
        result = resumed.train()
        assert_same_training(uninterrupted.trainer, resumed.trainer, "kill-and-resume")
        assert _outcome(result) == _outcome(expected)

    def test_cli_train_kill_and_resume(self, tmp_path, monkeypatch):
        """``train --envs 2`` killed half-way, then ``resume``, ends where an
        uninterrupted run does."""
        spec = _spec(episodes=8, num_envs=2)
        baseline = spec.build_agent()
        baseline.run()

        class Killed(Exception):
            pass

        half = spec.config.episodes // 2

        def kill_at_half(episode, *_):
            if episode == half:  # the first episode after the wave boundary
                raise Killed

        path = tmp_path / "run.ckpt"
        monkeypatch.setattr(cli, "_ticker", lambda quiet: kill_at_half)
        with pytest.raises(Killed):
            cli.main(
                [
                    "train", "--dataset", "flights", "--rows", "120", "--ldx", LDX,
                    "--episodes", "8", "--episode-length", "3", "--seed", "3",
                    "--envs", "2", "--checkpoint", str(path),
                ]
            )
        assert TrainingCheckpoint.load(path).episodes_completed == half
        monkeypatch.undo()
        assert cli.main(["resume", str(path), "--quiet"]) == 0
        finished = TrainingRun.from_checkpoint(path)
        assert finished.episodes_completed == spec.config.episodes
        assert_same_training(baseline.trainer, finished.trainer, "CLI kill-and-resume")


# -- the policy registry -------------------------------------------------------------
class TestPolicyRegistry:
    def _trained_run(self, episodes: int = 4) -> TrainingRun:
        run = TrainingRun(_spec(episodes=episodes, num_envs=2))
        run.train()
        return run

    def test_publish_versions_and_get(self, tmp_path):
        run = self._trained_run()
        with PolicyRegistry(tmp_path / "pol.sqlite") as registry:
            assert run.publish(registry, "alpha", metrics={"utility": 1.0}) == 1
            assert run.publish(registry, "alpha") == 2
            assert registry.versions("alpha") == [1, 2]
            assert len(registry) == 2
            record = registry.get("alpha", 1)
            assert record["metrics"] == {"utility": 1.0}
            assert record["dataset"] == "flights"
            assert record["promoted"] is True  # version 1 auto-promoted
            assert isinstance(record["checkpoint"], TrainingCheckpoint)
            assert record["config_fingerprint"] == config_fingerprint(
                run.spec.config
            )

    def test_promotion_moves_the_default(self, tmp_path):
        run = self._trained_run()
        with PolicyRegistry(tmp_path / "pol.sqlite") as registry:
            run.publish(registry, "alpha")
            run.publish(registry, "alpha")
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
        run = self._trained_run(episodes=2)
        with PolicyRegistry(tmp_path / "pol.sqlite") as registry:
            with pytest.raises(ValueError, match="invalid policy name"):
                run.publish(registry, name)

    def test_names_are_case_folded(self, tmp_path):
        run = self._trained_run(episodes=2)
        with PolicyRegistry(tmp_path / "pol.sqlite") as registry:
            assert run.publish(registry, "Alpha") == 1
            assert registry.versions("ALPHA") == [1]
            assert registry.get("alpha")["name"] == "alpha"

    def test_attach_registers_versioned_and_alias_stages(self, tmp_path):
        run = self._trained_run()
        stage_registry = StageRegistry()
        with PolicyRegistry(tmp_path / "pol.sqlite") as registry:
            run.publish(registry, "alpha")
            names = registry.attach(stage_registry)
            assert set(names) == {"cdrl:alpha-v1", "cdrl:alpha"}
            listed = stage_registry.describe()[KIND_SESSION_GENERATOR]
            assert "cdrl:alpha-v1" in listed and "cdrl:alpha" in listed
            # Publishing after attach self-registers the new version.
            run.publish(registry, "alpha")
            listed = stage_registry.describe()[KIND_SESSION_GENERATOR]
            assert "cdrl:alpha-v2" in listed

    def test_schema_version_mismatch_drops_store(self, tmp_path):
        path = tmp_path / "pol.sqlite"
        run = self._trained_run(episodes=2)
        with PolicyRegistry(path) as registry:
            run.publish(registry, "alpha")
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
        run = TrainingRun(_spec(num_envs=2))
        run.train()
        registry_path = tmp_path / "pol.sqlite"
        with PolicyRegistry(registry_path) as registry:
            run.publish(registry, "served")
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
            assert result.episodes_trained == run.total_episodes
        finally:
            engine.policy_registry.close()

    def test_generator_rejects_mismatched_table(self, tmp_path):
        run = TrainingRun(_spec(episodes=2))
        run.train()
        with PolicyRegistry(tmp_path / "pol.sqlite") as registry:
            run.publish(registry, "flightsonly")
            generator = RegisteredPolicySessionGenerator(registry, "flightsonly")
            from repro.datasets.registry import load_dataset

            other = load_dataset("netflix", num_rows=60)
            with pytest.raises(ValueError, match="does not fit table"):
                generator.generate(other, LDX)

    def test_generator_honours_request_episode_budget(self, tmp_path):
        run = TrainingRun(_spec(episodes=2))
        run.train()
        with PolicyRegistry(tmp_path / "pol.sqlite") as registry:
            run.publish(registry, "budgeted")
            generator = RegisteredPolicySessionGenerator(registry, "budgeted")
            table = run.spec.load_table()
            attempts = []
            outcome = generator.generate(
                table,
                LDX,
                episodes=2,
                on_episode=lambda episode, *_: attempts.append(episode),
            )
            assert attempts == [0, 1]
            assert outcome.episodes_trained == 2  # trained episodes, from history

    def test_evaluation_sweep_matches_the_sequential_oracle(self, tmp_path):
        """The served sweep (waves of one) replays one-at-a-time rollouts."""
        run = TrainingRun(_spec(episodes=4, num_envs=2))
        run.train()
        with PolicyRegistry(tmp_path / "pol.sqlite") as registry:
            run.publish(registry, "swept")
            generator = RegisteredPolicySessionGenerator(registry, "swept")
            table = run.spec.load_table()
            served = []
            generator.generate(
                table,
                LDX,
                episodes=5,
                seed=7,
                on_episode=lambda attempt, reward, session: served.append(
                    (reward, [op.signature() for op in session.operations])
                ),
            )
            agent = generator.load_agent(table)
        assert len(served) == 5
        for attempt, (reward, operations) in enumerate(served):
            oracle = collect_sequential_rollouts(
                [agent.environment],
                agent.policy,
                seed=7,
                episode_base=attempt,
                greedy=(attempt == 0),
                decision_to_choice=agent.trainer.decision_to_choice,
            )
            assert [op.signature() for op in oracle.sessions[0].operations] == (
                operations
            ), f"attempt {attempt}: operations differ"
            assert oracle.buffers[0].total_reward() == reward, (
                f"attempt {attempt}: reward differs"
            )
