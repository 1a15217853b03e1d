"""Tests for the training tier (checkpointed runs, resume, registry)."""

from __future__ import annotations

import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cdrl.agent import CdrlConfig
from repro.engine import (
    STAGE_REGISTRY,
    TICKET_DONE,
    ExploreRequest,
    LinxEngine,
    RequestScheduler,
    RequestValidationError,
)
from repro.engine.server import ServerThread
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
from repro.train.run import TrainingRun
from harness import (
    assert_same_training,
    call,
    comparable,
    first_difference,
    stream_events,
    training_divergence,
)
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


def _stored_with_envs(spec: TrainSpec, num_envs: int) -> dict:
    """*spec*'s payload as stores written before ``CdrlConfig`` lost
    ``num_envs`` hold it: the field sits after ``cache_execution``."""
    payload = spec.to_payload()
    config = {}
    for name, value in payload["config"].items():
        config[name] = value
        if name == "cache_execution":
            config["num_envs"] = num_envs
    payload["config"] = config
    return payload


class TestStoredSpecs:
    """Checkpoints and registry records whose spec still carries ``num_envs``."""

    def test_one_environment_loads_and_resumes(self, tmp_path):
        spec = _spec()
        assert TrainSpec.from_payload(_stored_with_envs(spec, 1)) == spec
        uninterrupted = TrainingRun(spec)
        expected = uninterrupted.train()
        path = tmp_path / "run.ckpt"
        TrainingRun(spec, checkpoint_path=path).collect_until(3)
        checkpoint = TrainingCheckpoint.load(path)
        checkpoint.spec = _stored_with_envs(spec, 1)
        checkpoint.save(path)
        resumed = TrainingRun.from_checkpoint(path)
        assert resumed.spec == spec
        result = resumed.train()
        assert_same_training(uninterrupted.trainer, resumed.trainer, "stored num_envs=1")
        assert _outcome(result) == _outcome(expected)
        with PolicyRegistry(tmp_path / "pol.sqlite") as registry:
            registry.publish("stored", checkpoint)
            agent = RegisteredPolicySessionGenerator(registry, "stored").load_agent(
                spec.load_table()
            )
            assert agent.config == spec.config

    def test_per_episode_streams_are_refused(self, tmp_path):
        spec = _spec()
        stored = _stored_with_envs(spec, 2)
        with pytest.raises(ValueError, match="num_envs=2"):
            TrainSpec.from_payload(stored)
        path = tmp_path / "run.ckpt"
        checkpoint = TrainingRun(spec).checkpoint()
        checkpoint.spec = stored
        checkpoint.save(path)
        with pytest.raises(ValueError, match="num_envs=2"):
            TrainingRun.from_checkpoint(path)
        with PolicyRegistry(tmp_path / "pol.sqlite") as registry:
            with pytest.raises(ValueError, match="num_envs=2"):
                registry.publish("streams", checkpoint)


# -- one training path: TrainingRun == agent.run() ----------------------------------
class TestTrainingRunEqualsAgentRun:
    @pytest.mark.parametrize("batch_episodes", [1, 3, 8])
    def test_run_equals_agent_run(self, batch_episodes):
        spec = _spec(trainer=TrainerConfig(batch_episodes=batch_episodes))
        agent = spec.build_agent()
        expected = agent.run()
        run = TrainingRun(spec)
        result = run.train()
        assert_same_training(agent.trainer, run.trainer)
        assert result.history == expected.history  # cache_stats included
        assert _outcome(result) == _outcome(expected)

    def test_checkpoint_stretches_do_not_change_the_run(self, tmp_path):
        spec = _spec(episodes=7, trainer=TrainerConfig(batch_episodes=3))
        plain = TrainingRun(spec)
        plain_result = plain.train()
        checkpointed = TrainingRun(
            spec, checkpoint_path=tmp_path / "run.ckpt", checkpoint_every=2
        )
        assert _outcome(checkpointed.train()) == _outcome(plain_result)
        assert_same_training(plain.trainer, checkpointed.trainer)


class TestCheckpointCadence:
    @staticmethod
    def _record(run: TrainingRun, waves: list, saves: list) -> TrainingRun:
        """Log *run*'s wave sizes and the episode of every checkpoint it saves."""
        rollout, save = run.trainer._rollout, run.save_checkpoint

        def logged_rollout(environments, greedy=False):
            if not greedy:  # greedy evaluations are not training waves
                waves.append(len(environments))
            return rollout(environments, greedy=greedy)

        def logged_save():
            saves.append(run.episodes_completed)
            save()

        run.trainer._rollout, run.save_checkpoint = logged_rollout, logged_save
        return run

    def test_default_cadence_plays_whole_batches_and_resumes(self, tmp_path):
        """By default a checkpointed run saves at every update, plays each
        batch as one wave, and a run killed mid-batch resumes onto the same
        update boundaries, bit-identically."""
        spec = _spec(episodes=10, trainer=TrainerConfig(batch_episodes=4))
        baseline = spec.build_agent()
        expected = baseline.run()
        path = tmp_path / "run.ckpt"
        waves, saves = [], []
        first = self._record(TrainingRun(spec, checkpoint_path=path), waves, saves)
        assert first.checkpoint_every == 4
        assert first.collect_until(6) == 6
        resumed = self._record(TrainingRun.from_checkpoint(path), waves, saves)
        result = resumed.train()
        assert waves == [4, 2, 2, 2]
        assert saves == [4, 6, 8, 10, 10]  # the last one is the completion checkpoint
        assert_same_training(baseline.trainer, resumed.trainer, "default cadence")
        assert _outcome(result) == _outcome(expected)

    def test_cli_defaults_to_the_run_cadence(self):
        assert cli.build_parser().parse_args(["resume", "run.ckpt"]).checkpoint_every is None


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
        # Waves of one, a stop part-way into a batch of 3, and one wave of 8
        # cut at the stop: each must resume exactly.
        for batch_episodes in (1, 3, 8):
            spec = _spec(trainer=TrainerConfig(batch_episodes=batch_episodes))
            baseline = spec.build_agent()
            expected = baseline.run()

            path = tmp_path / f"run-{batch_episodes}.ckpt"
            stopped = TrainingRun(spec, checkpoint_path=path).collect_until(3)
            assert stopped == 3  # waves never cross the stop
            resumed = TrainingRun.from_checkpoint(path)
            result = resumed.train()
            what = f"kill-and-resume at batch_episodes={batch_episodes}"
            assert_same_training(baseline.trainer, resumed.trainer, what)
            assert _outcome(result) == _outcome(expected), what

    def test_resume_from_completion_checkpoint_is_a_no_op(self, tmp_path):
        spec = _spec(episodes=4, trainer=TrainerConfig(batch_episodes=3))
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
        batch_episodes=st.sampled_from([1, 2, 3, 8]),
    )
    def test_resume_property_over_seeds_and_stop_points(
        self, tmp_path_factory, seed, stop_after, batch_episodes
    ):
        """Stopping at any wave boundary of any seed resumes bit-identically,
        including mid-batch, with elite replay and greedy evaluations."""
        trainer = TrainerConfig(batch_episodes=batch_episodes, greedy_eval_every=2)
        spec = _spec(seed=seed, trainer=trainer)
        uninterrupted = TrainingRun(spec)
        expected = uninterrupted.train()

        path = tmp_path_factory.mktemp("ckpt") / "run.ckpt"
        TrainingRun(spec, checkpoint_path=path).collect_until(stop_after)
        resumed = TrainingRun.from_checkpoint(path)
        result = resumed.train()
        assert_same_training(uninterrupted.trainer, resumed.trainer, "kill-and-resume")
        assert _outcome(result) == _outcome(expected)

    def test_cli_train_kill_and_resume(self, tmp_path, monkeypatch):
        """``train`` killed half-way, then ``resume``, ends where an
        uninterrupted run does."""
        spec = _spec(episodes=8)
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
                    "--checkpoint", str(path), "--checkpoint-every", str(half),
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
        run = TrainingRun(_spec(episodes=episodes))
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

    @pytest.mark.parametrize(
        "name", ["", "has space", "cdrl:x", "-lead", "a/b", "alpha-v1"]
    )
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

    def test_serving_names_follow_publishes_on_any_handle(self, tmp_path):
        run = self._trained_run()
        path = tmp_path / "pol.sqlite"
        with PolicyRegistry(path) as registry, PolicyRegistry(path) as other:
            run.publish(registry, "alpha")
            assert registry.stage_names() == ["cdrl:alpha", "cdrl:alpha-v1"]
            run.publish(other, "alpha")
            assert registry.stage_names() == [
                "cdrl:alpha", "cdrl:alpha-v1", "cdrl:alpha-v2"
            ]
            assert registry.session_generator("cdrl:alpha-v2").name == "cdrl:alpha-v2"
            # The bare name floats; pinning names the version it serves now.
            assert registry.session_generator("cdrl:alpha").name == "cdrl:alpha"
            assert registry.pin("cdrl:alpha") == "cdrl:alpha-v1"
            other.promote("alpha", 2)
            assert registry.pin("cdrl:alpha") == "cdrl:alpha-v2"
            assert registry.pin("cdrl:alpha-v1") == "cdrl:alpha-v1"
            for unknown in ("cdrl:alpha-v3", "cdrl:ghost", "atena", "cdrl:a-v1-v2"):
                assert registry.session_generator(unknown) is None
                assert registry.pin(unknown) == unknown

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
        """A published policy is listed, served by name over HTTP without
        training, and reported in ``/stats``."""
        run = TrainingRun(_spec())
        run.train()
        registry_path = tmp_path / "pol.sqlite"
        with PolicyRegistry(registry_path) as registry:
            assert run.publish(registry, "served") == 1
        builtins = STAGE_REGISTRY.describe()
        engine = LinxEngine(policy_registry_path=registry_path)
        scheduler = RequestScheduler(engine, max_workers=1)
        try:
            with ServerThread(scheduler) as hosted:
                _, stages = call(hosted.port, "GET", "/stages")
                generators = stages["stages"]["session_generator"]
                assert {"cdrl:served-v1", "cdrl:served"} <= set(generators)
                request = ExploreRequest(
                    goal="weather delays",
                    dataset="flights",
                    num_rows=120,
                    ldx_text=LDX,
                    episodes=3,
                    seed=3,
                    stages={"session_generator": "cdrl:served-v1"},
                )
                status, submitted = call(hosted.port, "POST", "/requests", request.to_dict())
                assert status == 202, submitted
                stream_events(hosted.port, submitted["ticket"], timeout=120)
                status, body = call(
                    hosted.port, "GET", f"/requests/{submitted['ticket']}/result"
                )
                assert status == 200, body
                result = body["result"]
                assert result["stage_names"]["session_generator"] == "cdrl:served-v1"
                assert result["operations"]
                assert result["episodes_trained"] == run.total_episodes
                _, stats = call(hosted.port, "GET", "/stats")
                assert stats["policy_registry"]["artifacts"] >= 1
                assert stats["policy_registry"]["loads"] >= 1
        finally:
            scheduler.shutdown()
            engine.policy_registry.close()
        # The policies were the engine's own: the process-wide registry of
        # stage code is as it was.
        assert STAGE_REGISTRY.describe() == builtins

    def test_engine_level_alias_is_pinned(self, tmp_path):
        """An engine built on ``cdrl:<name>`` serves, reports and namespaces
        the version the alias named at construction."""
        run = TrainingRun(_spec(episodes=2))
        run.train()
        registry_path = tmp_path / "pol.sqlite"
        with PolicyRegistry(registry_path) as registry:
            run.publish(registry, "pinned")
            engine = LinxEngine(
                policy_registry_path=registry_path,
                stages={"session_generator": "cdrl:pinned"},
            )
            run.publish(registry, "pinned")
            registry.promote("pinned", 2)
        try:
            assert dict(engine.spec.stages)["session_generator"] == "cdrl:pinned-v1"
            assert engine.config_fingerprint() != LinxEngine().config_fingerprint()
            request = ExploreRequest(
                goal="weather delays", dataset="flights", num_rows=120,
                ldx_text=LDX, episodes=2, seed=3,
            )
            result = engine.explore(request)
            assert result.stage_names["session_generator"] == "cdrl:pinned-v1"
        finally:
            engine.policy_registry.close()

    def test_process_workers_serve_a_version_published_after_start(self, tmp_path):
        """A version published through another registry handle after the
        scheduler started serves from its warm process worker, equal to
        ``engine.explore`` in process."""
        registry_path = tmp_path / "pol.sqlite"
        engine = LinxEngine(
            cdrl_config=CdrlConfig(episodes=2), policy_registry_path=registry_path
        )
        builtins = STAGE_REGISTRY.describe()
        base = dict(
            goal="weather delays", dataset="flights", num_rows=120, ldx_text=LDX,
            episodes=2, seed=3,
        )
        request = ExploreRequest(**base, stages={"session_generator": "cdrl:late-v1"})
        try:
            with RequestScheduler(engine, workers="process", max_workers=1) as scheduler:
                # Warm the one worker's engine before the policy exists.
                warm = scheduler.submit(ExploreRequest(**base))
                assert scheduler.wait(warm.ticket_id, timeout=300)["state"] == TICKET_DONE
                run = TrainingRun(_spec(episodes=2))
                run.train()
                with PolicyRegistry(registry_path) as other:
                    assert run.publish(other, "late") == 1
                ticket = scheduler.submit(request)
                snapshot = scheduler.wait(ticket.ticket_id, timeout=300)
                assert snapshot["state"] == TICKET_DONE, snapshot
                payload = scheduler.result_payload(ticket.ticket_id)
            expected = engine.explore(request)
        finally:
            engine.policy_registry.close()
        assert payload["stage_names"]["session_generator"] == "cdrl:late-v1"
        differs = first_difference(comparable(expected.to_dict()), comparable(payload))
        assert differs is None, f"process payload differs at {differs}"
        assert STAGE_REGISTRY.describe() == builtins

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
        run = TrainingRun(_spec(episodes=4))
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
