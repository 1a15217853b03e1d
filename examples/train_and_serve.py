"""Training walkthrough: train → checkpoint → publish → serve by name.

A `TrainingRun` trains a CDRL policy in one process.  The episodes up to
each gradient update play as one lock-step wave (a batch of 8 here), and
the run checkpoints at every update (`checkpoint_every` defaults to the
batch size).  A wave samples
from the policy's own generator exactly as its episodes would one at a
time, and the checkpoint stores that generator's state, so a run stopped
at a checkpoint and resumed ends with exactly the weights of an
uninterrupted one.

This script:

1. trains a policy on the Flights dataset in batch-sized waves, stops
   half-way, mid-batch (as if killed), and resumes from the checkpoint
   file,
2. publishes the trained policy into a sqlite `PolicyRegistry`,
3. boots the HTTP serving tier pointed at that registry and submits an
   `ExploreRequest` that names the policy as its session generator —
   serving a *trained* artifact with no training at request time.

Run with::

    PYTHONPATH=src python examples/train_and_serve.py
"""

import http.client
import json
import tempfile
import time
from pathlib import Path

from repro.cdrl import CdrlConfig
from repro.engine import ExploreRequest, LinxEngine, RequestScheduler
from repro.engine.server import ServerThread
from repro.rl.trainer import TrainerConfig
from repro.train import PolicyRegistry, TrainingRun, TrainSpec

WEATHER_DELAY_LDX = """
ROOT CHILDREN <A1,A2>
A1 LIKE [F,delay_reason,eq,weather] and CHILDREN {B1}
B1 LIKE [G,(?<Y>.*),mean,(?<Z>.*)]
A2 LIKE [F,delay_reason,neq,weather] and CHILDREN {B2}
B2 LIKE [G,(?<Y>.*),mean,(?<Z>.*)]
"""

#: Episodes per gradient update, and so per training wave.
BATCH = 8


def call(port: int, method: str, path: str, body: dict | None = None) -> tuple[int, dict]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=300)
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


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="linx-train-") as tmp:
        checkpoint_path = Path(tmp) / "weather.ckpt"
        registry_path = Path(tmp) / "policies.sqlite"

        # -- 1. train, stop half-way, resume from the checkpoint -------------
        spec = TrainSpec(
            dataset="flights",
            ldx_text=WEATHER_DELAY_LDX,
            num_rows=300,
            config=CdrlConfig(
                episodes=24,
                episode_length=5,
                seed=0,
                trainer=TrainerConfig(batch_episodes=BATCH),
            ),
        )
        started = time.perf_counter()
        stopped = TrainingRun(spec, checkpoint_path=checkpoint_path).collect_until(12)
        print(f"stopped at episode {stopped}; resuming from {checkpoint_path.name} ...")
        run = TrainingRun.from_checkpoint(checkpoint_path)
        result = run.train(
            callback=lambda episode, episode_return, _s: print(
                f"  episode {episode + 1:>2}: return {episode_return:7.3f}"
            )
            if (episode + 1) % 8 == 0
            else None
        )
        print(
            f"trained {result.episodes_trained} episodes in "
            f"{time.perf_counter() - started:.1f}s; best session "
            f"compliant={result.fully_compliant}, "
            f"utility={result.utility_score:.4f}"
        )

        # -- 2. publish the artifact ----------------------------------------
        with PolicyRegistry(registry_path) as registry:
            version = run.publish(
                registry, "weather-delays", metrics={"utility": result.utility_score}
            )
        print(f"published cdrl:weather-delays-v{version} -> {registry_path.name}")

        # -- 3. serve the registered policy over HTTP -----------------------
        engine = LinxEngine(policy_registry_path=registry_path)
        scheduler = RequestScheduler(engine, max_workers=1)
        try:
            with ServerThread(scheduler) as hosted:
                port = hosted.port
                _, stages = call(port, "GET", "/stages")
                print(f"registered generators: {stages['stages']['session_generator']}")

                request = ExploreRequest(
                    goal="Highlight distinctive characteristics of weather delays",
                    dataset="flights",
                    num_rows=300,
                    ldx_text=WEATHER_DELAY_LDX,
                    episodes=5,
                    seed=0,
                    stages={"session_generator": "cdrl:weather-delays-v1"},
                )
                _, submitted = call(port, "POST", "/requests", request.to_dict())
                ticket = submitted["ticket"]
                while True:
                    status, payload = call(port, "GET", f"/requests/{ticket}/result")
                    if status != 202:
                        break
                    time.sleep(0.1)
                result = payload["result"]
                print(
                    f"served by {result['stage_names']['session_generator']}: "
                    f"{len(result['operations'])} operations, "
                    f"compliant={result['fully_compliant']}, "
                    f"episodes_trained={result['episodes_trained']}"
                )
                for signature in result["operations"]:
                    print(f"  {signature}")
        finally:
            scheduler.shutdown()
            if engine.policy_registry is not None:
                engine.policy_registry.close()


if __name__ == "__main__":
    main()
