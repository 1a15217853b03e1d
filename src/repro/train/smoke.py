"""Training-tier smoke check: kill-and-resume, publish, serve by name.

``python -m repro.train.smoke`` gates the training tier's load-bearing
guarantees end to end:

* a :class:`~repro.train.run.TrainingRun` killed at a wave boundary and
  resumed from its checkpoint finishes **bit-identical** to the
  uninterrupted ``agent.run()``, at ``num_envs=1`` and at ``num_envs=2`` —
  same final weights, optimizer moments and history (a mismatch names the
  first divergent episode or parameter);
* the trained policy publishes to a :class:`~repro.train.registry.PolicyRegistry`
  and is served over HTTP: an ``ExploreRequest`` naming
  ``stages={"session_generator": "cdrl:smoke-v1"}`` returns a session from
  the registered policy without training, and ``/stats`` reports the
  registry.
"""

from __future__ import annotations

import http.client
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

from repro.cdrl.agent import CdrlConfig

from .checkpoint import TrainSpec
from .registry import PolicyRegistry
from .run import TrainingRun, assert_same_training

SMOKE_LDX = """
ROOT CHILDREN <A1,A2>
A1 LIKE [F,delay_reason,eq,weather] and CHILDREN {B1}
B1 LIKE [G,(?<Y>.*),mean,(?<Z>.*)]
A2 LIKE [F,delay_reason,neq,weather] and CHILDREN {B2}
B2 LIKE [G,(?<Y>.*),mean,(?<Z>.*)]
"""

NUM_ROWS = 150
EPISODES = 8
SEED = 3


def _call(
    port: int, method: str, path: str, body: dict[str, Any] | None = None
) -> tuple[int, dict[str, Any]]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        payload = json.dumps(body) if body is not None else None
        connection.request(
            method, path, body=payload, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        connection.close()


def _outcome(result) -> tuple:
    return (
        [operation.signature() for operation in result.session.operations],
        float(result.utility_score),
        result.fully_compliant,
        result.structurally_compliant,
    )


def _kill_and_resume(num_envs: int, checkpoint_path: Path) -> tuple[TrainingRun, Any]:
    """Kill a run half-way, resume it, and check it against ``agent.run()``."""
    spec = TrainSpec(
        dataset="flights",
        ldx_text=SMOKE_LDX,
        num_rows=NUM_ROWS,
        config=CdrlConfig(
            episodes=EPISODES, episode_length=4, seed=SEED, num_envs=num_envs
        ),
    )
    baseline = spec.build_agent()
    baseline_result = baseline.run()
    stopped_at = TrainingRun(spec, checkpoint_path=checkpoint_path).collect_until(
        EPISODES // 2
    )
    assert stopped_at == EPISODES // 2, f"stopped at {stopped_at}"
    resumed = TrainingRun.from_checkpoint(checkpoint_path)
    resumed_result = resumed.train()
    what = f"kill-and-resume at num_envs={num_envs}"
    assert_same_training(baseline.trainer, resumed.trainer, what)
    assert _outcome(resumed_result) == _outcome(baseline_result), (
        f"{what}: result {_outcome(resumed_result)} != "
        f"uninterrupted {_outcome(baseline_result)}"
    )
    print(
        f"{what} ok: stopped at {stopped_at}/{EPISODES}, weights, "
        f"optimizer and history bit-identical to the uninterrupted run "
        f"(utility={resumed_result.utility_score:.4f}, "
        f"compliant={resumed_result.fully_compliant})"
    )
    return resumed, resumed_result


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="linx-train-smoke-") as tmp:
        registry_path = Path(tmp) / "policies.sqlite"

        # -- kill at a wave boundary, resume from the checkpoint ----------------
        runs = {
            num_envs: _kill_and_resume(num_envs, Path(tmp) / f"run-{num_envs}.ckpt")
            for num_envs in (1, 2)
        }

        # -- publish the trained policy -----------------------------------------
        resumed, resumed_result = runs[2]
        with PolicyRegistry(registry_path) as registry:
            version = resumed.publish(
                registry, "smoke", metrics={"utility": resumed_result.utility_score}
            )
        assert version == 1, f"expected version 1, got {version}"

        # -- serve it by name over HTTP -----------------------------------------
        from repro.engine.core import LinxEngine
        from repro.engine.request import ExploreRequest
        from repro.engine.scheduler import RequestScheduler
        from repro.engine.server import ServerThread

        engine = LinxEngine(policy_registry_path=registry_path)
        scheduler = RequestScheduler(engine, max_workers=1)
        try:
            with ServerThread(scheduler) as hosted:
                port = hosted.port
                status, stages = _call(port, "GET", "/stages")
                generators = stages["stages"]["session_generator"]
                assert "cdrl:smoke-v1" in generators, generators
                assert "cdrl:smoke" in generators, generators

                request = ExploreRequest(
                    goal="Characterise weather-delayed flights",
                    dataset="flights",
                    num_rows=NUM_ROWS,
                    ldx_text=SMOKE_LDX,
                    episodes=4,
                    seed=SEED,
                    stages={"session_generator": "cdrl:smoke-v1"},
                    request_id="train-smoke",
                )
                status, submitted = _call(port, "POST", "/requests", request.to_dict())
                assert status == 202, f"submit returned {status}: {submitted}"
                ticket = submitted["ticket"]
                while True:
                    status, snapshot = _call(port, "GET", f"/requests/{ticket}/result")
                    if status != 202:
                        break
                    time.sleep(0.05)
                assert status == 200, f"result returned {status}: {snapshot}"
                result = snapshot["result"]
                assert result["stage_names"]["session_generator"] == "cdrl:smoke-v1", (
                    result["stage_names"]
                )
                assert result["operations"], "registered policy served no session"
                assert result["episodes_trained"] == EPISODES, (
                    f"expected episodes_trained={EPISODES}, "
                    f"got {result['episodes_trained']}"
                )

                status, stats = _call(port, "GET", "/stats")
                registry_stats = stats.get("policy_registry")
                assert registry_stats is not None, "no policy_registry in /stats"
                assert registry_stats["artifacts"] >= 1, registry_stats
                assert registry_stats["loads"] >= 1, registry_stats
                print(
                    "served registered policy ok: "
                    f"generator={result['stage_names']['session_generator']}, "
                    f"operations={len(result['operations'])}, "
                    f"compliant={result['fully_compliant']}, "
                    f"episodes_trained={result['episodes_trained']}"
                )
                print(f"  policy registry: {registry_stats}")
        finally:
            scheduler.shutdown()
            if engine.policy_registry is not None:
                engine.policy_registry.close()
    print("train smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
