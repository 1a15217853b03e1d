"""Benchmark — batched lock-step rollouts against one-at-a-time episodes.

One workload on the flights dataset, mirroring how the exploration engine
actually runs episodes: repeated rollout sweeps (the shape of
benchmark/eval reruns and training waves) through the status-quo path —
one environment at a time, each sweep cold-starting its own private
caches, one policy forward per environment per step — against
:func:`~repro.explore.rollouts.collect_rollouts` over a list of 8
environments in lock-step sharing **one** action space, long-lived cache
and view-feature memo, one batched policy forward per step.  The two must
produce bit-identical episodes at equal seeds (asserted), so the entire
ratio is overhead removed, not behaviour changed.

Results land in ``BENCH_rollouts.json`` in the repository root.

Acceptance gates (enforced as assertions, run in CI):

* batched rollouts reach >= 3x the sequential steps/sec,
* batched episodes are bit-identical to sequential ones.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from conftest import print_table, scale

# The one-at-a-time collector is the tests' oracle, not a library path.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from rollout_oracle import collect_sequential_rollouts  # noqa: E402

from repro.cdrl.spec_network import build_basic_policy
from repro.datasets import load_dataset
from repro.explore.action_space import ActionSpace
from repro.explore.cache import ExecutionCache
from repro.explore.environment import ExplorationEnvironment
from repro.explore.rollouts import collect_rollouts

#: Minimum batched/sequential steps-per-second ratio (acceptance criterion).
#: Wall-clock ratios are load-sensitive, so noisy shared runners may lower
#: the gate via the environment; the bit-identity assertions always gate.
MIN_BATCHED_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_BATCHED_SPEEDUP", "3.0"))

#: Where the machine-readable result lands (repository root).
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_rollouts.json"

NUM_ENVS = 8
EPISODE_LENGTH = 6
SEED = 0
POLICY_SEED = 3


def _episode_trace(batch) -> list[list[tuple]]:
    """Everything observable about a rollout batch, for bit-identity checks."""
    return [
        [(t.decision.indices, t.reward, t.done) for t in buffer.transitions]
        for buffer in batch.buffers
    ]


def _run_sequential_sweeps(table, sweeps: int):
    """The status quo: per-sweep fresh environments, private caches, one at a time."""
    space = ActionSpace(table)
    observation_size = ExplorationEnvironment(
        table, episode_length=EPISODE_LENGTH, action_space=space
    ).observation_size()
    steps = 0
    trace = None
    started = time.perf_counter()
    for _ in range(sweeps):
        environments = [
            ExplorationEnvironment(
                table, episode_length=EPISODE_LENGTH, action_space=space
            )
            for _ in range(NUM_ENVS)
        ]
        policy = build_basic_policy(
            observation_size=observation_size,
            action_space=space,
            seed=POLICY_SEED,
            mask_invalid_actions=True,
        )
        batch = collect_sequential_rollouts(environments, policy, seed=SEED)
        steps += batch.total_steps()
        trace = _episode_trace(batch)
    return steps / (time.perf_counter() - started), trace


def _run_batched_sweeps(table, sweeps: int):
    """The library path: one environment list, one shared cache, lock-step waves."""
    space = ActionSpace(table)
    cache = ExecutionCache()
    feature_memo: dict = {}
    environments = [
        ExplorationEnvironment(
            table,
            episode_length=EPISODE_LENGTH,
            action_space=space,
            cache=cache,
            feature_memo=feature_memo,
        )
        for _ in range(NUM_ENVS)
    ]
    policy = build_basic_policy(
        observation_size=environments[0].observation_size(),
        action_space=space,
        seed=POLICY_SEED,
        mask_invalid_actions=True,
    )
    steps = 0
    trace = None
    started = time.perf_counter()
    for _ in range(sweeps):
        batch = collect_rollouts(environments, policy, seed=SEED)
        steps += batch.total_steps()
        trace = _episode_trace(batch)
    return steps / (time.perf_counter() - started), trace, cache


def _run_rollout_benchmark():
    table = load_dataset("flights", num_rows=scale(3000, 20000))
    sweeps = scale(6, 8)
    _run_sequential_sweeps(table, 1)  # warm-up: dataset/action-space memos
    sequential_sps, sequential_trace = _run_sequential_sweeps(table, sweeps)
    batched_sps, batched_trace, shared_cache = _run_batched_sweeps(table, sweeps)
    return [
        {
            "workload": f"rollouts: {NUM_ENVS}-env batched vs sequential",
            "kind": "batched_rollouts",
            "sweeps": sweeps,
            "sequential_steps_per_s": round(sequential_sps, 1),
            "batched_steps_per_s": round(batched_sps, 1),
            "speedup": round(batched_sps / sequential_sps, 2),
            "bit_identical": batched_trace == sequential_trace,
            "shared_cache": shared_cache.stats.as_dict(),
        }
    ]


def _emit_json(rows: list[dict]) -> None:
    payload = {
        "benchmark": "batched_rollouts",
        "dataset": "flights",
        "num_envs": NUM_ENVS,
        "gates": {"min_batched_speedup": MIN_BATCHED_SPEEDUP},
        "workloads": rows,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def test_rollout_speedups(benchmark):
    rows = benchmark.pedantic(_run_rollout_benchmark, iterations=1, rounds=1)
    for row in rows:
        printable = {k: v for k, v in row.items() if not isinstance(v, dict)}
        print_table(row["workload"], [printable])
    _emit_json(rows)
    for row in rows:
        assert row["bit_identical"], row
        assert row["speedup"] >= MIN_BATCHED_SPEEDUP, row
