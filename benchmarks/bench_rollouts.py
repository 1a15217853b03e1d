"""Benchmark — batched lock-step rollouts and the tiered execution cache.

Two workloads on the flights dataset, mirroring how the exploration engine
actually runs episodes:

* **batched vs sequential rollouts** — repeated rollout sweeps (the shape of
  benchmark/eval reruns and training waves) through the status-quo path —
  one environment at a time, each sweep cold-starting its own private
  caches, one policy forward per environment per step — against
  :func:`~repro.explore.rollouts.collect_rollouts` over a list of 8
  environments in lock-step sharing **one** action space, long-lived
  cache and view-feature memo, one batched policy forward per step.  The two must produce bit-identical episodes at equal
  seeds (asserted), so the entire ratio is overhead removed, not behaviour
  changed.
* **cold vs warm disk tier** — the same batched sweep over a
  :class:`~repro.explore.cache.ExecutionCache` with a disk tier, run once against
  an empty sqlite store and again from a *fresh process's perspective*
  (new memory tier, same file).  Of the warm sweep's lookups that fall
  through the cold memory tier to sqlite, >= 80% must be served from disk
  (read-through hits promoting into memory).

Results land in ``BENCH_rollouts.json`` in the repository root.

Acceptance gates (enforced as assertions, run in CI):

* batched rollouts reach >= 3x the sequential steps/sec,
* the warm sweep's disk tier serves >= 80% of the lookups that reach it,
* batched episodes are bit-identical to sequential ones, and warm-sweep
  rewards are bit-identical to cold-sweep rewards.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
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

#: Minimum *disk-tier* hit rate of the warm sweep: of the lookups that miss
#: the (cold) memory tier and fall through to sqlite, the fraction served.
#: Gating the combined memory+disk rate would be vacuous — within-sweep
#: memory hits alone push it past 0.8 even with a dead disk tier.
MIN_WARM_HIT_RATE = float(os.environ.get("REPRO_BENCH_MIN_WARM_HIT_RATE", "0.8"))

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


def _run_batched_sweeps(table, sweeps: int, cache=None):
    """The library path: one environment list, one shared cache, lock-step waves."""
    space = ActionSpace(table)
    cache = cache if cache is not None else ExecutionCache()
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
    workloads = []

    # -- batched vs sequential ----------------------------------------------------
    _run_sequential_sweeps(table, 1)  # warm-up: dataset/action-space memos
    sequential_sps, sequential_trace = _run_sequential_sweeps(table, sweeps)
    batched_sps, batched_trace, shared_cache = _run_batched_sweeps(table, sweeps)
    workloads.append(
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
    )

    # -- cold vs warm disk tier ---------------------------------------------------
    tier_dir = tempfile.mkdtemp(prefix="repro-rollout-bench-")
    try:
        db_path = Path(tier_dir) / "execution_cache.sqlite"
        cold_cache = ExecutionCache(disk=db_path)
        cold_sps, cold_trace, _ = _run_batched_sweeps(table, sweeps, cache=cold_cache)
        cold_summary = cold_cache.describe()
        cold_cache.close()

        # A fresh process's perspective: empty memory tier, same sqlite file.
        warm_cache = ExecutionCache(disk=db_path)
        warm_sps, warm_trace, _ = _run_batched_sweeps(table, sweeps, cache=warm_cache)
        warm_summary = warm_cache.describe()
        warm_cache.close()
        disk_lookups = warm_summary["disk_hits"] + warm_summary["disk_misses"]
        workloads.append(
            {
                "workload": "disk tier: warm-start sweep vs cold",
                "kind": "disk_tier",
                "sweeps": sweeps,
                "cold_steps_per_s": round(cold_sps, 1),
                "warm_steps_per_s": round(warm_sps, 1),
                "speedup": round(warm_sps / cold_sps, 2),
                "warm_combined_hit_rate": warm_summary["hit_rate"],
                "warm_disk_hit_rate": (
                    round(warm_summary["disk_hits"] / disk_lookups, 4)
                    if disk_lookups
                    else 0.0
                ),
                "warm_disk_hits": warm_summary["disk_hits"],
                "warm_disk_misses": warm_summary["disk_misses"],
                "disk_entries": warm_summary["disk_entries"],
                "bit_identical": warm_trace == cold_trace,
            }
        )
    finally:
        shutil.rmtree(tier_dir, ignore_errors=True)
    return workloads


def _emit_json(rows: list[dict]) -> None:
    payload = {
        "benchmark": "batched_rollouts_and_tiered_cache",
        "dataset": "flights",
        "num_envs": NUM_ENVS,
        "gates": {
            "min_batched_speedup": MIN_BATCHED_SPEEDUP,
            "min_warm_hit_rate": MIN_WARM_HIT_RATE,
        },
        "workloads": rows,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def test_rollout_speedups(benchmark):
    rows = benchmark.pedantic(_run_rollout_benchmark, iterations=1, rounds=1)
    for row in rows:
        printable = {k: v for k, v in row.items() if not isinstance(v, dict)}
        print_table(row["workload"], [printable])
    _emit_json(rows)
    assert all(row["bit_identical"] for row in rows)
    for row in rows:
        if row["kind"] == "batched_rollouts":
            assert row["speedup"] >= MIN_BATCHED_SPEEDUP, row
        elif row["kind"] == "disk_tier":
            assert row["warm_disk_hit_rate"] >= MIN_WARM_HIT_RATE, row
            assert row["warm_disk_hits"] > 0, row
