"""Actor processes: declaratively-rebuilt rollout collectors.

An actor is to training what ``explore_many(workers="process")`` workers are
to serving: a process that rebuilds its full context (dataset, environments,
policy) from a primitive spec, keeps it warm across tasks, and optionally
shares executed query results with its siblings through the
:class:`~repro.explore.diskcache.DiskCacheTier` under its execution cache.

Each task is one *chunk* of a collection wave: the learner ships the current
network weights plus a global episode range; the actor loads the weights in
place, collects the episodes with :func:`repro.explore.rollouts.collect_rollouts`
(per-episode RNG streams are derived from ``(seed, episode_index)``, so the
global episode index alone fixes every sample), and returns primitive
episode records — serialized buffers, operation signatures, and the
compliance/utility verdicts the learner would otherwise have to recompute.

Because the per-episode streams are position-independent and every episode
of a wave uses the wave-start weights, a wave split across W actors × K envs
is bit-identical to the same wave collected by one process with W*K envs —
the fleet-level guarantee ``tests/test_train.py`` and the training benchmark
both gate on.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Any, Optional

from repro.explore.cache import ExecutionCache
from repro.explore.rollouts import VectorEnvironment, collect_rollouts

from .checkpoint import TrainSpec, serialize_buffer


class ActorContext:
    """Everything one actor keeps warm between chunks."""

    def __init__(self, payload: dict[str, Any]):
        spec = TrainSpec.from_payload(payload["spec"])
        cache = None
        disk_cache_path = payload.get("disk_cache_path")
        if disk_cache_path:
            cache = ExecutionCache(disk=disk_cache_path)
        self.agent = spec.build_agent(num_envs=payload["envs"], cache=cache)
        self.vector_environment = self.agent.vector_environment or VectorEnvironment(
            [self.agent.environment]
        )
        self.trainer_config = self.agent.trainer.config


#: The context a worker process lazily builds and reuses across chunks,
#: keyed by the payload that built it (the ``worker_engine`` pattern).
_actor_context: Optional[ActorContext] = None
_actor_payload: Optional[dict[str, Any]] = None


def _context_for(payload: dict[str, Any]) -> ActorContext:
    global _actor_context, _actor_payload
    if _actor_context is None or payload != _actor_payload:
        _actor_context = ActorContext(payload)
        _actor_payload = payload
    return _actor_context


def collect_chunk(
    payload: dict[str, Any],
    weights_state: list,
    episode_base: int,
    num_episodes: int,
) -> list[dict[str, Any]]:
    """Collect episodes ``[episode_base, episode_base + num_episodes)``.

    Top-level (picklable) so it can be the :class:`ProcessPoolExecutor`
    entry point; also called directly in ``workers="inline"`` mode.
    Returns one primitive record per episode, in episode order.
    """
    context = _context_for(payload)
    context.agent.policy.network.load_state(weights_state)
    config = context.trainer_config
    rollout = collect_rollouts(
        context.vector_environment,
        context.agent.policy,
        seed=config.seed,
        episode_base=episode_base,
        num_episodes=num_episodes,
        decision_to_choice=context.agent.trainer.decision_to_choice,
        reward_scale=config.reward_scale,
    )
    records: list[dict[str, Any]] = []
    for buffer, session in zip(rollout.buffers, rollout.sessions):
        compliant = context.agent.matcher.verify(session.root)
        records.append(
            {
                "buffer": serialize_buffer(buffer),
                "operations": [list(op.signature()) for op in session.operations],
                "compliant": compliant,
                # Scored actor-side so the learner never replays sessions.
                "utility": (
                    float(context.agent._generic_reward.session_score(session))
                    if compliant
                    else None
                ),
            }
        )
    if context.agent.cache is not None:
        # Land the write-behind buffer so sibling actors (and the learner's
        # next wave) can reuse this chunk's executions.
        context.agent.cache.flush()
    return records


class ActorFleet:
    """A pool of W actor processes, each driving K lock-step environments.

    ``collect_wave`` splits a wave of up to ``W*K`` global episode indices
    into per-actor chunks of at most K consecutive episodes and concatenates
    the results in actor order — which *is* global episode order, so the
    learner can feed them to ``record_episode`` exactly as the
    single-process trainer would.

    ``workers="inline"`` runs chunks sequentially in this process (no pool)
    — same numbers, no parallelism; useful for tests and debugging.
    """

    def __init__(
        self,
        spec: TrainSpec,
        *,
        num_actors: int = 2,
        envs_per_actor: int = 1,
        workers: str = "process",
        disk_cache_path: str | None = None,
    ):
        if workers not in ("process", "inline"):
            raise ValueError(f"workers must be 'process' or 'inline', got {workers!r}")
        if num_actors < 1:
            raise ValueError(f"num_actors must be >= 1, got {num_actors}")
        if envs_per_actor < 1:
            raise ValueError(f"envs_per_actor must be >= 1, got {envs_per_actor}")
        self.num_actors = num_actors
        self.envs_per_actor = envs_per_actor
        self.workers = workers
        self.payload: dict[str, Any] = {
            "spec": spec.to_payload(),
            "envs": envs_per_actor,
            "disk_cache_path": disk_cache_path,
        }
        self._pool: Optional[ProcessPoolExecutor] = None
        if workers == "process":
            self._pool = ProcessPoolExecutor(max_workers=num_actors)

    @property
    def num_envs(self) -> int:
        """Total environments across the fleet (the wave size it serves)."""
        return self.num_actors * self.envs_per_actor

    def collect_wave(
        self, weights_state: list, episode_base: int, wave_size: int
    ) -> list[dict[str, Any]]:
        """Collect ``wave_size`` episodes starting at ``episode_base``."""
        if wave_size < 1:
            return []
        if wave_size > self.num_envs:
            raise ValueError(
                f"wave_size={wave_size} exceeds the fleet's {self.num_envs} envs"
            )
        chunks: list[tuple[int, int]] = []
        offset = 0
        while offset < wave_size:
            count = min(self.envs_per_actor, wave_size - offset)
            chunks.append((episode_base + offset, count))
            offset += count
        if self._pool is None:
            chunk_records = [
                collect_chunk(self.payload, weights_state, base, count)
                for base, count in chunks
            ]
        else:
            futures = [
                self._pool.submit(collect_chunk, self.payload, weights_state, base, count)
                for base, count in chunks
            ]
            chunk_records = [future.result() for future in futures]
        return [record for records in chunk_records for record in records]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ActorFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
