"""Bit-identical training checkpoints for the CDRL trainer.

A checkpoint captures everything the training loop needs to continue as if
it had never stopped: network weights and optimizer moments (structurally
serialized — dtype string, shape, raw bytes — the same discipline
:mod:`repro.explore.diskcache` uses for table columns, never pickled object
graphs), the trainer's pending gradient batch and elite replay set, the
JSON-round-tripping :class:`~repro.rl.trainer.TrainingHistory`, the
episode position and the state of the policy's generator.  Waves of one
sample from that generator, so a resumed run continues its stream; waves of
K > 1 draw from per-episode streams (``env_rng(seed, episode_index)``),
whose position *is* the ``(seed, episodes_completed)`` pair.

The hard guarantee, tested in ``tests/test_train.py``: restoring a
checkpoint taken at episode *k* and training to the end produces weights,
optimizer state and history bit-identical to the uninterrupted run.

One subtlety is the elite replay set.  ``PolicyGradientTrainer._update``
excludes elite episodes that are *identical objects* to batch members, so a
checkpoint must preserve aliasing: elite entries that are also in the
pending batch are stored as ``("batch", index)`` references and re-aliased
on restore; independent elites serialize their transitions.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.cdrl.agent import CdrlConfig, LinxCdrlAgent
from repro.cdrl.compliance import ComplianceRewardConfig
from repro.dataframe.table import DataTable
from repro.datasets.registry import load_dataset
from repro.rl.buffer import EpisodeBuffer
from repro.rl.policy import BiasRow, PolicyDecision
from repro.rl.trainer import PolicyGradientTrainer, TrainerConfig, TrainingHistory

CHECKPOINT_SCHEMA_VERSION = 3

#: Serialized array: (dtype string, shape, raw bytes).
ArrayPayload = tuple[str, tuple[int, ...], bytes]


def _pack_array(array: np.ndarray) -> ArrayPayload:
    return (array.dtype.str, tuple(array.shape), array.tobytes())


def _unpack_array(payload: ArrayPayload) -> np.ndarray:
    dtype_str, shape, raw = payload
    return np.frombuffer(raw, dtype=np.dtype(dtype_str)).reshape(shape).copy()


# -- training specs ------------------------------------------------------------------
def config_to_payload(config: CdrlConfig) -> dict:
    """A :class:`CdrlConfig` as a dict of primitives (pickle/JSON friendly)."""
    payload = dataclasses.asdict(config)
    payload["hidden_sizes"] = tuple(config.hidden_sizes)
    return payload


def config_from_payload(payload: dict) -> CdrlConfig:
    """Invert :func:`config_to_payload`."""
    data = dict(payload)
    data["hidden_sizes"] = tuple(data.get("hidden_sizes", (64, 64)))
    data["trainer"] = TrainerConfig(**data.get("trainer", {}))
    data["compliance"] = ComplianceRewardConfig(**data.get("compliance", {}))
    return CdrlConfig(**data)


@dataclass(frozen=True)
class TrainSpec:
    """What to train on, declaratively: a named dataset plus LDX and config.

    Everything is a primitive (or reduces to primitives via
    :meth:`to_payload`), so a checkpoint or registry artifact can rebuild
    the identical training context on resume or when served — the pattern
    ``LinxEngine.worker_spec()`` established for the process-mode
    ``RequestScheduler``'s workers.
    """

    dataset: str
    ldx_text: str
    num_rows: Optional[int] = None
    dataset_seed: Optional[int] = None
    config: CdrlConfig = field(default_factory=CdrlConfig)

    def to_payload(self) -> dict:
        return {
            "dataset": self.dataset,
            "ldx_text": self.ldx_text,
            "num_rows": self.num_rows,
            "dataset_seed": self.dataset_seed,
            "config": config_to_payload(self.config),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "TrainSpec":
        return cls(
            dataset=payload["dataset"],
            ldx_text=payload["ldx_text"],
            num_rows=payload.get("num_rows"),
            dataset_seed=payload.get("dataset_seed"),
            config=config_from_payload(payload["config"]),
        )

    def load_table(self) -> DataTable:
        return load_dataset(self.dataset, num_rows=self.num_rows, seed=self.dataset_seed)

    def build_agent(self) -> LinxCdrlAgent:
        """Construct the CDRL agent this spec describes."""
        return LinxCdrlAgent(self.load_table(), self.ldx_text, config=self.config)


# -- episode-buffer serialization ----------------------------------------------------
def serialize_buffer(buffer: EpisodeBuffer) -> list[tuple]:
    """An :class:`EpisodeBuffer` as rows of primitives.

    Only the fields gradient updates consume survive: per-head indices, the
    observation, the bias row in effect at sampling time (its ``(T,)`` row
    and per-head folded flags), and the scalar log-prob/value/entropy.
    """
    rows: list[tuple] = []
    for transition in buffer.transitions:
        decision = transition.decision
        rows.append(
            (
                tuple((name, int(index)) for name, index in decision.indices.items()),
                _pack_array(np.asarray(decision.observation, dtype=np.float64)),
                (
                    _pack_array(np.asarray(decision.biases.row, dtype=np.float64)),
                    _pack_array(np.asarray(decision.biases.folded, dtype=bool)),
                ),
                float(decision.log_prob),
                float(decision.value),
                float(decision.entropy),
                float(transition.reward),
                bool(transition.done),
            )
        )
    return rows


def deserialize_buffer(rows: list[tuple]) -> EpisodeBuffer:
    """Invert :func:`serialize_buffer`."""
    buffer = EpisodeBuffer()
    for indices, observation, biases, log_prob, value, entropy, reward, done in rows:
        decision = PolicyDecision(
            indices={name: int(index) for name, index in indices},
            log_prob=float(log_prob),
            value=float(value),
            entropy=float(entropy),
            observation=_unpack_array(observation),
            biases=BiasRow(*(_unpack_array(payload) for payload in biases)),
        )
        buffer.add(decision, float(reward), bool(done))
    return buffer


# -- the checkpoint ------------------------------------------------------------------
@dataclass
class TrainingCheckpoint:
    """A schema-versioned snapshot of a training run at a wave boundary."""

    spec: dict
    episodes_completed: int
    total_episodes: int
    network_state: list
    optimizer_state: dict
    history: dict
    #: Episodes collected since the last gradient update (usually empty at a
    #: wave boundary unless batch_episodes does not divide the wave size).
    pending_batch: list
    #: Elite replay set; each entry is ``("batch", index)`` (aliasing a
    #: pending-batch member) or ``("buffer", rows)``.
    elite: list
    #: Best fully-compliant session seen so far, as
    #: ``(operation signatures, utility)`` — or ``None``.
    best_compliant: Optional[tuple]
    #: ``policy.rng.bit_generator.state``: where the policy's own sampling
    #: stream (waves of one, ``best_session``) continues.
    policy_rng_state: dict
    created_at: float = 0.0
    schema_version: int = CHECKPOINT_SCHEMA_VERSION

    # -- serialization ---------------------------------------------------------------
    def to_blob(self) -> bytes:
        payload = {"schema_version": self.schema_version}
        payload.update((f.name, getattr(self, f.name)) for f in dataclasses.fields(self))
        return pickle.dumps(payload, protocol=4)

    @classmethod
    def from_blob(cls, blob: bytes) -> "TrainingCheckpoint":
        payload = pickle.loads(blob)
        version = payload.get("schema_version")
        if version != CHECKPOINT_SCHEMA_VERSION:
            raise ValueError(
                f"checkpoint schema version {version} is not supported "
                f"(expected {CHECKPOINT_SCHEMA_VERSION})"
            )
        return cls(**payload)

    def save(self, path: str | os.PathLike) -> None:
        """Write atomically and durably: fsync a temp file, then rename it.

        A crash leaves the previous checkpoint in place; a write that raises
        also removes its temp file.
        """
        path = os.fspath(path)
        blob = self.to_blob()
        tmp_path = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp_path, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.remove(tmp_path)
            raise

    @classmethod
    def load(cls, path: str | os.PathLike) -> "TrainingCheckpoint":
        """Read a checkpoint; a truncated or corrupt file raises ``ValueError``."""
        with open(path, "rb") as handle:
            blob = handle.read()
        try:
            return cls.from_blob(blob)
        except (pickle.UnpicklingError, EOFError, ValueError) as exc:
            raise ValueError(f"cannot load checkpoint {os.fspath(path)}: {exc}") from exc


def capture(
    spec_payload: dict,
    trainer: PolicyGradientTrainer,
    *,
    episodes_completed: int,
    total_episodes: int,
    best_compliant: Optional[tuple] = None,
) -> TrainingCheckpoint:
    """Snapshot *trainer* at a wave boundary.

    Elite buffers that are identity-members of the pending batch become
    ``("batch", index)`` references so :func:`restore_into` can rebuild the
    exact aliasing ``_update``'s replay filter depends on.
    """
    elite_payload: list[tuple] = []
    for buffer in trainer._elite:
        batch_index = next(
            (i for i, member in enumerate(trainer._batch) if member is buffer), None
        )
        if batch_index is not None:
            elite_payload.append(("batch", batch_index))
        else:
            elite_payload.append(("buffer", serialize_buffer(buffer)))
    return TrainingCheckpoint(
        spec=spec_payload,
        episodes_completed=episodes_completed,
        total_episodes=total_episodes,
        network_state=trainer.policy.network.export_state(),
        optimizer_state=trainer.optimizer.export_state(trainer.policy.parameters()),
        history=trainer.history.to_dict(),
        pending_batch=[serialize_buffer(buffer) for buffer in trainer._batch],
        elite=elite_payload,
        best_compliant=best_compliant,
        policy_rng_state=trainer.policy.rng.bit_generator.state,
        created_at=time.time(),
    )


def restore_into(checkpoint: TrainingCheckpoint, trainer: PolicyGradientTrainer) -> None:
    """Load *checkpoint* into a freshly built *trainer* in place.

    The trainer must have been constructed from the checkpoint's spec (same
    dataset/LDX/config), so the network architecture matches; weights load
    in place, which keeps the optimizer-moment identity keys valid.
    """
    trainer.policy.network.load_state(checkpoint.network_state)
    trainer.optimizer.load_state(trainer.policy.parameters(), checkpoint.optimizer_state)
    trainer.policy.rng.bit_generator.state = checkpoint.policy_rng_state
    trainer.history = TrainingHistory.from_dict(checkpoint.history)
    trainer._batch = [deserialize_buffer(rows) for rows in checkpoint.pending_batch]
    elite: list[EpisodeBuffer] = []
    for kind, payload in checkpoint.elite:
        if kind == "batch":
            elite.append(trainer._batch[payload])
        elif kind == "buffer":
            elite.append(deserialize_buffer(payload))
        else:
            raise ValueError(f"unknown elite entry kind {kind!r}")
    trainer._elite = elite
