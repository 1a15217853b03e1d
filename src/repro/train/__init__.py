"""Training tier: checkpointed runs, exact resume, policy registry.

The training loop of :mod:`repro.cdrl` runs in one process.  This package
makes it operable:

* :mod:`repro.train.run` — :class:`TrainingRun`, which collects episodes
  with the trainer's wave loop and checkpoints between waves, so a killed
  run resumes to the weights of an uninterrupted one.
* :mod:`repro.train.checkpoint` — schema-versioned, bit-identical training
  checkpoints (network weights, optimizer moments, pending gradient batch,
  elite replay set, history and the policy's generator state).
* :mod:`repro.train.registry` — a sqlite-backed :class:`PolicyRegistry` of
  named, versioned policy artifacts.  An engine opened on its file
  (``LinxEngine(policy_registry_path=...)``) serves them as session
  generators by name (``cdrl:<name>[-v<N>]``), looked up per engine.

``python -m repro.train`` is the operational CLI (train / resume / list /
promote).
"""

from .checkpoint import (
    CHECKPOINT_SCHEMA_VERSION,
    TrainingCheckpoint,
    TrainSpec,
)
from .registry import PolicyRegistry, RegisteredPolicySessionGenerator
from .run import TrainingRun

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "PolicyRegistry",
    "RegisteredPolicySessionGenerator",
    "TrainSpec",
    "TrainingCheckpoint",
    "TrainingRun",
]
