"""Minimal deep reinforcement learning library (the ChainerRL substitute)."""

from .buffer import EpisodeBuffer, Transition
from .network import DenseLayer, MultiHeadPolicyNetwork
from .optimizer import Adam
from .policy import CategoricalPolicy, PolicyDecision
from .trainer import PolicyGradientTrainer, TrainerConfig, TrainingHistory

__all__ = [
    "Adam",
    "CategoricalPolicy",
    "DenseLayer",
    "EpisodeBuffer",
    "MultiHeadPolicyNetwork",
    "PolicyDecision",
    "PolicyGradientTrainer",
    "TrainerConfig",
    "TrainingHistory",
    "Transition",
]
