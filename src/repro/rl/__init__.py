"""Minimal deep reinforcement learning library (the ChainerRL substitute)."""

from .buffer import EpisodeBuffer, Transition
from .network import DenseLayer, MultiHeadPolicyNetwork, softmax
from .optimizer import SGD, Adam
from .policy import CategoricalPolicy, PolicyDecision
from .schedules import ConstantSchedule, ExponentialDecaySchedule, LinearSchedule
from .trainer import PolicyGradientTrainer, TrainerConfig, TrainingHistory

__all__ = [
    "Adam",
    "CategoricalPolicy",
    "ConstantSchedule",
    "DenseLayer",
    "EpisodeBuffer",
    "ExponentialDecaySchedule",
    "LinearSchedule",
    "MultiHeadPolicyNetwork",
    "PolicyDecision",
    "PolicyGradientTrainer",
    "SGD",
    "TrainerConfig",
    "TrainingHistory",
    "Transition",
    "softmax",
]
