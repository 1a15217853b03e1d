"""Exploration model: operations, sessions, executor, rewards and the ADE MDP."""

from .action_space import ActionChoice, ActionSpace
from .cache import ExecutionCache
from .diversity import summarize, summary_distance
from .environment import ExplorationEnvironment
from .executor import ExecutionError, QueryExecutor
from .interestingness import conciseness, filter_interestingness, kl_divergence
from .operations import (
    BackOperation,
    FilterOperation,
    GroupAggOperation,
    RootOperation,
    operation_from_signature,
)
from .reward import GenericExplorationReward
from .session import ExplorationSession, session_from_operations

__all__ = [
    "ActionChoice",
    "ActionSpace",
    "BackOperation",
    "ExecutionCache",
    "ExecutionError",
    "ExplorationEnvironment",
    "ExplorationSession",
    "FilterOperation",
    "GenericExplorationReward",
    "GroupAggOperation",
    "QueryExecutor",
    "RootOperation",
    "conciseness",
    "filter_interestingness",
    "kl_divergence",
    "operation_from_signature",
    "session_from_operations",
    "summarize",
    "summary_distance",
]
