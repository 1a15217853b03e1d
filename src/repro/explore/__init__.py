"""Exploration model: operations, sessions, executor, rewards and the ADE MDP."""

from .action_space import (
    ACTION_TYPES,
    AGENT_AGG_FUNCTIONS,
    AGENT_FILTER_OPERATORS,
    HEAD_ORDER,
    ActionChoice,
    ActionSpace,
    choice_from_index_map,
    choice_from_indices,
)
from .cache import CacheStats, ExecutionCache
from .diskcache import DISK_SCHEMA_VERSION, DiskCacheTier
from .diversity import operation_distance, result_distance, session_diversity
from .environment import (
    ExplorationEnvironment,
    GenericRewardStrategy,
    RewardStrategy,
    StepResult,
)
from .executor import ExecutionError, QueryExecutor
from .interestingness import (
    conciseness,
    filter_interestingness,
    group_interestingness,
    kl_divergence,
    operation_interestingness,
)
from .operations import (
    BackOperation,
    FilterOperation,
    GroupAggOperation,
    Operation,
    RootOperation,
    is_query_operation,
    operation_from_signature,
)
from .reward import GenericExplorationReward, GenericRewardConfig
from .rollouts import (
    RolloutBatch,
    VectorEnvironment,
    VectorStepResult,
    collect_rollouts,
    collect_sequential_rollouts,
    env_rng,
)
from .session import ExplorationSession, SessionNode, session_from_operations

__all__ = [
    "ACTION_TYPES",
    "AGENT_AGG_FUNCTIONS",
    "AGENT_FILTER_OPERATORS",
    "ActionChoice",
    "ActionSpace",
    "BackOperation",
    "CacheStats",
    "DISK_SCHEMA_VERSION",
    "DiskCacheTier",
    "ExecutionCache",
    "ExecutionError",
    "ExplorationEnvironment",
    "ExplorationSession",
    "FilterOperation",
    "GenericExplorationReward",
    "GenericRewardConfig",
    "GenericRewardStrategy",
    "GroupAggOperation",
    "HEAD_ORDER",
    "Operation",
    "QueryExecutor",
    "RewardStrategy",
    "RolloutBatch",
    "RootOperation",
    "SessionNode",
    "StepResult",
    "VectorEnvironment",
    "VectorStepResult",
    "choice_from_index_map",
    "choice_from_indices",
    "collect_rollouts",
    "collect_sequential_rollouts",
    "conciseness",
    "env_rng",
    "filter_interestingness",
    "group_interestingness",
    "is_query_operation",
    "kl_divergence",
    "operation_distance",
    "operation_from_signature",
    "operation_interestingness",
    "result_distance",
    "session_diversity",
    "session_from_operations",
]
