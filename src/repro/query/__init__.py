"""Query layer: patterns, R-join operators, optimizers, execution."""

from .algebra import (
    FetchStep,
    RowLimitExceeded,
    FilterStep,
    MultiwaySeed,
    MultiwayStep,
    Plan,
    SeedJoin,
    SeedScan,
    SelectionStep,
    Side,
    TemporalTable,
)
from .costmodel import CostModel, CostParams
from .engine import GraphEngine
from .join_graph import JoinGraph
from .physical import (
    BACKENDS,
    DEFAULT_CACHE_BYTES,
    DEFAULT_MORSEL_SIZE,
    CacheStats,
    CenterCache,
    OperatorMetrics,
    ParallelStats,
    QueryResult,
    RunMetrics,
    StreamingResult,
    WorkerPool,
    default_backend,
    execute_plan,
    execute_plan_streaming,
    fork_available,
)
from .optimizer_dp import OptimizedPlan, optimize_dp, optimize_greedy
from .optimizer_dps import optimize_dps
from .optimizer_wcoj import optimize_auto, optimize_wcoj
from .parser import parse_pattern
from .pattern import Condition, GraphPattern, PatternError

__all__ = [
    "FetchStep",
    "RowLimitExceeded",
    "FilterStep",
    "JoinGraph",
    "MultiwaySeed",
    "MultiwayStep",
    "Plan",
    "SeedJoin",
    "SeedScan",
    "SelectionStep",
    "Side",
    "TemporalTable",
    "CostModel",
    "CostParams",
    "GraphEngine",
    "BACKENDS",
    "CacheStats",
    "CenterCache",
    "DEFAULT_CACHE_BYTES",
    "DEFAULT_MORSEL_SIZE",
    "OperatorMetrics",
    "ParallelStats",
    "QueryResult",
    "RunMetrics",
    "StreamingResult",
    "WorkerPool",
    "default_backend",
    "execute_plan",
    "execute_plan_streaming",
    "fork_available",
    "OptimizedPlan",
    "optimize_auto",
    "optimize_dp",
    "optimize_dps",
    "optimize_greedy",
    "optimize_wcoj",
    "parse_pattern",
    "Condition",
    "GraphPattern",
    "PatternError",
]
