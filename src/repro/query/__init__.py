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
from .physical import (
    DEFAULT_CACHE_BYTES,
    CacheStats,
    CenterCache,
    OperatorMetrics,
    QueryResult,
    RunMetrics,
    StreamingResult,
    execute_plan,
    execute_plan_streaming,
)
from .optimizer_dp import OptimizedPlan, optimize_dp
from .optimizer_dps import optimize_dps
from .optimizer_wcoj import optimize_wcoj
from .parser import parse_pattern
from .pattern import Condition, GraphPattern, PatternError

__all__ = [
    "FetchStep",
    "RowLimitExceeded",
    "FilterStep",
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
    "CacheStats",
    "CenterCache",
    "DEFAULT_CACHE_BYTES",
    "OperatorMetrics",
    "QueryResult",
    "RunMetrics",
    "StreamingResult",
    "execute_plan",
    "execute_plan_streaming",
    "OptimizedPlan",
    "optimize_dp",
    "optimize_dps",
    "optimize_wcoj",
    "parse_pattern",
    "Condition",
    "GraphPattern",
    "PatternError",
]
