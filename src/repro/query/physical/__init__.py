"""Physical operator layer: one implementation, one driver.

This package is the single home of the paper's online-phase algebra
(HPSJ, HPSJ+ Filter/Fetch, selections, multiway joins) as Volcano-style
operator classes, plus the driver that interprets a validated plan
through them — :func:`execute_plan_streaming` (pipelined, LIMIT
pushdown) — and :func:`execute_plan`, the paper's cold temporal-table
accounting run the Figure 5-7 experiments measure.

Layering rule (enforced by ``lint/physical-internals``): code outside
``repro.query`` must not import from this package — the supported entry
points are :func:`repro.query.execute_plan`,
:func:`repro.query.execute_plan_streaming` and
:class:`repro.GraphEngine`.
"""

from .cache import DEFAULT_CACHE_BYTES, CenterCache
from .context import (
    CacheStats,
    ExecutionContext,
    OperatorMetrics,
    RowLayout,
)
from .drivers import (
    QueryResult,
    RunMetrics,
    StreamingResult,
    execute_plan,
    execute_plan_streaming,
)
from .operators import (
    FetchOp,
    PhysicalOperator,
    SeedJoinOp,
    SeedScanOp,
    SelectionOp,
    SharedFilterOp,
    build_pipeline,
)
from .multiway import MultiwayIntersectOp, MultiwaySeedOp

__all__ = [
    "CacheStats",
    "CenterCache",
    "DEFAULT_CACHE_BYTES",
    "ExecutionContext",
    "OperatorMetrics",
    "RowLayout",
    "QueryResult",
    "RunMetrics",
    "StreamingResult",
    "execute_plan",
    "execute_plan_streaming",
    "FetchOp",
    "MultiwayIntersectOp",
    "MultiwaySeedOp",
    "PhysicalOperator",
    "SeedJoinOp",
    "SeedScanOp",
    "SelectionOp",
    "SharedFilterOp",
    "build_pipeline",
]
