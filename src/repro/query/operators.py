"""Functional facade over the physical operators (compatibility shim).

The operator *logic* — HPSJ, HPSJ+ Filter/Fetch, selections — lives in
:mod:`repro.query.physical.operators` as Volcano-style classes shared by
both drivers.  This module keeps the original one-shot functional API
(used by the benchmarks and the operator-level tests): each function
instantiates the matching physical operator, drains it into a
:class:`~repro.query.algebra.TemporalTable`, and returns the table along
with the operator's :class:`OperatorMetrics`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..db.database import GraphDatabase
from .algebra import FilterKey, Side, TemporalTable
from .pattern import Condition, GraphPattern
from .physical.context import ExecutionContext, OperatorMetrics, RowLayout, temp_name
from .physical.operators import (
    FetchOp,
    PhysicalOperator,
    SeedJoinOp,
    SeedScanOp,
    SelectionOp,
    SharedFilterOp,
)

__all__ = [
    "OperatorMetrics",
    "seed_scan",
    "hpsj",
    "apply_filter",
    "apply_fetch",
    "apply_selection",
]


def _context(
    db: GraphDatabase, pattern: GraphPattern, row_limit: Optional[int]
) -> ExecutionContext:
    return ExecutionContext(db=db, pattern=pattern, row_limit=row_limit)


def _drain(
    db: GraphDatabase, op: PhysicalOperator, source=None
) -> Tuple[TemporalTable, OperatorMetrics]:
    """Materialize one operator's output stream into a temporal table."""
    output = TemporalTable.from_layout(db.pool, op.layout, name=temp_name(op.name))
    output.insert_many(op.rows(source), sanitize=op.ctx.sanitize)
    return output, op.metrics


def _layout_of(table: TemporalTable) -> RowLayout:
    return RowLayout(table.variables, table.pending)


def seed_scan(
    db: GraphDatabase, pattern: GraphPattern, var: str,
    row_limit: Optional[int] = None,
) -> Tuple[TemporalTable, OperatorMetrics]:
    """Materialize one variable column from its base table extent."""
    return _drain(db, SeedScanOp(_context(db, pattern, row_limit), var))


def hpsj(
    db: GraphDatabase, pattern: GraphPattern, condition: Condition,
    row_limit: Optional[int] = None,
) -> Tuple[TemporalTable, OperatorMetrics]:
    """Algorithm 1: R-join two base tables via the cluster-based index."""
    return _drain(db, SeedJoinOp(_context(db, pattern, row_limit), condition))


def apply_filter(
    db: GraphDatabase,
    pattern: GraphPattern,
    table: TemporalTable,
    keys: Sequence[FilterKey],
    row_limit: Optional[int] = None,
) -> Tuple[TemporalTable, OperatorMetrics]:
    """R-semijoin(s) in one shared scan (Filter of Algorithm 2)."""
    op = SharedFilterOp(_context(db, pattern, row_limit), _layout_of(table), keys)
    return _drain(db, op, table.scan())


def apply_fetch(
    db: GraphDatabase,
    pattern: GraphPattern,
    table: TemporalTable,
    condition: Condition,
    side: Side,
    row_limit: Optional[int] = None,
) -> Tuple[TemporalTable, OperatorMetrics]:
    """Fetch of Algorithm 2: materialize the condition's other variable."""
    op = FetchOp(
        _context(db, pattern, row_limit), _layout_of(table), condition, side
    )
    return _drain(db, op, table.scan())


def apply_selection(
    db: GraphDatabase,
    pattern: GraphPattern,
    table: TemporalTable,
    condition: Condition,
    row_limit: Optional[int] = None,
) -> Tuple[TemporalTable, OperatorMetrics]:
    """Self R-join (Eq. 5): keep rows with ``out(x) ∩ in(y) ≠ ∅``."""
    op = SelectionOp(_context(db, pattern, row_limit), _layout_of(table), condition)
    return _drain(db, op, table.scan())
