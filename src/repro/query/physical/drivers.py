"""The plan driver — chained operator streams — and the accounting run.

:func:`execute_plan_streaming` is how every query executes: it
interprets a validated :class:`~repro.query.algebra.Plan` through the
operator pipeline (:func:`~repro.query.physical.operators.build_pipeline`)
by chaining the operators' ``rows()`` streams, so no temporal table ever
hits the storage engine and a ``LIMIT`` stops all upstream work the
moment enough output exists.  The last operator's stream is the result;
iterating it adds one generator (LIMIT, deadline, metrics), and
:meth:`GraphEngine.match` collects it with no frame per row (``drain``).

:func:`execute_plan` is not a second way to answer a query; it is the
paper's HPSJ+ *accounting run* ("stores them into T_W"): the same
operators, each drained into a
:class:`~repro.query.algebra.TemporalTable`, sequentially and without
the cross-query cache, so intermediate reads and writes are charged I/O
through the buffer pool exactly as the cost model prices them (Eqs.
10-12).  Only the Figure 5-7 experiments call it
(:func:`repro.workloads.runner.accounting_run`).

Because Algorithm 1/2 logic (dedup sets, the Remark 3.1 shared scan, the
per-operator subcluster memo) lives only in the operators, the two return
identical rows *and* identical per-operator counters when fully drained.
Both accept ``row_limit`` (the execution guard), and both run
:meth:`~repro.query.algebra.Plan.validate` before any row is produced: a
malformed plan raises :class:`~repro.query.pattern.PatternError` listing
every violation.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import compress, count, islice
from time import perf_counter
from typing import Iterator, List, Optional, Tuple

from ...db.database import Database
from ...storage.stats import IOStats
from ..algebra import Plan, TemporalTable
from .cache import CenterCache
from .context import CacheStats, ExecutionContext, OperatorMetrics, temp_name
from .operators import Row, build_pipeline


@dataclass
class RunMetrics:
    """Everything measured while executing one plan."""

    elapsed_seconds: float = 0.0
    io: Optional[IOStats] = None
    operators: List[OperatorMetrics] = field(default_factory=list)
    peak_temporal_rows: int = 0
    result_rows: int = 0
    #: CenterCache activity during this run (None when no cache was used)
    center_cache: Optional[CacheStats] = None
    #: True when a stream stopped before exhausting the operator chain
    #: (LIMIT reached, deadline fired, or explicit close): the rows
    #: delivered are a prefix of the full result, not necessarily all of
    #: it.  Always False for fully drained runs and for ``execute_plan``.
    truncated: bool = False
    #: why a truncated stream stopped: ``"limit"``, ``"timeout"`` or
    #: ``"closed"`` (None when not truncated)
    stop_reason: Optional[str] = None

    @property
    def physical_io(self) -> int:
        return self.io.total_io() if self.io else 0

    @property
    def logical_io(self) -> int:
        return self.io.logical_reads if self.io else 0


@dataclass
class QueryResult:
    """Final matches plus the plan and metrics that produced them."""

    columns: Tuple[str, ...]
    rows: List[Tuple[int, ...]]
    plan: Plan
    metrics: RunMetrics

    def as_set(self) -> set:
        return set(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


def _prepare(
    db: Database,
    plan: Plan,
    row_limit: Optional[int],
    center_cache: Optional[CenterCache] = None,
):
    """Shared driver preamble: row-limit and plan validation, pipeline build."""
    if row_limit is not None and row_limit < 0:
        raise ValueError(f"row_limit must be >= 0, got {row_limit}")
    plan.validate()
    ctx = ExecutionContext(
        db=db,
        pattern=plan.pattern,
        row_limit=row_limit,
        center_cache=center_cache,
    )
    operators = build_pipeline(ctx, plan)
    metrics = RunMetrics(operators=[op.metrics for op in operators])
    return ctx, operators, metrics


# ----------------------------------------------------------------------
# the accounting run (the paper's HPSJ+ execution, Figures 5-7)
# ----------------------------------------------------------------------
def execute_plan(
    db: Database,
    plan: Plan,
    row_limit: Optional[int] = None,
) -> QueryResult:
    """Run *plan* cold, materializing every intermediate, the result too.

    Without a :class:`CenterCache`: every multiway expansion is
    computed from the database's runs and every intermediate is
    written to and re-read from a temporal table, so ``metrics.io`` is
    the I/O the paper's Section 6 charges.  ``row_limit`` and plan
    validation behave as in :func:`execute_plan_streaming` (an exceeded
    guard raises :class:`repro.query.algebra.RowLimitExceeded`, no
    partial result).  Rows and per-operator counters equal the stream's.
    """
    _, operators, metrics = _prepare(db, plan, row_limit)
    io_before = db.stats.snapshot()
    started = perf_counter()
    tables: List[TemporalTable] = []
    try:
        for op in operators:
            source = tables[-1].scan() if tables else None
            output = TemporalTable.from_layout(
                db.pool, op.layout, name=temp_name(op.name)
            )
            tables.append(output)
            output.insert_many(op.rows(source))
            metrics.peak_temporal_rows = max(
                metrics.peak_temporal_rows, output.row_count
            )
        rows = list(tables[-1].scan())
    finally:
        # intermediates are dead once the result has been read back: hand
        # their pages back instead of leaving them on the simulated disk
        for table in tables:
            table.drop()

    metrics.elapsed_seconds = perf_counter() - started
    metrics.io = db.stats.delta_since(io_before)
    metrics.result_rows = len(rows)
    return QueryResult(
        columns=tuple(plan.pattern.variables), rows=rows, plan=plan, metrics=metrics
    )


# ----------------------------------------------------------------------
# the driver: streaming (pipelined, LIMIT pushdown)
# ----------------------------------------------------------------------
#: rows drain() appends between deadline checks: how late a deadline can fire
CHUNK = 1024


class StreamingResult:
    """Lazy row iterator with the same :class:`RunMetrics` as a full run.

    Nothing executes until the first row is pulled.  A stream is read
    once: iterated — through the driver's one bounded generator, without
    a deadline the only Python frame a row passes — or collected in C by
    :meth:`drain`.  Either starts the clock, the I/O snapshot and the
    deadline on the first pull and finalizes ``metrics`` (elapsed time,
    I/O delta, result count, peak intermediate size; the operators' own
    counters flush just before) when it finishes: exhausted, stopped at
    a limit or deadline, or closed.  With a ``limit``, upstream
    operators stop early and the metrics cover only the work actually
    done.  Call :meth:`close` to abandon a stream deterministically.
    """

    def __init__(
        self,
        rows: Iterator[Row],
        metrics: RunMetrics,
        db: Database,
        plan: Plan,
        limit: Optional[int] = None,
        timeout: Optional[float] = None,
        cache_stats: Optional[CacheStats] = None,
    ):
        self._chain = rows
        self._limit = limit
        self._timeout = timeout
        self._db = db
        # the context's private recorder: exact per-run cache accounting
        # even while other queries hammer the same shared CenterCache
        self._cache_stats = cache_stats
        #: set when the stream ran to its own end (exhausted, limit or
        #: deadline) — a later close() is then not a truncation
        self._ended = False
        self.metrics = metrics
        #: the plan being run and its output columns, in row
        #: order (pattern variables) — same contract as :class:`QueryResult`
        self.plan = plan
        self.columns = tuple(plan.pattern.variables)
        self._rows = self._bounded()

    def __iter__(self) -> Iterator[Row]:
        return self._rows

    def __next__(self) -> Row:
        return next(self._rows)

    def close(self) -> None:
        """Abandon the stream early: close the operator chain and
        finalize the metrics over the work actually performed.  A close
        before exhaustion marks the run ``truncated``
        (``stop_reason="closed"`` unless the stream already stopped
        itself at a limit or deadline)."""
        if not self._ended and self.metrics.stop_reason is None:
            self._stop("closed")
        self._rows.close()

    def _stop(self, reason: str) -> None:
        self.metrics.truncated = True
        self.metrics.stop_reason = reason

    def _begin(self) -> Tuple[float, IOStats, Optional[float]]:
        # first pull: the wall clock, the I/O snapshot and the deadline
        # all start here, so elapsed_seconds and the deadline agree
        started = perf_counter()
        io_before = self._db.stats.snapshot()
        deadline = None if self._timeout is None else started + self._timeout
        if self._limit is not None and self._limit <= 0:
            self._stop("limit")
        elif deadline is not None and perf_counter() >= deadline:
            self._stop("timeout")
        return started, io_before, deadline

    def _end(self, started: float, io_before: IOStats, delivered: int) -> None:
        # explicit teardown (not GC order): closing the chain flushes the operators
        self._chain.close()
        metrics = self.metrics
        metrics.result_rows = delivered
        metrics.elapsed_seconds = perf_counter() - started
        metrics.io = self._db.stats.delta_since(io_before)
        metrics.peak_temporal_rows = max(
            (op.rows_out for op in metrics.operators), default=0
        )
        metrics.center_cache = self._cache_stats

    def _bounded(self) -> Iterator[Row]:
        # the one generator between operators and caller, and it must stay one: only
        # a frame that pulls the chain itself is sure to run its finally (DESIGN.md §2.1).
        started, io_before, deadline = self._begin()
        stop_at = sys.maxsize if self._limit is None else self._limit
        emitted = 0
        try:
            if not self.metrics.truncated:
                # compress ticks once per row pulled; islice never pulls row stop_at + 1
                ticks = count(1)
                limited = islice(compress(self._chain, ticks), stop_at)
                try:
                    if deadline is None:
                        yield from limited
                    else:
                        for row in limited:
                            yield row
                            if perf_counter() >= deadline:
                                self._stop("timeout")
                                break
                finally:
                    emitted = next(ticks) - 1
                if emitted >= stop_at:
                    self._stop("limit")
            self._ended = True
        finally:
            self._end(started, io_before, emitted)

    def drain(self) -> List[Row]:
        """The rows iterating would yield, by ``list.extend``: no frame or
        counter per row, a deadline checked per :data:`CHUNK` rows.  This
        frame pulls the chain and owns the ``finally``, so an operator's
        exception leaves ``metrics`` final, counting the rows appended."""
        out: List[Row] = []
        started, io_before, deadline = self._begin()
        try:
            if not self.metrics.truncated:
                limit = self._limit
                rows = self._chain if limit is None else islice(self._chain, limit)
                if deadline is None:
                    out.extend(rows)
                else:
                    for full in count(CHUNK, CHUNK):
                        out.extend(islice(rows, CHUNK))
                        if len(out) < full:
                            break
                        if perf_counter() >= deadline:
                            self._stop("timeout")
                            break
                if limit is not None and len(out) >= limit:
                    self._stop("limit")
            self._ended = True
        finally:
            self._end(started, io_before, len(out))
        return out


def execute_plan_streaming(
    db: Database,
    plan: Plan,
    limit: Optional[int] = None,
    row_limit: Optional[int] = None,
    center_cache: Optional[CenterCache] = None,
    timeout: Optional[float] = None,
) -> StreamingResult:
    """Yield result rows lazily; stop early at *limit*.

    The plan is validated before any row is produced
    (:meth:`~repro.query.algebra.Plan.validate` raises
    :class:`~repro.query.pattern.PatternError` listing every violation).
    ``row_limit`` caps every operator's
    output; exceeding it raises
    :class:`repro.query.algebra.RowLimitExceeded` (an execution guard
    for runaway patterns, not a LIMIT clause).

    ``center_cache`` plugs in the engine's cross-query
    :class:`CenterCache` of multiway expansions; without it every
    expansion is computed from the database's runs.  ``REPRO_SANITIZE``
    arms the runtime tripwires of :mod:`repro.analysis.sanitizer`.

    ``timeout`` is a per-query deadline in seconds, measured from the
    first row pull: once it expires the stream stops and the metrics are
    flagged ``truncated`` with ``stop_reason="timeout"``.  Cancellation
    is cooperative — iterating checks between rows,
    :meth:`StreamingResult.drain` once per :data:`CHUNK` rows (at most
    one chunk late) — so one long operator stage is bounded by
    ``row_limit``, not by the deadline.  Stopping at *limit* likewise
    flags the run truncated (``stop_reason="limit"``): the delivered
    rows are a prefix of the full result, which may or may not have had
    more rows.  A negative *limit* or ``row_limit`` raises ``ValueError``.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    ctx, operators, metrics = _prepare(db, plan, row_limit, center_cache)
    rows = None
    for op in operators:
        rows = op.rows(rows)
    return StreamingResult(
        rows, metrics, db, plan, limit=limit, timeout=timeout,
        cache_stats=ctx.cache_stats if center_cache is not None else None,
    )
