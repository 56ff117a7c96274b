"""Morsel-driven parallel execution for the R-join hot path.

The paper's operators decompose into independent work units: HPSJ's seed
join is a union over per-center Cartesian products ``getF(w,X) ×
getT(w,Y)`` for ``w ∈ W(X,Y)`` (Eq. 6, Algorithm 1), and HPSJ+'s
Filter/Fetch procedures probe each temporal tuple independently (Eqs.
7-9, Algorithm 2).  This module schedules those units as *morsels* —
fixed-size slices of the center worklist or of a stage's input rows —
over a reusable worker pool, in the spirit of morsel-driven query
engines:

* :class:`WorkerPool` — the pool itself.  The default backend on
  platforms with ``fork`` is a ``ProcessPoolExecutor`` whose workers
  inherit the read-only database by copy-on-write (nothing is pickled
  for the index; only plans, morsels and result rows cross the process
  boundary).  When the database is snapshot-backed, process workers
  instead ``Snapshot.open`` the same file by path (a tiny picklable
  descriptor ships through the initializer, never the database), so
  every worker maps the identical bytes and the OS page cache is shared
  across the whole pool — and the ``spawn`` start method becomes viable
  (the ``spawn`` backend *requires* a snapshot-backed database, since it
  has no fork inheritance to fall back on).  A snapshot-bound pool
  registers itself as a holder on the snapshot
  (:meth:`~repro.storage.snapshot.Snapshot.acquire`), so closing the
  snapshot while the pool lives raises a clean ``SnapshotError`` naming
  the pool instead of poisoning worker queries mid-flight.  The
  ``thread`` backend is the portable fallback: the storage engine
  (buffer pool LRU, B+-tree page table) is not thread-safe, so
  thread-backend morsels serialize on a pool-level lock — it exercises
  the identical scheduling/merging machinery and keeps the feature
  usable where ``fork`` does not exist, but cannot speed up CPU-bound
  work under the GIL.
* :class:`ParallelExecution` — one plan execution: stage by stage it
  partitions the work, submits morsels, and merges results *in morsel
  order*.  Because every stage maps input rows to output rows
  order-preservingly (and the seed join's cross-morsel deduplication is
  replayed by the coordinator in worklist order), the merged output is
  byte-identical to the sequential oracle — row for row, not merely as
  a set.  Per-worker ``OperatorMetrics`` counters, I/O deltas and
  :class:`CenterCache` counters are folded into the coordinator's
  :class:`~repro.query.physical.drivers.RunMetrics` deterministically.

Determinism and parity guarantees (relied on by the differential tests):

* result rows equal the sequential drivers' rows, in the same order;
* ``rows_in``/``centers_probed``/``nodes_fetched`` per operator equal
  the sequential values exactly (each (row, center) unit is charged in
  exactly one morsel); ``rows_out`` is recounted by the coordinator on
  the merged stream, so it too matches;
* a stage whose work fits one morsel runs inline in the coordinator —
  ``workers=1`` (or no pool) never touches this module at all.

Early termination: the streaming driver's consumer may abandon the
result iterator at any time.  :meth:`ParallelExecution.finish` then sets
``cancel_event``, cancels every not-yet-running morsel, and (for
transient pools) shuts the pool down; engine-owned pools survive for the
next query.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from concurrent.futures import (
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait as futures_wait,
)
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from ...db.database import GraphDatabase
from ...storage.stats import IOStats, active_stats
from ..algebra import Plan, RowLimitExceeded
from .cache import CenterCache
from .context import DEFAULT_MORSEL_SIZE, ExecutionContext
from .multiway import MultiwaySeedOp
from .operators import (
    PhysicalOperator,
    ProjectOp,
    Row,
    SeedJoinOp,
    SeedScanOp,
    build_pipeline,
)

#: the pool backends; "process" needs the fork start method, "spawn"
#: needs a snapshot-backed database (workers re-open the file by path)
BACKENDS = ("process", "thread", "spawn")

#: centers are heavier units than rows (each expands a Cartesian
#: product), so center morsels are this many times smaller
CENTER_MORSEL_DIVISOR = 16


def fork_available() -> bool:
    """True when the platform offers the fork start method (Linux/macOS)."""
    return "fork" in multiprocessing.get_all_start_methods()


def default_backend() -> str:
    """Process pool where fork exists, thread pool elsewhere."""
    return "process" if fork_available() else "thread"


def center_morsel_size(morsel_size: int) -> int:
    """Centers per seed-join morsel for a given row morsel size."""
    return max(1, morsel_size // CENTER_MORSEL_DIVISOR)


# ----------------------------------------------------------------------
# worker-side entry points
# ----------------------------------------------------------------------
# The database handle forked workers operate on.  It is installed by the
# pool initializer, whose arguments reach the child through fork memory
# inheritance (never pickled) — see WorkerPool.
_WORKER_DB: Optional[GraphDatabase] = None


def _init_worker(db: GraphDatabase) -> None:
    global _WORKER_DB
    _WORKER_DB = db


def _init_snapshot_worker(descriptor: Tuple) -> None:
    """Open the pool's snapshot file inside this worker process.

    *descriptor* is ``GraphDatabase.snapshot_descriptor()``: just a path
    plus scalar configuration, picklable under any start method.  Every
    worker maps the same on-disk bytes, so the OS page cache backs the
    whole pool with one copy — nothing database-sized ever crosses the
    process boundary.
    """
    global _WORKER_DB
    # imported lazily: only workers of snapshot-bound pools need it
    from ...storage.snapshot import Snapshot

    path, generation, buffer_bytes, page_size, code_cache_enabled = descriptor
    db = GraphDatabase.from_snapshot(
        Snapshot.open(path),
        buffer_bytes=buffer_bytes,
        page_size=page_size,
        code_cache_enabled=code_cache_enabled,
    )
    # align with the coordinator's generation so cache sync and the
    # sanitizer's generation assertions agree across the pool
    db.index_generation = generation
    _WORKER_DB = db


# payload = (plan, stage_index, use_cache, kind, data, sanitize)
Payload = Tuple[Plan, int, bool, str, Sequence, bool]
StageResult = Tuple[
    List[Row],
    Tuple[int, int, int, int],
    IOStats,
    Optional[Tuple[int, int, int]],
]


def _run_stage(payload: Payload, db: Optional[GraphDatabase] = None) -> StageResult:
    """Execute one morsel of one stage; runs inside a pool worker.

    Rebuilds the operator pipeline from the (pickled) plan — operator
    construction is a few dict lookups, negligible against a morsel's
    probes — and runs only the addressed stage.  ``row_limit`` is *not*
    applied here: the coordinator enforces it on the merged stream, so a
    limit violation is detected at the same global row count as in the
    sequential drivers.
    """
    plan, stage_index, use_cache, kind, data, sanitize = payload
    if db is None:
        db = _WORKER_DB
    if db is None:  # pragma: no cover - defensive: initializer not run
        raise RuntimeError("worker has no database handle")
    guard = None
    if sanitize:
        # imported lazily: the analysis layer depends on the query
        # layer, not the other way around
        from ...analysis.sanitizer import SharedStateGuard

        guard = SharedStateGuard.capture(db, plan)
    cache = CenterCache() if use_cache else None
    ctx = ExecutionContext(
        db=db, pattern=plan.pattern, center_cache=cache, sanitize=sanitize,
    )
    operators, _project = build_pipeline(ctx, plan)
    op = operators[stage_index]
    io_before = db.stats.snapshot()
    if kind == "centers":
        assert isinstance(op, SeedJoinOp)
        rows = list(op.rows_for_centers(data))
    else:
        rows = list(op.rows(iter(data)))
    m = op.metrics
    counters = (m.rows_in, m.rows_out, m.centers_probed, m.nodes_fetched)
    io_delta = db.stats.delta_since(io_before)
    cache_counts = cache.snapshot() if cache is not None else None
    if guard is not None:
        guard.verify(
            db, plan,
            where=f"stage {stage_index} ({kind} morsel)",
            cache=cache,
        )
    return rows, counters, io_delta, cache_counts


def _locked_stage(
    lock: threading.Lock, payload: Payload, db: GraphDatabase
) -> StageResult:
    """Thread-backend task wrapper: morsels take the pool-level lock for
    their whole body so their shared-stats I/O deltas stay clean (the
    GIL keeps thread morsels from running truly in parallel anyway;
    scheduling machinery still overlaps with coordinator merge)."""
    with lock:
        return _run_stage(payload, db)


# ----------------------------------------------------------------------
# whole-query dispatch (the service's process-dispatch mode)
# ----------------------------------------------------------------------
# The per-process engine wrapped around _WORKER_DB, built lazily on the
# first query task.  One engine per worker process: its plan cache,
# CenterCache and code cache warm up across the queries routed here,
# mirroring the coordinator engine's amortization — per process instead
# of per service.
_WORKER_ENGINE = None

# payload = (pattern, optimizer, limit, row_limit, timeout_s)
QueryPayload = Tuple[str, str, Optional[int], Optional[int], Optional[float]]
# result = (columns, rows, truncated, stop_reason,
#           (cache hits, misses, evictions), (exec start, exec end))
QueryTaskResult = Tuple[
    Tuple[str, ...],
    List[Row],
    bool,
    Optional[str],
    Tuple[int, int, int],
    Tuple[float, float],
]


def _run_query_task(payload: QueryPayload) -> QueryTaskResult:
    """Execute one whole admitted query inside a pool worker.

    The service's process-dispatch mode routes entire queries here —
    plan, execute, project — so ``max_inflight`` slots occupy
    ``max_inflight`` *cores*, not one GIL.  Only the payload (a pattern
    string plus scalars) and the result rows cross the process boundary;
    the worker re-opened the snapshot by descriptor at pool start.

    The execution span is measured with ``time.monotonic`` — on Linux a
    system-wide clock, so spans from different worker processes are
    directly comparable (the overlapping-exec-windows test rides this).
    """
    global _WORKER_ENGINE
    db = _WORKER_DB
    if db is None:  # pragma: no cover - defensive: initializer not run
        raise RuntimeError("worker has no database handle")
    engine = _WORKER_ENGINE
    if engine is None or engine.db is not db:
        # imported lazily: engine imports this module at load time
        from ...query.engine import GraphEngine

        engine = GraphEngine.from_database(db)
        _WORKER_ENGINE = engine
    pattern, optimizer, limit, row_limit, timeout_s = payload
    started = time.monotonic()
    result = engine.match(
        pattern,
        optimizer=optimizer,
        limit=limit,
        row_limit=row_limit,
        timeout=timeout_s,
    )
    ended = time.monotonic()
    cache = result.metrics.center_cache
    return (
        result.columns,
        result.rows,
        result.metrics.truncated,
        result.metrics.stop_reason,
        (cache.hits, cache.misses, cache.evictions),
        (started, ended),
    )


# ----------------------------------------------------------------------
# the pool
# ----------------------------------------------------------------------
class WorkerPool:
    """A reusable morsel-execution pool bound to one database snapshot.

    ``process`` backend: a fork-context ``ProcessPoolExecutor``.  For a
    snapshot-backed database the initializer ships the snapshot
    *descriptor* (path + scalar config) and each worker re-opens the file
    itself — all workers map the same bytes, shared by the OS page
    cache.  Otherwise the initializer hands each worker the database
    object through fork memory inheritance, so workers share the index
    pages copy-on-write and nothing index-sized is ever serialized.
    Workers start lazily on first use, each one receiving the database
    state as of its start — which is why a pool is *bound* to an index
    generation: :meth:`compatible` refuses reuse after
    ``rebuild_join_index()`` bumped the generation, and the engine then
    builds a fresh pool.

    ``spawn`` backend: the same descriptor-shipping pool on the spawn
    start method — no fork inheritance exists there, so it *requires*
    a snapshot-backed database and refuses anything else.

    ``thread`` backend: a ``ThreadPoolExecutor`` plus the serializing
    lock described in the module docstring.

    A pool whose workers map a snapshot registers itself as a holder on
    it for its whole lifetime (``Snapshot.acquire``/``release``), so a
    premature ``Snapshot.close()`` fails cleanly, naming this pool.
    """

    def __init__(
        self,
        db: GraphDatabase,
        workers: int,
        backend: Optional[str] = None,
    ) -> None:
        backend = backend or default_backend()
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown parallel backend {backend!r}; choose from {BACKENDS}"
            )
        if backend == "process" and not fork_available():
            raise ValueError(
                "the process backend needs the fork start method; "
                "use parallel_backend='thread' on this platform"
            )
        descriptor = None
        get_descriptor = getattr(db, "snapshot_descriptor", None)
        if get_descriptor is not None:
            descriptor = get_descriptor()
        if backend == "spawn" and descriptor is None:
            raise ValueError(
                "the spawn backend ships a snapshot descriptor instead of "
                "pickling the database; it needs a snapshot-backed "
                "database (save to .snap and load it, or use the process/"
                "thread backend)"
            )
        self.workers = max(1, int(workers))
        self.backend = backend
        self.generation = getattr(db, "index_generation", 0)
        self.closed = False
        self._db = db
        # hold the mapping for the pool's lifetime: thread workers read
        # it directly, process/spawn workers map the same file — either
        # way a close() now would poison in-flight morsels
        self._snapshot = getattr(db, "snapshot_handle", None)
        self._owner_label = f"WorkerPool({backend}, workers={self.workers})"
        if self._snapshot is not None:
            self._snapshot.acquire(self._owner_label)
        started = time.perf_counter()
        try:
            if backend in ("process", "spawn"):
                self._lock: Optional[threading.Lock] = None
                ship_snapshot = descriptor is not None
                start_method = "fork" if backend == "process" else "spawn"
                self._executor: ProcessPoolExecutor | ThreadPoolExecutor = (
                    ProcessPoolExecutor(
                        max_workers=self.workers,
                        mp_context=multiprocessing.get_context(start_method),
                        initializer=(
                            _init_snapshot_worker
                            if ship_snapshot
                            else _init_worker
                        ),
                        initargs=(descriptor,) if ship_snapshot else (db,),
                    )
                )
                # start one worker eagerly so pool construction surfaces
                # fork/spawn problems and the first query doesn't pay the
                # whole worker start-up
                self._executor.submit(_probe_worker).result()
            else:
                self._lock = threading.Lock()
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="repro-morsel"
                )
        except BaseException:
            if self._snapshot is not None:
                self._snapshot.release(self._owner_label)
            raise
        self.init_seconds = time.perf_counter() - started

    def compatible(self, db: GraphDatabase) -> bool:
        """Can this pool serve queries against *db* right now?"""
        return (
            not self.closed
            and self._db is db
            and self.generation == getattr(db, "index_generation", 0)
        )

    def submit(self, payload: Payload) -> "Future[StageResult]":
        if self.closed:
            raise RuntimeError("worker pool is closed")
        if self.backend in ("process", "spawn"):
            return self._executor.submit(_run_stage, payload)
        assert self._lock is not None
        return self._executor.submit(_locked_stage, self._lock, payload, self._db)

    def submit_query(self, payload: QueryPayload) -> "Future[QueryTaskResult]":
        """Route one whole admitted query to a worker process.

        The service's process-dispatch mode: the worker runs the query
        end to end on its own engine (built once per process over the
        re-opened snapshot) and ships back only the result rows.  Thread
        pools are refused — whole-query dispatch exists precisely to
        escape the shared GIL, which a thread worker cannot do.
        """
        if self.closed:
            raise RuntimeError("worker pool is closed")
        if self.backend not in ("process", "spawn"):
            raise ValueError(
                "whole-query dispatch needs a process or spawn pool; the "
                "thread backend shares the coordinator's GIL"
            )
        return self._executor.submit(_run_query_task, payload)

    def shutdown(self) -> None:
        """Terminate the workers and release the snapshot; idempotent."""
        if not self.closed:
            self.closed = True
            self._executor.shutdown(wait=True, cancel_futures=True)
            if self._snapshot is not None:
                self._snapshot.release(self._owner_label)


def _probe_worker() -> bool:
    """No-op warm-up task (also checks the initializer ran)."""
    return _WORKER_DB is not None


# ----------------------------------------------------------------------
# per-run scheduling state
# ----------------------------------------------------------------------
@dataclass
class ParallelStats:
    """What the scheduler did during one run (``RunMetrics.parallel``)."""

    workers: int
    backend: str
    morsel_size: int
    #: morsels dispatched to the pool
    morsels: int = 0
    #: stages (or single-morsel stages) executed inline in the coordinator
    inline_stages: int = 0
    #: morsels cancelled before running (early close / row-limit abort)
    cancelled_morsels: int = 0
    #: pool construction time, 0.0 when an existing pool was reused
    pool_init_seconds: float = 0.0


class ParallelExecution:
    """One plan execution, scheduled as morsels over a :class:`WorkerPool`.

    :meth:`results` yields the final stage's merged rows lazily
    (upstream stages are drained eagerly — they feed the partitioner),
    the driver pipes them through its own :class:`ProjectOp`.  All
    coordinator-side bookkeeping (metric merging, worker I/O and
    cache-count accumulation, cancellation) lives here.
    """

    def __init__(
        self,
        db: GraphDatabase,
        plan: Plan,
        ctx: ExecutionContext,
        operators: Sequence[PhysicalOperator],
        project: ProjectOp,
        pool: WorkerPool,
        owns_pool: bool,
    ) -> None:
        self.db = db
        self.plan = plan
        self.ctx = ctx
        self.operators = list(operators)
        self.project = project
        self.pool = pool
        self.owns_pool = owns_pool
        self.morsel_size = max(1, ctx.morsel_size or DEFAULT_MORSEL_SIZE)
        #: set when the run is torn down before its output was exhausted
        self.cancel_event = threading.Event()
        self.stats = ParallelStats(
            workers=pool.workers,
            backend=pool.backend,
            morsel_size=self.morsel_size,
            pool_init_seconds=pool.init_seconds if owns_pool else 0.0,
        )
        #: summed per-worker I/O deltas (meaningful for the process
        #: backend, whose workers charge their own forked stats object)
        self.worker_io = IOStats()
        #: summed per-worker CenterCache (hits, misses, evictions)
        self.cache_counts = [0, 0, 0]
        self._pending: List[Future] = []
        self._exhausted = False
        self._finished = False

    # -- public driver surface -----------------------------------------
    def results(self) -> Iterator[Row]:
        """The final stage's merged output rows, lazily."""
        try:
            rows: Optional[List[Row]] = None
            last = len(self.operators) - 1
            for index, op in enumerate(self.operators):
                if index < last:
                    rows = list(self._stage(index, op, rows))
                else:
                    yield from self._stage(index, op, rows)
            self._exhausted = True
        finally:
            self.finish()

    def finish(self) -> None:
        """Tear the run down; idempotent, safe to call at any point.

        Cancels queued morsels (running ones cannot be interrupted; the
        thread backend waits them out so their counters cannot bleed into
        a later run's shared-stats delta) and shuts transient pools down.
        Engine-owned pools are left alive for the next query.
        """
        if self._finished:
            return
        self._finished = True
        if not self._exhausted:
            self.cancel_event.set()
        survivors: List[Future] = []
        for future in self._pending:
            if future.cancel():
                self.stats.cancelled_morsels += 1
            elif not future.done():
                survivors.append(future)
        self._pending = []
        if survivors and self.pool.backend == "thread" and not self.owns_pool:
            futures_wait(survivors)
        if self.owns_pool:
            self.pool.shutdown()

    def worker_io_delta(self) -> IOStats:
        """I/O performed in workers but *not* visible in the
        coordinator's before/after delta.

        Process workers always charge their own forked stats object.
        Thread workers charge the engine-global base stats — visible to
        a plain coordinator delta, but *not* when the coordinator runs
        under a per-thread :func:`~repro.storage.stats.use_stats`
        override (the service's concurrent tiers): the override only
        sees the coordinator thread's own charges, so the worker deltas
        must be folded in explicitly there too."""
        if self.pool.backend == "process":
            return self.worker_io
        if active_stats() is not None:
            return self.worker_io
        return IOStats()

    # -- internals -----------------------------------------------------
    def _payload(self, index: int, kind: str, data: Sequence) -> Payload:
        return (
            self.plan,
            index,
            self.ctx.center_cache is not None,
            kind,
            data,
            self.ctx.sanitize,
        )

    def _stage(
        self, index: int, op: PhysicalOperator, rows: Optional[List[Row]]
    ) -> Iterator[Row]:
        """Run one stage: partition, dispatch, merge in morsel order."""
        if isinstance(op, (SeedScanOp, MultiwaySeedOp)):
            # a straight extent scan (or the multiway seed's projection
            # intersection, whose cost is a handful of W-sweeps, not
            # per-row work): partitioning would only move the page reads
            # around, run it inline — the *output* domain is what the
            # downstream multiway stages get partitioned over
            self.stats.inline_stages += 1
            yield from op.rows(None)
            return
        if isinstance(op, SeedJoinOp):
            kind = "centers"
            worklist: Sequence = op.center_worklist()
            size = center_morsel_size(self.morsel_size)
        else:
            kind = "rows"
            worklist = rows if rows is not None else []
            size = self.morsel_size
        morsels = [worklist[i : i + size] for i in range(0, len(worklist), size)]
        if len(morsels) <= 1:
            # pool overhead cannot pay off on a single morsel; inline
            # execution here is literally the sequential oracle's path
            self.stats.inline_stages += 1
            source = None if kind == "centers" else iter(worklist)
            yield from op.rows(source)
            return
        futures = [
            self.pool.submit(self._payload(index, kind, morsel))
            for morsel in morsels
        ]
        self._pending = list(futures)
        self.stats.morsels += len(futures)
        metrics = op.metrics
        # replay HPSJ's cross-morsel dedup in worklist order: local seen
        # sets catch repeats within a morsel, this one catches repeats
        # across them — together identical to the sequential seen set
        seen: Optional[set] = set() if kind == "centers" else None
        limit = self.ctx.row_limit
        for position, future in enumerate(futures):
            out_rows, counters, io_delta, cache_counts = future.result()
            self._pending = futures[position + 1 :]
            metrics.rows_in += counters[0]
            metrics.centers_probed += counters[2]
            metrics.nodes_fetched += counters[3]
            self.worker_io.add(io_delta)
            if cache_counts is not None:
                for slot in range(3):
                    self.cache_counts[slot] += cache_counts[slot]
            for row in out_rows:
                if seen is not None:
                    if row in seen:
                        continue
                    seen.add(row)
                metrics.rows_out += 1
                if limit is not None and metrics.rows_out > limit:
                    raise RowLimitExceeded(
                        f"operator {op.name} exceeded {limit} rows"
                    )
                yield row
        self._pending = []
