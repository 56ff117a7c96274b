"""The service's whole-query process pool (``dispatch="process"``).

The one parallel path in the system: each admitted query is shipped
whole — a pattern string plus scalars — to a forked worker that owns a
private :class:`~repro.query.engine.GraphEngine` over the same snapshot
file, re-opened by descriptor in the pool initializer.  Every worker
maps the identical bytes, so the OS page cache backs the whole pool with
one copy and nothing database-sized ever crosses the process boundary;
only result rows come back.  ``max_inflight`` slots then occupy that
many *cores* instead of sharing one GIL.

The pool registers itself as a holder on the snapshot
(:meth:`~repro.storage.snapshot.Snapshot.acquire`) for its whole
lifetime, so closing the snapshot while the pool lives raises a clean
``SnapshotError`` naming the pool instead of poisoning worker queries
mid-flight.

Workers never outlive the server: the initializer arms
``PR_SET_PDEATHSIG`` (Linux), so the kernel kills a worker the moment
the thread that forked it — the one that built the pool — is gone, even
when the server died of a ``SIGKILL`` and ran no cleanup.  Build the
pool on a thread that outlives it (:class:`QueryService` does).
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import sys
import time
from concurrent.futures import Future, ProcessPoolExecutor
from typing import List, Optional, Tuple

from ..db.database import GraphDatabase
from ..query.engine import GraphEngine
from ..storage.snapshot import Snapshot

Row = Tuple[int, ...]

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

#: ``prctl`` option: deliver a signal to this process when its parent dies
PR_SET_PDEATHSIG = 1


def fork_available() -> bool:
    """True when the platform offers the fork start method (Linux/macOS)."""
    return "fork" in multiprocessing.get_all_start_methods()


# ----------------------------------------------------------------------
# worker-side entry points
# ----------------------------------------------------------------------
# This worker's private engine, installed by the pool initializer.  Its
# plan cache, CenterCache and code cache warm up across the queries
# routed here — the coordinator engine's amortization, per process.
_WORKER_ENGINE: Optional[GraphEngine] = None


def _die_with_parent(parent_pid: int) -> None:
    """Make this worker's life end with the server's.

    An idle worker blocks on the pool's call queue forever — it holds
    the pipe's write end itself, so a dead parent never reads as EOF.
    ``SIGKILL`` rather than ``SIGTERM``: the worker holds nothing but a
    read-only mapping, and a forked child may have inherited a handler
    that swallows ``SIGTERM``.
    """
    if sys.platform == "linux":
        ctypes.CDLL(None).prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    if os.getppid() != parent_pid:
        # the parent died before prctl took effect (or there is no prctl)
        os._exit(1)


def _init_worker(descriptor: Tuple, parent_pid: int) -> None:
    """Open the pool's snapshot file inside this worker process.

    *descriptor* is ``GraphDatabase.snapshot_descriptor()``: just a path
    plus scalar configuration.
    """
    global _WORKER_ENGINE
    _die_with_parent(parent_pid)
    path, buffer_bytes, page_size, code_cache_enabled = descriptor
    db = GraphDatabase.from_snapshot(
        Snapshot.open(path),
        buffer_bytes=buffer_bytes,
        page_size=page_size,
        code_cache_enabled=code_cache_enabled,
    )
    _WORKER_ENGINE = GraphEngine.from_database(db)


def _probe_worker() -> bool:
    """No-op warm-up task (also checks the initializer ran)."""
    return _WORKER_ENGINE is not None


def _run_query_task(payload: QueryPayload) -> QueryTaskResult:
    """Execute one whole admitted query — plan, execute, project.

    The execution span is measured with ``time.monotonic`` — on Linux a
    system-wide clock, so spans from different worker processes are
    directly comparable (the overlapping-exec-windows test rides this).
    """
    engine = _WORKER_ENGINE
    if engine is None:  # pragma: no cover - defensive: initializer not run
        raise RuntimeError("worker has no engine")
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
    """A fork ``ProcessPoolExecutor`` bound to one snapshot-backed database.

    Refuses any other database with ``ValueError``: a worker re-opens
    the snapshot file itself, there is no second way to hand it one.
    """

    def __init__(self, db: GraphDatabase, workers: int) -> None:
        descriptor = db.snapshot_descriptor()
        if descriptor is None:
            raise ValueError(
                "dispatch='process' needs a snapshot-backed engine: "
                "workers re-open the snapshot by descriptor"
            )
        if not fork_available():
            raise ValueError(
                "dispatch='process' needs the fork start method; "
                "use dispatch='inline' on this platform"
            )
        self.workers = max(1, int(workers))
        self.closed = False
        self._snapshot = db.snapshot_handle
        self._owner_label = f"WorkerPool(process, workers={self.workers})"
        self._snapshot.acquire(self._owner_label)
        try:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_init_worker,
                initargs=(descriptor, os.getpid()),
            )
            # fork every worker now, on the constructing thread (the one
            # PR_SET_PDEATHSIG ties them to), so construction surfaces
            # fork problems and the first query pays no start-up
            self._executor.submit(_probe_worker).result()
        except BaseException:
            self._snapshot.release(self._owner_label)
            raise

    def submit_query(self, payload: QueryPayload) -> "Future[QueryTaskResult]":
        """Route one whole admitted query to a worker process."""
        return self._executor.submit(_run_query_task, payload)

    def shutdown(self) -> None:
        """Terminate the workers and release the snapshot; idempotent."""
        if not self.closed:
            self.closed = True
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._snapshot.release(self._owner_label)
