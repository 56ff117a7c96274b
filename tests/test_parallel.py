"""Morsel-driven parallel execution vs the sequential oracle.

The acceptance contract of the parallel scheduler
(:mod:`repro.query.physical.parallel`): for every workload pattern under
``dp`` and ``dps``, with 2+ workers on *both* backends and a morsel size
small enough to force real fan-out, both drivers must produce rows
*byte-identical* (same order, not just same set) to the sequential
paths, with identical per-operator counters.  Plus the lifecycle
contracts: early close cancels outstanding morsels without leaking pool
workers, engine-owned pools are reused across queries and invalidated on
index rebuild, and the row-limit guard fires at the same threshold as
the sequential drivers.
"""

import multiprocessing
import threading

import pytest

from repro import GraphEngine
from repro.graph import xmark
from repro.query import (
    RowLimitExceeded,
    WorkerPool,
    execute_plan,
    execute_plan_streaming,
    fork_available,
)
from repro.workloads.patterns import PatternFactory

#: the process backend needs fork; skip it cleanly elsewhere
BACKENDS = ("thread", "process") if fork_available() else ("thread",)

#: small enough that every workload pattern splits into several morsels
MORSEL = 16


@pytest.fixture(scope="module")
def engine():
    data = xmark.generate(factor=0.1, entity_budget=600, seed=7)
    eng = GraphEngine(data.graph)
    yield eng
    eng.close_pool()


@pytest.fixture(scope="module")
def workload(engine):
    factory = PatternFactory(engine.db.catalog, seed=11)
    patterns = {}
    patterns.update(factory.figure4_paths())
    patterns.update(factory.figure4_trees())
    patterns.update(factory.figure4_queries(4))
    return patterns


@pytest.fixture(scope="module")
def big_pattern(engine, workload):
    """The workload pattern with the largest result (drives morsel fan-out)."""
    sizes = {name: len(engine.match(p).rows) for name, p in workload.items()}
    return workload[max(sizes, key=sizes.get)]


def op_counters(metrics):
    return [
        (op.operator, op.rows_in, op.rows_out, op.centers_probed, op.nodes_fetched)
        for op in metrics.operators
    ]


# ----------------------------------------------------------------------
# differential: parallel == sequential, exactly
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("optimizer", ("dp", "dps"))
def test_parallel_matches_sequential_oracle(engine, workload, backend, optimizer):
    pool = engine.worker_pool(2, backend)
    for name, pattern in workload.items():
        plan = engine.plan(pattern, optimizer=optimizer).plan
        oracle = execute_plan(engine.db, plan)
        stream = execute_plan_streaming(
            engine.db, plan, worker_pool=pool, morsel_size=MORSEL
        )
        streamed = list(stream)
        assert stream.metrics.parallel is not None
        assert stream.metrics.parallel.backend == backend
        assert streamed == oracle.rows, (
            f"{name} [{optimizer}/{backend}]: parallel stream rows differ"
        )
        assert op_counters(stream.metrics) == op_counters(oracle.metrics), (
            f"{name} [{optimizer}/{backend}]: streaming counters differ"
        )


@pytest.mark.parametrize("backend", BACKENDS)
def test_parallel_composes_with_batch_substrate(engine, big_pattern, backend):
    """Morsel workers run the same kernel body (with a worker-local
    CenterCache) and still match the sequential run."""
    oracle = engine.match(big_pattern)
    parallel = engine.match(
        big_pattern, workers=2, parallel_backend=backend, morsel_size=MORSEL
    )
    assert parallel.rows == oracle.rows
    assert parallel.metrics.parallel.morsels > 0


def test_engine_match_uses_morsels_and_merges_metrics(engine, big_pattern):
    oracle = engine.match(big_pattern)
    result = engine.match(big_pattern, workers=2, morsel_size=4)
    stats = result.metrics.parallel
    assert result.rows == oracle.rows
    assert stats.workers == 2
    assert stats.morsels > 1  # the fan-out actually happened
    assert result.metrics.io is not None
    # worker I/O is folded back into the run metrics: the merged counters
    # must include the R-join index probes the workers performed
    assert result.metrics.io.index_lookups.get("rjoin-index", 0) > 0


# ----------------------------------------------------------------------
# row-limit parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_row_limit_guard_fires_identically(engine, big_pattern, backend):
    plan = engine.plan(big_pattern).plan
    with pytest.raises(RowLimitExceeded):
        list(execute_plan_streaming(engine.db, plan, row_limit=5))
    pool = engine.worker_pool(2, backend)
    with pytest.raises(RowLimitExceeded):
        list(execute_plan_streaming(
            engine.db, plan, row_limit=5, worker_pool=pool, morsel_size=4
        ))
    # the pool survives an aborted run
    assert pool.compatible(engine.db)
    oracle = list(execute_plan_streaming(engine.db, plan))
    again = execute_plan_streaming(
        engine.db, plan, worker_pool=pool, morsel_size=4
    )
    assert list(again) == oracle


# ----------------------------------------------------------------------
# early close: cancellation without leaks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_streaming_early_close_cancels_morsels(engine, big_pattern, backend):
    stream = engine.match_iter(
        big_pattern, workers=2, parallel_backend=backend, morsel_size=1
    )
    first = next(stream)
    assert first is not None
    execution = stream.parallel
    assert execution is not None
    assert not execution.cancel_event.is_set()
    stream.close()
    assert execution.cancel_event.is_set()
    # engine-owned pool stays warm for the next query...
    assert not execution.pool.closed
    oracle = engine.match(big_pattern)
    again = engine.match(big_pattern, workers=2, parallel_backend=backend)
    assert again.rows == oracle.rows


@pytest.mark.parametrize("backend", BACKENDS)
def test_streaming_limit_stop_cancels_morsels(engine, big_pattern, backend):
    oracle = engine.match(big_pattern)
    stream = engine.match_iter(
        big_pattern, workers=2, parallel_backend=backend, morsel_size=1, limit=2
    )
    rows = list(stream)
    assert rows == oracle.rows[:2]
    # stopping at the limit before the morsels drained counts as early
    # close: the cancellation event must be set
    assert stream.parallel.cancel_event.is_set()


def test_transient_pool_shuts_down_on_close(engine, big_pattern):
    """Driver-level parallel runs (no engine pool) own a transient pool
    that must be torn down when the stream is abandoned."""
    plan = engine.plan(big_pattern).plan
    stream = execute_plan_streaming(
        engine.db, plan, workers=2, parallel_backend="thread", morsel_size=1
    )
    next(stream)
    assert not stream.parallel.pool.closed
    stream.close()
    assert stream.parallel.pool.closed
    assert stream.parallel.cancel_event.is_set()


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
def test_close_pool_leaves_no_worker_processes(engine, big_pattern):
    oracle = engine.match(big_pattern)
    result = engine.match(big_pattern, workers=2, parallel_backend="process")
    assert result.rows == oracle.rows
    engine.close_pool()
    assert multiprocessing.active_children() == []


# ----------------------------------------------------------------------
# pool lifecycle
# ----------------------------------------------------------------------
def test_engine_pool_is_reused_across_queries(engine, workload):
    pool = engine.worker_pool(2, "thread")
    assert engine.worker_pool(2, "thread") is pool
    # different parameters -> a fresh pool, the old one shut down
    other = engine.worker_pool(3, "thread")
    assert other is not pool
    assert pool.closed
    engine.close_pool()


def test_pool_invalidated_by_index_rebuild(engine):
    pool = engine.worker_pool(2, "thread")
    engine.db.rebuild_join_index()
    assert not pool.compatible(engine.db)
    fresh = engine.worker_pool(2, "thread")
    assert fresh is not pool
    assert pool.closed
    engine.close_pool()


def test_stale_pool_is_rejected_by_drivers(engine, big_pattern):
    plan = engine.plan(big_pattern).plan
    pool = WorkerPool(engine.db, 2, "thread")
    pool.shutdown()
    with pytest.raises(ValueError):
        execute_plan_streaming(engine.db, plan, worker_pool=pool)


def test_unknown_backend_rejected(engine):
    with pytest.raises(ValueError):
        WorkerPool(engine.db, 2, "greenlets")


def test_workers_one_stays_sequential(engine, big_pattern):
    result = engine.match(big_pattern, workers=1)
    assert result.metrics.parallel is None
    assert getattr(engine, "_worker_pool", None) is None


# ----------------------------------------------------------------------
# concurrent pool access: one engine, interleaved queries (the service's
# steady state) must never double-create or leak a pool
# ----------------------------------------------------------------------
def _counting_pool(monkeypatch):
    """Patch the engine module's WorkerPool with a construction counter."""
    import repro.query.engine as engine_mod

    created = []
    real = engine_mod.WorkerPool

    class CountingPool(real):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            created.append(self)

    monkeypatch.setattr(engine_mod, "WorkerPool", CountingPool)
    return created


def test_concurrent_pool_create_is_race_free(engine, monkeypatch):
    engine.close_pool()
    created = _counting_pool(monkeypatch)
    barrier = threading.Barrier(4)
    grabbed = []

    def grab():
        barrier.wait()
        for _ in range(5):
            grabbed.append(engine.worker_pool(2, "thread"))

    threads = [threading.Thread(target=grab) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(created) == 1, "interleaved worker_pool() double-created pools"
    assert all(pool is created[0] for pool in grabbed)
    assert not created[0].closed
    engine.close_pool()


def test_concurrent_pool_invalidation_no_leak(engine, monkeypatch):
    """A generation bump observed by two racing queries replaces the
    stale pool exactly once; nobody keeps (or leaks) the dead pool."""
    engine.close_pool()
    created = _counting_pool(monkeypatch)
    stale = engine.worker_pool(2, "thread")
    engine.db.rebuild_join_index()  # stale pool's generation is now old
    barrier = threading.Barrier(4)
    grabbed = []

    def grab():
        barrier.wait()
        for _ in range(5):
            grabbed.append(engine.worker_pool(2, "thread"))

    threads = [threading.Thread(target=grab) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(created) == 2, "invalidation rebuilt more than one pool"
    fresh = created[-1]
    assert stale.closed and fresh is not stale
    assert all(pool is fresh for pool in grabbed)
    assert not fresh.closed
    engine.close_pool()


# ----------------------------------------------------------------------
# truncation flags: limit / deadline / close must mark partial results
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
def test_limit_stop_flags_truncated(engine, big_pattern, backend):
    stream = engine.match_iter(
        big_pattern, workers=2, parallel_backend=backend, morsel_size=1, limit=2
    )
    rows = list(stream)
    assert len(rows) == 2
    assert stream.metrics.truncated
    assert stream.metrics.stop_reason == "limit"
    assert stream.metrics.result_rows == 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_early_close_flags_truncated(engine, big_pattern, backend):
    stream = engine.match_iter(
        big_pattern, workers=2, parallel_backend=backend, morsel_size=1
    )
    next(stream)
    execution = stream.parallel
    stream.close()
    assert stream.metrics.truncated
    assert stream.metrics.stop_reason == "closed"
    assert execution.cancel_event.is_set()
    # with single-row morsels the run fans out far beyond what the
    # workers can burn through before the close lands, so unstarted
    # morsels must be dropped.  Only the process backend pays enough
    # per-morsel IPC for this to be deterministic; in-process threads
    # can drain the whole fan-out before close() is reached.
    if backend == "process" and execution.stats.morsels > 8:
        assert execution.stats.cancelled_morsels > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_expired_deadline_flags_timeout(engine, big_pattern, backend):
    oracle = engine.match(big_pattern)
    stream = engine.match_iter(
        big_pattern, workers=2, parallel_backend=backend, morsel_size=1,
        timeout=0.0,
    )
    rows = list(stream)
    assert rows == []  # the deadline had already expired at the first pull
    assert stream.metrics.truncated
    assert stream.metrics.stop_reason == "timeout"
    assert stream.parallel.cancel_event.is_set()
    # the engine-owned pool survives a timed-out query untouched
    again = engine.match(big_pattern, workers=2, parallel_backend=backend)
    assert again.rows == oracle.rows


@pytest.mark.parametrize("backend", BACKENDS)
def test_drained_stream_is_not_truncated(engine, big_pattern, backend):
    oracle = engine.match(big_pattern)
    stream = engine.match_iter(
        big_pattern, workers=2, parallel_backend=backend, timeout=600.0
    )
    rows = list(stream)
    assert rows == oracle.rows
    assert not stream.metrics.truncated
    assert stream.metrics.stop_reason is None
    # close() after natural exhaustion must not relabel the run
    stream.close()
    assert not stream.metrics.truncated


@pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
def test_early_close_leaves_no_worker_processes(engine, big_pattern):
    """Abandoning a parallel stream mid-flight leaks no pool workers."""
    stream = engine.match_iter(
        big_pattern, workers=2, parallel_backend="process", morsel_size=1
    )
    next(stream)
    stream.close()
    assert stream.metrics.truncated
    engine.close_pool()
    assert multiprocessing.active_children() == []
