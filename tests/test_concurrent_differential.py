"""Concurrent differential suite: many clients, one engine, oracle rows.

The correctness contract of the service (DESIGN.md Section 2.9): with
no engine-wide lock, any number of slot threads may execute queries
against ONE shared engine and every run must stay byte-identical to the
single-threaded oracle — same rows, same columns, same per-operator
counters.  Nothing about concurrency may leak into results.

Legs:

* direct-engine thread hammer on both tiers — the snapshot-backed
  (lock-free) tier and the live B+-tree (fine-grained lock) tier;
* the same hammer with ``REPRO_SANITIZE=1``, arming the runtime
  CenterCache byte-ledger audit at every context construction;
* the same again over a CenterCache too small for the workload, so the
  threads race to evict;
* a service leg over the wire (rows vs. the library oracle);
* the acceptance test: with ``max_inflight=4`` on a snapshot engine the
  ``exec_span`` windows reported by concurrent responses overlap —
  admitted queries really execute simultaneously, not serially.

Concurrent runs go through ``engine.match`` — the service's execution
model: nothing cold-starts the shared counters, so every run's I/O delta
stays non-negative; the pinned invariant that the center cache is
counter-neutral makes warm-vs-cold irrelevant to the compared metrics.
"""

import sys
import threading

import pytest

from repro import GraphEngine
from repro.db.persist import save_database
from repro.graph import xmark
from repro.service import (
    ServiceClient,
    ServiceConfig,
    rows_as_tuples,
    start_in_thread,
)
from repro.workloads.patterns import PatternFactory

THREADS = 4
ROUNDS = 2
#: a CenterCache budget below the workload's ~2 KB working set
SMALL_CACHE_BYTES = 1 << 10


@pytest.fixture(scope="module")
def live_engine():
    data = xmark.generate(factor=0.1, entity_budget=400, seed=7)
    return GraphEngine(data.graph)


@pytest.fixture(scope="module")
def snapshot_engine(live_engine, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("concsnap") / "db.snap")
    save_database(live_engine.db, path)
    return GraphEngine.from_snapshot(path)


@pytest.fixture(scope="module")
def workload(live_engine):
    """Mixed acyclic paths + cyclic cores, each with its optimizer."""
    factory = PatternFactory(live_engine.db.catalog, seed=11)
    items = []
    for name, pattern in list(factory.figure4_paths().items())[:3]:
        items.append((name, pattern, "dps"))
    for name, pattern in factory.cyclic_patterns(("triangle",)).items():
        items.append((name, pattern, "wcoj"))
    return items


def op_counters(metrics):
    return [
        (op.operator, op.rows_in, op.rows_out, op.centers_probed, op.nodes_fetched)
        for op in metrics.operators
    ]


def build_oracle(engine, workload):
    """Single-threaded ground truth: rows, columns and per-op counters."""
    oracle = {}
    for name, pattern, optimizer in workload:
        result = engine.match(pattern, optimizer=optimizer)
        oracle[name] = {
            "columns": list(result.columns),
            "rows": list(result.rows),
            "counters": op_counters(result.metrics),
        }
    return oracle


def hammer(engine, workload, oracle, threads=THREADS, rounds=ROUNDS):
    """N threads run the whole workload against one shared engine."""
    barrier = threading.Barrier(threads)
    failures = []

    def body(tid):
        try:
            barrier.wait(timeout=30)
            for _ in range(rounds):
                for name, pattern, optimizer in workload:
                    result = engine.match(pattern, optimizer=optimizer)
                    expect = oracle[name]
                    assert list(result.columns) == expect["columns"], name
                    assert list(result.rows) == expect["rows"], name
                    assert op_counters(result.metrics) == expect["counters"], name
                    # nothing resets the shared counters under a running
                    # query, so no I/O delta can come out negative
                    io = result.metrics.io
                    assert min(
                        io.physical_reads, io.physical_writes, io.logical_reads
                    ) >= 0, name
        except Exception as exc:  # noqa: BLE001 - surfaced to the test
            failures.append((tid, repr(exc)))

    workers = [
        threading.Thread(target=body, args=(tid,), daemon=True)
        for tid in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=120)
        assert not worker.is_alive(), "hammer thread hung"
    assert failures == []


# ----------------------------------------------------------------------
# direct engine, both tiers
# ----------------------------------------------------------------------
class TestEngineHammer:
    def test_snapshot_tier_threads_match_oracle(self, snapshot_engine, workload):
        oracle = build_oracle(snapshot_engine, workload)
        hammer(snapshot_engine, workload, oracle)

    def test_live_tier_threads_match_oracle(self, live_engine, workload):
        oracle = build_oracle(live_engine, workload)
        hammer(live_engine, workload, oracle)

    def test_snapshot_tier_under_sanitizer(
        self, snapshot_engine, workload, monkeypatch
    ):
        """REPRO_SANITIZE=1 arms the byte-ledger audit mid-hammer."""
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        oracle = build_oracle(snapshot_engine, workload)
        hammer(snapshot_engine, workload, oracle, threads=2, rounds=1)

    def test_live_tier_under_sanitizer(self, live_engine, workload, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        oracle = build_oracle(live_engine, workload)
        hammer(live_engine, workload, oracle, threads=2, rounds=1)

    @pytest.mark.parametrize("tier", ("live", "snapshot"))
    def test_threads_evicting_under_sanitizer(
        self, live_engine, snapshot_engine, workload, monkeypatch, tier
    ):
        """A cache a fraction of the working set: every thread evicts,
        rows and counters still equal the default-cache oracle, and the
        ledger audit at every context construction stays silent.  Every
        pattern runs the multiway plan, the one that fills the cache."""
        shared = live_engine if tier == "live" else snapshot_engine
        workload = [(name, pattern, "wcoj") for name, pattern, _ in workload]
        oracle = build_oracle(shared, workload)
        engine = GraphEngine.from_database(
            shared.db, cache_bytes=SMALL_CACHE_BYTES
        )
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-update far more often
        try:
            hammer(engine, workload, oracle)
        finally:
            sys.setswitchinterval(interval)
        assert engine.center_cache.evictions > 0
        assert engine.center_cache.check_ledger() == []


# ----------------------------------------------------------------------
# service legs
# ----------------------------------------------------------------------
def service_hammer(handle, workload, oracle, threads=THREADS):
    """N clients replay the workload over the wire; rows must match."""
    host, port = handle.address
    barrier = threading.Barrier(threads)
    failures = []

    def body(tid):
        try:
            with ServiceClient(host, port, timeout=120) as client:
                barrier.wait(timeout=30)
                for name, pattern, optimizer in workload:
                    response = client.query(
                        str(pattern), optimizer=optimizer, timeout_ms=60_000
                    )
                    expect = oracle[name]
                    assert response["columns"] == expect["columns"], name
                    assert rows_as_tuples(response) == [
                        tuple(row) for row in expect["rows"]
                    ], name
                    assert 0.0 <= response["metrics"]["cache_hit_rate"] <= 1.0
        except Exception as exc:  # noqa: BLE001 - surfaced to the test
            failures.append((tid, repr(exc)))

    workers = [
        threading.Thread(target=body, args=(tid,), daemon=True)
        for tid in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=180)
        assert not worker.is_alive(), "service client thread hung"
    assert failures == []


class TestServiceDifferential:
    def test_inline_live_tier_over_the_wire(self, live_engine, workload):
        oracle = build_oracle(live_engine, workload)
        handle = start_in_thread(
            live_engine, ServiceConfig(max_inflight=4, queue_depth=16)
        )
        try:
            service_hammer(handle, workload, oracle)
        finally:
            handle.stop()


# ----------------------------------------------------------------------
# acceptance: overlapping execution windows at max_inflight=4
# ----------------------------------------------------------------------
def overlapping_pairs(spans):
    pairs = 0
    for i in range(len(spans)):
        for j in range(i + 1, len(spans)):
            a0, a1 = spans[i]
            b0, b1 = spans[j]
            if max(a0, b0) < min(a1, b1):
                pairs += 1
    return pairs


def test_exec_windows_overlap_with_four_slots(snapshot_engine, workload):
    """max_inflight=4 on a snapshot engine => queries really overlap.

    Each response carries ``metrics.exec_span`` — a monotonic-clock
    ``[start, end]`` recorded around the query's execution.  The overlap
    is constructed, not raced: every admitted query parks *inside* its
    execution window (a barrier on the engine call the span brackets)
    until all four are in flight, so the four windows share an instant
    and all six pairs intersect.  A serializing engine lock would keep
    the barrier from ever filling and fail the queries instead.
    """
    name, pattern, optimizer = workload[0]
    expected = build_oracle(snapshot_engine, workload)[name]["rows"]
    handle = start_in_thread(
        snapshot_engine, ServiceConfig(max_inflight=4, queue_depth=16)
    )
    host, port = handle.address
    barrier = threading.Barrier(4)
    match_iter = snapshot_engine.match_iter

    def parked_match_iter(*args, **kwargs):
        barrier.wait(timeout=60)
        return match_iter(*args, **kwargs)

    spans, failures = [], []

    def client_body():
        try:
            with ServiceClient(host, port, timeout=120) as client:
                response = client.query(
                    str(pattern), optimizer=optimizer, timeout_ms=60_000
                )
            assert rows_as_tuples(response) == [tuple(r) for r in expected]
            spans.append(tuple(response["metrics"]["exec_span"]))
        except Exception as exc:  # noqa: BLE001 - surfaced to the test
            failures.append(repr(exc))

    snapshot_engine.match_iter = parked_match_iter
    try:
        clients = [
            threading.Thread(target=client_body, daemon=True) for _ in range(4)
        ]
        for client in clients:
            client.start()
        for client in clients:
            client.join(timeout=180)
            assert not client.is_alive(), "service client thread hung"
    finally:
        del snapshot_engine.match_iter  # back to the class's method
        handle.stop()
    assert failures == []
    assert overlapping_pairs(spans) == 6
