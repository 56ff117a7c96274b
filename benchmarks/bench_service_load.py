"""Sustained-load benchmark for the always-on query service.

Two claims, both gated:

1. **Amortization** — serving N queries concurrently through one shared
   engine (warm plan cache, CenterCache, buffer pool, decoded snapshot
   columns) beats N sequential *cold* engine invocations (fresh
   ``load_database`` + ``GraphEngine`` per query, the invoke-per-query
   pattern the CLI embodies) by at least ``REQUIRED_SPEEDUP``x on
   aggregate wall time.  Rows are byte-identical per query or the
   speedup does not count.
2. **Bounded tail under overload** — an *open-loop* arrival schedule at
   ~4x the measured service capacity, against a 1-slot service with a
   short admission queue, must engage load shedding (sheds > 0) while
   the p99 of *served* queries stays bounded by what the queue geometry
   allows (queue depth x worst-case service time, with slack).  Without
   admission control the backlog — and with it p99 — would grow without
   limit for the whole run (queue collapse).

Open vs closed loop matters here: a closed-loop driver (next request
only after the previous response) self-throttles and can never
demonstrate overload behaviour; the open-loop schedule keeps offering
work at the target rate exactly like independent clients would.

Results land in ``benchmarks/results/BENCH_service_load.json`` with
``p50_ms``/``p95_ms``/``p99_ms``/``shed_rate`` — gated by
``summarize.py --diff`` alongside the wall-time metrics.

Run with: pytest benchmarks/bench_service_load.py -s
"""

import asyncio
import time

import pytest

from repro.db.persist import load_database, save_database
from repro.graph import xmark
from repro.query.engine import GraphEngine
from repro.service import (
    AsyncServiceClient,
    ServiceConfig,
    ServiceError,
    rows_as_tuples,
    start_in_thread,
)
from repro.service.scheduler import percentile
from repro.workloads.patterns import PatternFactory
from repro.workloads.runner import row_limit_validator

from conftest import BENCH_BUDGET, BENCH_SEED, WORKLOAD_ROW_LIMIT

#: aggregate cold wall / aggregate service wall must reach this
REQUIRED_SPEEDUP = 2.0

#: how many times the mixed workload is replayed in the steady-state run
STEADY_ROUNDS = 4

#: open-loop overload run: arrivals, offered rate vs measured capacity
OVERLOAD_ARRIVALS = 40
OVERLOAD_FACTOR = 4.0

#: p99 bound under overload: (queue_depth + 2) slots of worst-case
#: service time, with this slack factor on top (timer noise, 1-core CI)
P99_SLACK = 4.0


@pytest.fixture(scope="module")
def snapshot_path(tmp_path_factory):
    """The Figure-7 "S" database saved once as a binary snapshot."""
    data = xmark.dataset("S", entity_budget=BENCH_BUDGET, seed=BENCH_SEED)
    path = str(tmp_path_factory.mktemp("service") / "figS.snap")
    save_database(GraphEngine(data.graph).db, path, format="snapshot")
    return path


@pytest.fixture(scope="module")
def shared_engine(snapshot_path):
    return GraphEngine.from_database(load_database(snapshot_path))


@pytest.fixture(scope="module")
def workload(shared_engine):
    """Mixed Figure-4 paths + cyclic patterns, as wire-format strings."""
    factory = PatternFactory(
        shared_engine.db.catalog,
        seed=11,
        validator=row_limit_validator(shared_engine, WORKLOAD_ROW_LIMIT),
    )
    patterns = {}
    for name, pattern in list(factory.figure4_paths().items())[:6]:
        patterns[name] = str(pattern)
    for name, pattern in factory.cyclic_patterns(("triangle", "diamond")).items():
        patterns[f"C-{name}"] = str(pattern)
    return patterns


def _cold_invocations(snapshot_path, queries):
    """One fresh engine per query: the invoke-per-query baseline."""
    wall_ms = []
    rows = {}
    for name, pattern in queries:
        started = time.perf_counter()
        engine = GraphEngine.from_database(load_database(snapshot_path))
        result = engine.match(pattern, optimizer="auto")
        wall_ms.append((time.perf_counter() - started) * 1000.0)
        rows.setdefault(name, list(result.rows))
    return wall_ms, rows


async def _serve_concurrently(address, queries):
    """All queries in flight at once through one pipelined connection."""
    host, port = address
    client = await AsyncServiceClient.connect(host, port)
    try:
        started = time.perf_counter()

        async def one(name, pattern):
            sent = time.perf_counter()
            response = await client.query(pattern, optimizer="auto")
            return name, (time.perf_counter() - sent) * 1000.0, response

        results = await asyncio.gather(
            *(one(name, pattern) for name, pattern in queries)
        )
        total_ms = (time.perf_counter() - started) * 1000.0
        return total_ms, results
    finally:
        await client.close()


def test_shared_engine_beats_cold_invocations(
    snapshot_path, shared_engine, workload, bench_record
):
    queries = [
        (name, pattern)
        for _ in range(STEADY_ROUNDS)
        for name, pattern in workload.items()
    ]
    cold_wall_ms, cold_rows = _cold_invocations(snapshot_path, queries)
    cold_total_ms = sum(cold_wall_ms)

    handle = start_in_thread(
        shared_engine,
        ServiceConfig(max_inflight=2, queue_depth=len(queries)),
    )
    try:
        service_total_ms, results = asyncio.run(
            _serve_concurrently(handle.address, queries)
        )
        snap = handle.service.stats.snapshot()
    finally:
        handle.stop()

    # byte-identical rows per query, or the speedup does not count
    assert len(results) == len(queries)
    for name, _, response in results:
        assert response["truncated"] is False
        assert rows_as_tuples(response) == cold_rows[name], (
            f"service rows diverge from direct execution for {name}"
        )

    latencies = [latency for _, latency, _ in results]
    speedup = cold_total_ms / service_total_ms
    total_rows = sum(len(rows) for rows in cold_rows.values())

    bench_record.add(
        query="mixed",
        optimizer="service",
        variant="cold-baseline",
        wall_ms=cold_total_ms,
        rows=total_rows,
        queries=len(queries),
        per_query_p99_ms=round(percentile(cold_wall_ms, 99), 3),
    )
    bench_record.add(
        query="mixed",
        optimizer="service",
        variant="steady",
        wall_ms=service_total_ms,
        rows=total_rows,
        queries=len(queries),
        p50_ms=round(percentile(latencies, 50), 3),
        p95_ms=round(percentile(latencies, 95), 3),
        p99_ms=round(percentile(latencies, 99), 3),
        shed_rate=snap["shed_rate"],
        throughput_qps=round(len(queries) / (service_total_ms / 1000.0), 2),
        cache_hit_rate=snap["cache_hit_rate"],
        speedup=round(speedup, 2),
    )
    print(
        f"\n[service] {len(queries)} queries: cold={cold_total_ms:.0f}ms "
        f"shared-service={service_total_ms:.0f}ms speedup={speedup:.2f}x "
        f"p99={percentile(latencies, 99):.1f}ms "
        f"cache_hit_rate={snap['cache_hit_rate']:.2f}"
    )
    assert snap["shed"] == 0, "steady run must not shed (queue sized to fit)"
    assert speedup >= REQUIRED_SPEEDUP, (
        f"shared-engine serving is only {speedup:.2f}x faster than cold "
        f"invocations (required >= {REQUIRED_SPEEDUP}x)"
    )


async def _open_loop(address, schedule, interval_s):
    """Offer one query every ``interval_s`` regardless of completions."""
    host, port = address
    client = await AsyncServiceClient.connect(host, port)
    try:
        async def one(name, pattern):
            sent = time.perf_counter()
            try:
                response = await client.query(pattern, optimizer="auto")
            except ServiceError as err:
                return name, err.code, None
            return name, "ok", (time.perf_counter() - sent) * 1000.0

        started = time.perf_counter()
        tasks = []
        for name, pattern in schedule:
            tasks.append(asyncio.ensure_future(one(name, pattern)))
            await asyncio.sleep(interval_s)
        outcomes = await asyncio.gather(*tasks)
        wall_ms = (time.perf_counter() - started) * 1000.0
        return wall_ms, outcomes
    finally:
        await client.close()


def test_overload_sheds_and_bounds_p99(shared_engine, workload, bench_record):
    queue_depth = 3
    handle = start_in_thread(
        shared_engine,
        ServiceConfig(max_inflight=1, queue_depth=queue_depth),
    )
    try:
        # measure warm per-query service time closed-loop (one at a
        # time = capacity of the 1-slot service, and nothing can shed);
        # also warms every cache the overload run uses
        from repro.service import ServiceClient

        host, port = handle.address
        exec_ms = []
        with ServiceClient(host, port, timeout=600) as warm_client:
            for _ in range(2):  # second pass is the warm measurement
                exec_ms = []
                for _, pattern in workload.items():
                    sent = time.perf_counter()
                    warm_client.query(pattern, optimizer="auto")
                    exec_ms.append((time.perf_counter() - sent) * 1000.0)
        mean_exec_s = (sum(exec_ms) / len(exec_ms)) / 1000.0
        max_exec_ms = max(exec_ms)

        schedule = [
            list(workload.items())[i % len(workload)]
            for i in range(OVERLOAD_ARRIVALS)
        ]
        interval_s = mean_exec_s / OVERLOAD_FACTOR
        wall_ms, outcomes = asyncio.run(
            _open_loop(handle.address, schedule, interval_s)
        )
        snap = handle.service.stats.snapshot()
    finally:
        handle.stop()

    served = [latency for _, status, latency in outcomes if status == "ok"]
    shed = [1 for _, status, _ in outcomes if status == "overloaded"]
    shed_rate = len(shed) / len(outcomes)
    p99 = percentile(served, 99)
    p99_bound_ms = (queue_depth + 2) * max_exec_ms * P99_SLACK

    bench_record.add(
        query="mixed",
        optimizer="service",
        variant="overload",
        wall_ms=wall_ms,
        rows=None,
        arrivals=len(outcomes),
        served=len(served),
        offered_qps=round(OVERLOAD_FACTOR / mean_exec_s, 2),
        throughput_qps=round(len(served) / (wall_ms / 1000.0), 2),
        p50_ms=round(percentile(served, 50), 3),
        p95_ms=round(percentile(served, 95), 3),
        p99_ms=round(p99, 3),
        shed_rate=round(shed_rate, 4),
        p99_bound_ms=round(p99_bound_ms, 1),
    )
    print(
        f"\n[service] overload: {len(outcomes)} arrivals at "
        f"{OVERLOAD_FACTOR:.0f}x capacity -> served={len(served)} "
        f"shed={len(shed)} ({shed_rate:.0%}) p99={p99:.1f}ms "
        f"(bound {p99_bound_ms:.0f}ms)"
    )
    assert served, "overload run served nothing"
    assert shed, (
        "no load shedding at 4x capacity: admission control is not engaging"
    )
    assert p99 <= p99_bound_ms, (
        f"p99 {p99:.1f}ms exceeds the queue-geometry bound "
        f"{p99_bound_ms:.1f}ms: the tail is not bounded under overload"
    )
