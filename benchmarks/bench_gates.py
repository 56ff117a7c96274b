"""Performance gates: the claims outside the paper's figures, each with a bound.

Three groups, each a fixed instance, round count and bound:

1. **WCOJ on cyclic patterns.**  On the engineered diamond workload
   (:func:`repro.graph.generators.diamond_blowup`, where every left-deep
   order must expand a ``branch_fanout``-sized C-branch before the
   closing condition can filter it) the ``wcoj`` plan must produce
   **>= 5x fewer intermediate rows** (summed per-operator ``rows_out``)
   and **>= 2x lower median wall time** than the best left-deep DP plan,
   with row sets identical to the left-deep oracle.  The triangle is the
   degenerate control: under R-join (reachability) semantics ``A ~> B``
   and ``B ~> C`` imply the closing edge ``A ~> C``, so its cycle never
   filters.  The XMark cyclic workload
   (:meth:`PatternFactory.cyclic_patterns`) is an agreement leg.
2. **Snapshot load.**  Reopening the Figure-7 "L" database from its
   binary snapshot (mmap, zero-copy columns, lazily decoded subclusters)
   must be **>= 5x faster** than rebuilding it from its graph and 2-hop
   labeling (``GraphDatabase(graph, labeling=labeling)``: base tables,
   cluster index, W-table and catalog), and both must answer a workload
   query with the same rows.
3. **The query service.**  Serving N queries concurrently through one
   shared engine must beat N sequential *cold* engine invocations (fresh
   ``load_database`` + ``GraphEngine`` per query) **>= 2x** on aggregate
   wall time, rows byte-identical per query.  An *open-loop* arrival
   schedule at ~4x measured capacity against a 1-slot service with a
   short admission queue must shed (sheds > 0) while the p99 of served
   queries stays inside what the queue geometry allows.  A closed-loop
   driver self-throttles and could never show overload; the open loop
   keeps offering work at the target rate like independent clients.

Run with:
    REPRO_BENCH_BUDGET=800 python -m pytest benchmarks/bench_gates.py -q --benchmark-disable
"""

from __future__ import annotations

import asyncio
import statistics
import time
from typing import Dict, Tuple

import pytest

from repro import GraphEngine
from repro.db.database import GraphDatabase
from repro.db.persist import load_database, save_database
from repro.graph import xmark
from repro.graph.generators import diamond_blowup
from repro.service import (
    AsyncServiceClient,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    rows_as_tuples,
    start_in_thread,
)
from repro.service.scheduler import percentile
from repro.workloads.patterns import PatternFactory
from repro.workloads.runner import row_limit_validator

from conftest import BENCH_BUDGET, BENCH_SEED, WORKLOAD_ROW_LIMIT


# ----------------------------------------------------------------------
# 1. WCOJ vs left-deep DP on cyclic patterns
# ----------------------------------------------------------------------
OPTIMIZERS = ("dp", "dps", "wcoj")
ROUNDS = 5

#: the two gated shapes on the engineered graph
SHAPES = {
    "triangle": "A -> B, A -> C, B -> C",
    "diamond": "A -> B, A -> C, B -> D, C -> D",
}

#: intermediate-row and wall-time advantage of the wcoj plan over the
#: best left-deep DP plan on the diamond instance
MIN_INTERMEDIATE_RATIO = 5.0
MIN_WALL_RATIO = 2.0


def intermediate_rows(result) -> int:
    """Summed per-operator ``rows_out``."""
    return sum(op.rows_out for op in result.metrics.operators)


@pytest.fixture(scope="module")
def blowup_engine() -> GraphEngine:
    return GraphEngine(diamond_blowup(n_anchor=300, branch_fanout=80, closers=2, seed=7))


@pytest.fixture(scope="module")
def measurements(blowup_engine) -> Dict[Tuple[str, str], dict]:
    """Median-of-ROUNDS wall time per (shape, optimizer), measured once."""
    out: Dict[Tuple[str, str], dict] = {}
    for shape, pattern in SHAPES.items():
        for optimizer in OPTIMIZERS:
            walls = []
            for _ in range(ROUNDS):
                start = time.perf_counter()
                result = blowup_engine.match(pattern, optimizer=optimizer)
                walls.append((time.perf_counter() - start) * 1000.0)
            out[shape, optimizer] = {
                "rows": tuple(sorted(result.rows)),
                "intermediate_rows": intermediate_rows(result),
                "wall_ms": statistics.median(walls),
            }
    return out


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
@pytest.mark.parametrize("shape", tuple(SHAPES))
def test_blowup_agreement(measurements, shape, optimizer):
    """Every optimizer returns the left-deep oracle's exact row set."""
    entry = measurements[shape, optimizer]
    oracle = measurements[shape, "dp"]
    assert entry["rows"] == oracle["rows"], f"{shape}/{optimizer} diverges from DP"


def test_diamond_intermediate_rows_gate(measurements):
    """wcoj materializes >= 5x fewer intermediate rows than left-deep DP."""
    dp = measurements["diamond", "dp"]
    wcoj = measurements["diamond", "wcoj"]
    assert wcoj["rows"] == dp["rows"]
    ratio = dp["intermediate_rows"] / max(wcoj["intermediate_rows"], 1)
    assert ratio >= MIN_INTERMEDIATE_RATIO, (
        f"diamond intermediate rows: dp={dp['intermediate_rows']} "
        f"wcoj={wcoj['intermediate_rows']} ({ratio:.1f}x, "
        f"required >= {MIN_INTERMEDIATE_RATIO}x)"
    )


def test_diamond_wall_time_gate(measurements):
    """wcoj runs the diamond >= 2x faster (median wall) than left-deep DP."""
    dp = measurements["diamond", "dp"]
    wcoj = measurements["diamond", "wcoj"]
    ratio = dp["wall_ms"] / wcoj["wall_ms"]
    assert ratio >= MIN_WALL_RATIO, (
        f"diamond median wall: dp={dp['wall_ms']:.2f}ms "
        f"wcoj={wcoj['wall_ms']:.2f}ms ({ratio:.1f}x, "
        f"required >= {MIN_WALL_RATIO}x)"
    )


def test_triangle_is_transitivity_degenerate(measurements):
    """The control: the triangle's closing edge filters nothing.

    ``A ~> B, B ~> C`` implies ``A ~> C``, so every (a, b, c) surviving
    the two path conditions already satisfies the cycle — binary plans
    have nothing to lose here, and the shape is checked, not gated.
    """
    dp = measurements["triangle", "dp"]
    wcoj = measurements["triangle", "wcoj"]
    assert wcoj["rows"] == dp["rows"]
    assert len(dp["rows"]) > 0  # non-empty control, not a vacuous pass


def test_xmark_cyclic_agreement():
    """Realistic leg: the XMark cyclic workload agrees across optimizers."""
    data = xmark.generate(factor=0.1, entity_budget=600, seed=7)
    engine = GraphEngine(data.graph)
    factory = PatternFactory(engine.db.catalog, seed=11)
    patterns = factory.cyclic_patterns(("triangle", "diamond", "cycle-tail"))
    for name, pattern in patterns.items():
        oracle = None
        for optimizer in OPTIMIZERS:
            rows = tuple(sorted(engine.match(pattern, optimizer=optimizer).rows))
            if oracle is None:
                oracle = rows
            assert rows == oracle, f"xmark {name}/{optimizer} diverges"


# ----------------------------------------------------------------------
# 2. Binary snapshot load vs rebuild from graph + labeling
# ----------------------------------------------------------------------
#: acceptance floor for rebuild_ms / snapshot_ms on the Figure-7 "L" graph
REQUIRED_LOAD_SPEEDUP = 5.0

#: repetitions per timed load or rebuild; the minimum counts
LOAD_REPEATS = 3

#: the agreement-gate pattern (labels exist at every XMark scale)
GATE_PATTERN = "person -> watch"


@pytest.fixture(scope="module")
def built_and_saved(tmp_path_factory):
    """The Figure-7 "L" database, built once and saved as a snapshot."""
    data = xmark.dataset("L", entity_budget=BENCH_BUDGET, seed=BENCH_SEED)
    db = GraphEngine(data.graph).db
    snap_path = str(tmp_path_factory.mktemp("snapload") / "fig7L.snap")
    save_database(db, snap_path)
    return db, snap_path


def _best_of(make):
    best = float("inf")
    db = None
    for _ in range(LOAD_REPEATS):
        start = time.perf_counter()
        db = make()
        best = min(best, time.perf_counter() - start)
    return best * 1000.0, db


def test_snapshot_load_beats_rebuild(built_and_saved):
    built, snap_path = built_and_saved
    rebuild_ms, rebuilt_db = _best_of(
        lambda: GraphDatabase(built.graph, labeling=built.labeling)
    )
    snap_ms, snap_db = _best_of(lambda: load_database(snap_path))

    # agreement gate before any timing claims
    oracle = GraphEngine.from_database(rebuilt_db).match(GATE_PATTERN)
    candidate = GraphEngine.from_database(snap_db).match(GATE_PATTERN)
    assert candidate.rows == oracle.rows, "snapshot-loaded rows diverge"
    assert snap_db.join_index.wtable_sizes() == rebuilt_db.join_index.wtable_sizes()

    speedup = rebuild_ms / snap_ms if snap_ms else float("inf")
    assert speedup >= REQUIRED_LOAD_SPEEDUP, (
        f"binary snapshot load ({snap_ms:.1f}ms) is only {speedup:.2f}x faster "
        f"than a rebuild from graph + labeling ({rebuild_ms:.1f}ms) "
        f"(required >= {REQUIRED_LOAD_SPEEDUP}x)"
    )


# ----------------------------------------------------------------------
# 3. The query service: shared-engine amortization and overload
# ----------------------------------------------------------------------
#: aggregate cold wall / aggregate service wall must reach this
REQUIRED_SERVICE_SPEEDUP = 2.0

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
    save_database(GraphEngine(data.graph).db, path)
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
            response = await client.query(pattern, optimizer="auto")
            return name, response

        results = await asyncio.gather(
            *(one(name, pattern) for name, pattern in queries)
        )
        total_ms = (time.perf_counter() - started) * 1000.0
        return total_ms, results
    finally:
        await client.close()


def test_shared_engine_beats_cold_invocations(snapshot_path, shared_engine, workload):
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
    for name, response in results:
        assert response["truncated"] is False
        assert rows_as_tuples(response) == cold_rows[name], (
            f"service rows diverge from direct execution for {name}"
        )

    speedup = cold_total_ms / service_total_ms
    assert snap["shed"] == 0, "steady run must not shed (queue sized to fit)"
    assert speedup >= REQUIRED_SERVICE_SPEEDUP, (
        f"shared-engine serving ({service_total_ms:.0f}ms) is only "
        f"{speedup:.2f}x faster than cold invocations ({cold_total_ms:.0f}ms) "
        f"(required >= {REQUIRED_SERVICE_SPEEDUP}x)"
    )


async def _open_loop(address, schedule, interval_s):
    """Offer one query every ``interval_s`` regardless of completions."""
    host, port = address
    client = await AsyncServiceClient.connect(host, port)
    try:
        async def one(pattern):
            sent = time.perf_counter()
            try:
                await client.query(pattern, optimizer="auto")
            except ServiceError as err:
                return err.code, None
            return "ok", (time.perf_counter() - sent) * 1000.0

        tasks = []
        for _, pattern in schedule:
            tasks.append(asyncio.ensure_future(one(pattern)))
            await asyncio.sleep(interval_s)
        return await asyncio.gather(*tasks)
    finally:
        await client.close()


def test_overload_sheds_and_bounds_p99(shared_engine, workload):
    queue_depth = 3
    handle = start_in_thread(
        shared_engine,
        ServiceConfig(max_inflight=1, queue_depth=queue_depth),
    )
    try:
        # measure warm per-query service time closed-loop (one at a
        # time = capacity of the 1-slot service, and nothing can shed);
        # also warms every cache the overload run uses
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
        outcomes = asyncio.run(_open_loop(handle.address, schedule, interval_s))
    finally:
        handle.stop()

    served = [latency for status, latency in outcomes if status == "ok"]
    shed = [1 for status, _ in outcomes if status == "overloaded"]
    assert served, "overload run served nothing"
    assert shed, (
        "no load shedding at 4x capacity: admission control is not engaging"
    )
    p99 = percentile(served, 99)
    p99_bound_ms = (queue_depth + 2) * max_exec_ms * P99_SLACK
    assert p99 <= p99_bound_ms, (
        f"p99 {p99:.1f}ms exceeds the queue-geometry bound "
        f"{p99_bound_ms:.1f}ms: the tail is not bounded under overload"
    )
