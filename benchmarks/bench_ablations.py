"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not figures from the paper — these isolate the mechanisms the paper
credits for its performance:

* **getCenters working cache** (Section 3.3: "We use a working cache to
  cache those pairs of (x_i, out(x_i)) ... to reduce the access cost for
  later reuse") — the same DPS query with the cache enabled vs disabled.
* **Shared-scan semijoins** (Remark 3.1) — two R-semijoins on one column
  executed in one scan vs two sequential Filter passes.
* **W-table pruning** — how many temporal tuples the Filter step kills
  before any Fetch, the mechanism behind DPS's small intermediates.

Run with: pytest benchmarks/bench_ablations.py --benchmark-only -s
"""

import pytest

from repro import GraphEngine
from repro.graph import xmark
from repro.query.algebra import Side
from repro.query.operators import apply_filter, hpsj
from repro.workloads.patterns import PatternFactory, TREE_3


@pytest.fixture(scope="module")
def data():
    return xmark.generate(factor=0.4, entity_budget=1500, seed=7)


@pytest.fixture(scope="module")
def cached_engine(data):
    return GraphEngine(data.graph, code_cache_enabled=True)


@pytest.fixture(scope="module")
def uncached_engine(data):
    return GraphEngine(data.graph, code_cache_enabled=False)


@pytest.fixture(scope="module")
def tree_pattern(cached_engine):
    return PatternFactory(cached_engine.db.catalog, seed=11).instantiate(TREE_3)


@pytest.mark.parametrize("cache", ("cache-on", "cache-off"))
def test_ablation_working_cache(
    benchmark, cache, cached_engine, uncached_engine, tree_pattern, bench_record
):
    engine = cached_engine if cache == "cache-on" else uncached_engine
    result = benchmark(lambda: engine.match(tree_pattern, optimizer="dps"))
    bench_record.add_result(result, query="TREE_3", optimizer="dps", variant=cache)
    hits = engine.db.code_cache.hits
    misses = engine.db.code_cache.misses
    benchmark.extra_info.update(
        {"ablation": "working-cache", "variant": cache,
         "cache_hits": hits, "cache_misses": misses,
         "logical_io": result.metrics.logical_io}
    )
    print(
        f"\n[Ablation cache] {cache}: hits={hits} misses={misses} "
        f"logIO={result.metrics.logical_io}"
    )


@pytest.mark.parametrize("mode", ("shared-scan", "two-scans"))
def test_ablation_shared_semijoin_scan(benchmark, cached_engine, mode):
    """Remark 3.1: one shared pass vs sequential Filter passes."""
    engine = cached_engine
    catalog = engine.db.catalog
    factory = PatternFactory(catalog, seed=23)
    # a 3-condition star: one scanned column, two semijoins to share
    pattern = factory.instantiate(((0, 1), (1, 2), (1, 3)))
    seed_cond = pattern.conditions[0]
    keys = [(pattern.conditions[1], Side.OUT), (pattern.conditions[2], Side.OUT)]

    def shared():
        engine.db.reset_counters()
        table, _ = hpsj(engine.db, pattern, seed_cond)
        out, _ = apply_filter(engine.db, pattern, table, keys)
        return out.row_count

    def sequential():
        engine.db.reset_counters()
        table, _ = hpsj(engine.db, pattern, seed_cond)
        mid, _ = apply_filter(engine.db, pattern, table, keys[:1])
        out, _ = apply_filter(engine.db, pattern, mid, keys[1:])
        return out.row_count

    survivors = benchmark(shared if mode == "shared-scan" else sequential)
    benchmark.extra_info.update(
        {"ablation": "shared-scan", "variant": mode, "survivors": survivors}
    )
    print(f"\n[Ablation shared-scan] {mode}: survivors={survivors}")


def test_ablation_wtable_pruning_rate(cached_engine, tree_pattern):
    """How much the Filter prunes before any Fetch runs (not timed)."""
    engine = cached_engine
    result = engine.match(tree_pattern, optimizer="dps")
    filters = [op for op in result.metrics.operators if op.operator.startswith("filter")]
    assert filters, "DPS plan should contain at least one Filter step"
    total_in = sum(op.rows_in for op in filters)
    total_out = sum(op.rows_out for op in filters)
    rate = 1 - (total_out / total_in) if total_in else 0.0
    print(
        f"\n[Ablation W-table] filter rows_in={total_in} rows_out={total_out} "
        f"pruned={rate:.1%}"
    )
    assert 0.0 <= rate <= 1.0


@pytest.mark.parametrize("order", ("degree", "reach", "random"))
def test_ablation_center_ordering(benchmark, data, order):
    """2-hop cover size/build time vs center-selection heuristic.

    The paper's fast cover algorithm [15] is about *computing* a small
    cover quickly; the knob our pruned-BFS construction exposes is the
    vertex processing order.  Expected: "degree" and "reach" yield
    noticeably smaller covers than the "random" control; random is
    cheapest to compute per vertex but pays in label volume (|H|).
    """
    from repro.labeling.twohop import build_two_hop

    labeling = benchmark(build_two_hop, data.graph, center_order=order)
    benchmark.extra_info.update(
        {
            "ablation": "center-order",
            "order": order,
            "cover_size": labeling.cover_size(),
            "cover_ratio": round(labeling.average_code_size(), 3),
        }
    )
    print(
        f"\n[Ablation center-order] {order}: |H|={labeling.cover_size()} "
        f"|H|/|V|={labeling.average_code_size():.3f}"
    )


@pytest.mark.parametrize("mode", ("materialized", "pipelined"))
def test_ablation_executor_mode(benchmark, cached_engine, tree_pattern, mode):
    """Materialized (paper-style HPSJ+) vs pipelined execution.

    Full-result evaluation: materialization pays temporal-table writes;
    pipelining avoids them but re-derives nothing (left-deep plans scan
    each intermediate once, so the two do the same logical work).
    """
    from repro.query import execute_plan, execute_plan_streaming

    optimized = cached_engine.plan(tree_pattern, optimizer="dps")

    if mode == "materialized":
        run = lambda: len(execute_plan(cached_engine.db, optimized.plan).rows)
    else:
        run = lambda: sum(
            1 for _ in execute_plan_streaming(cached_engine.db, optimized.plan)
        )
    rows = benchmark(run)
    benchmark.extra_info.update(
        {"ablation": "executor-mode", "variant": mode, "rows": rows}
    )
    print(f"\n[Ablation executor] {mode}: rows={rows}")


def test_drivers_agree_smoke():
    """CI smoke (no benchmark fixture): both drivers, one tiny graph.

    Runs in well under a second on the Figure 1 graph and fails fast if
    the materializing and streaming drivers ever drift apart — the
    invariant the shared physical-operator layer exists to guarantee.
    """
    from repro.graph.generators import figure1_graph
    from repro.query import execute_plan, execute_plan_streaming

    engine = GraphEngine(figure1_graph())
    pattern = "A -> C, B -> C, C -> D, D -> E"
    for optimizer in ("dp", "dps", "greedy"):
        optimized = engine.plan(pattern, optimizer=optimizer)
        materialized = execute_plan(engine.db, optimized.plan)
        stream = execute_plan_streaming(engine.db, optimized.plan)
        streamed = list(stream)
        assert set(streamed) == materialized.as_set(), optimizer
        assert len(streamed) == len(set(streamed)), optimizer
        assert [
            (op.operator, op.rows_in, op.rows_out)
            for op in stream.metrics.operators
        ] == [
            (op.operator, op.rows_in, op.rows_out)
            for op in materialized.metrics.operators
        ], optimizer


def test_ablation_limit_probe_cost(cached_engine, tree_pattern):
    """LIMIT-1 streamed probes must cost a small fraction of full runs."""
    db = cached_engine.db
    db.reset_counters()
    next(iter(cached_engine.match_iter(tree_pattern, limit=1)), None)
    probe = db.stats.logical_reads
    db.reset_counters()
    full = cached_engine.match(tree_pattern, reset_counters=False)
    total = db.stats.logical_reads
    print(f"\n[Ablation limit] probe logIO={probe} full logIO={total} "
          f"rows={len(full)}")
    assert probe <= total
