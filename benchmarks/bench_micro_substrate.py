"""Micro-benchmarks of the substrates (not paper figures).

Throughput checks for the pieces the macro results are built from:
2-hop reachability queries vs plain BFS, B+-tree point lookups, HPSJ on
base tables and the multi-interval code's stab test.  Useful when tuning
any substrate — a regression here predicts a regression in Figures 5-7.
(Operator-level performance is measured end to end by
``benchmarks/e2e/run.py``, the repo's one declared benchmark.)

Run with: pytest benchmarks/bench_micro_substrate.py --benchmark-only -s
"""

import random

import pytest

from repro.db.database import GraphDatabase
from repro.graph import xmark
from repro.graph.traversal import is_reachable
from repro.labeling.interval import build_multi_interval
from repro.labeling.twohop import build_two_hop
from repro.query.operators import hpsj
from repro.query.pattern import GraphPattern


@pytest.fixture(scope="module")
def data():
    return xmark.generate(factor=0.3, entity_budget=1500, seed=7)


@pytest.fixture(scope="module")
def labeling(data):
    return build_two_hop(data.graph)


@pytest.fixture(scope="module")
def interval_code(data):
    return build_multi_interval(data.graph)


@pytest.fixture(scope="module")
def query_pairs(data):
    rng = random.Random(3)
    n = data.graph.node_count
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(2000)]


def test_micro_twohop_queries(benchmark, labeling, query_pairs):
    def run():
        return sum(1 for u, v in query_pairs if labeling.reaches(u, v))

    positives = benchmark(run)
    benchmark.extra_info["positive_pairs"] = positives


def test_micro_bfs_queries(benchmark, data, query_pairs):
    """The same queries by BFS — the baseline 2-hop codes replace."""
    sample = query_pairs[:50]  # BFS is orders of magnitude slower

    def run():
        return sum(1 for u, v in sample if is_reachable(data.graph, u, v))

    benchmark(run)


def test_micro_interval_queries(benchmark, interval_code, query_pairs):
    def run():
        return sum(1 for u, v in query_pairs if interval_code.reaches(u, v))

    positives = benchmark(run)
    benchmark.extra_info["positive_pairs"] = positives


def test_micro_twohop_agrees_with_interval(labeling, interval_code, query_pairs):
    for u, v in query_pairs:
        assert labeling.reaches(u, v) == interval_code.reaches(u, v)


def test_micro_bptree_point_lookups(benchmark, data, labeling):
    db = GraphDatabase(data.graph, labeling=labeling)
    label = max(db.labels(), key=lambda l: db.catalog.extent_size(l))
    table = db.base_table(label)
    nodes = data.graph.extent(label)

    def run():
        found = 0
        for node in nodes[:500]:
            if table.fetch_by_key(node) is not None:
                found += 1
        return found

    assert benchmark(run) == min(500, len(nodes))


def test_micro_hpsj_base_join(benchmark, data, labeling):
    db = GraphDatabase(data.graph, labeling=labeling)
    pattern = GraphPattern.build(
        {"itemref": "itemref", "item": "item"}, [("itemref", "item")]
    )

    def run():
        table, _ = hpsj(db, pattern, ("itemref", "item"))
        return table.row_count

    rows = benchmark(run)
    benchmark.extra_info["rows"] = rows
    assert rows > 0


def test_micro_chaincover_queries(benchmark, data, query_pairs):
    """The third reachability coding: O(1) queries, O(n*k) index.

    Compare against test_micro_twohop_queries (same query set); also
    records the index-size trade-off that historically favored 2-hop on
    wide document graphs.
    """
    from repro.labeling.chaincover import build_chain_cover

    cover = build_chain_cover(data.graph)

    def run():
        return sum(1 for u, v in query_pairs if cover.reaches(u, v))

    positives = benchmark(run)
    benchmark.extra_info.update(
        {
            "positive_pairs": positives,
            "chains": cover.chain_count,
            "index_entries": cover.index_entries(),
        }
    )


def test_micro_chaincover_agrees_with_twohop(data, labeling, query_pairs):
    from repro.labeling.chaincover import build_chain_cover

    cover = build_chain_cover(data.graph)
    for u, v in query_pairs[:500]:
        assert cover.reaches(u, v) == labeling.reaches(u, v)
