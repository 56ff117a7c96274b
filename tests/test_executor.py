"""Tests for plan execution mechanics: metrics, projection, row limits."""

import pytest

from repro import GraphEngine
from repro.graph.digraph import DiGraph
from repro.graph.generators import figure1_graph, random_digraph
from repro.query.algebra import (
    FetchStep,
    FilterStep,
    Plan,
    RowLimitExceeded,
    SeedJoin,
    SeedScan,
    Side,
)
from repro.query import execute_plan
from repro.query.parser import parse_pattern


@pytest.fixture(scope="module")
def engine():
    return GraphEngine(figure1_graph())


class TestExecution:
    def test_projection_order_follows_pattern_variables(self, engine):
        pattern = parse_pattern("C -> D, B -> C")
        result = engine.match(pattern)
        assert result.columns == ("C", "D", "B")
        g = engine.db.graph
        for c, d, b in result.rows:
            assert g.label(c) == "C"
            assert g.label(d) == "D"
            assert g.label(b) == "B"

    def test_operator_metrics_sequence_matches_plan(self, engine):
        optimized = engine.plan("A -> C, C -> D", optimizer="dp")
        result = execute_plan(engine.db, optimized.plan)
        assert len(result.metrics.operators) == len(optimized.plan.steps)

    def test_io_delta_only_covers_this_query(self, engine):
        engine.match("B -> C")  # warm up
        result = engine.match("B -> C")
        assert result.metrics.io.logical_reads == result.metrics.logical_io
        assert result.metrics.logical_io > 0

    def test_live_filter_charges_a_base_table_read_per_distinct_node(self):
        """Paper I/O accounting (Eqs. 10-12): on the live tier the Filter's
        code reads come through the base table's primary index, so a
        Filter-dominated plan is charged at least one page read per
        distinct scanned node — not served from the in-memory labeling."""
        graph = DiGraph()
        sources = [graph.add_node("A") for _ in range(400)]
        hub = graph.add_node("H")
        graph.add_edges((a, hub) for a in sources)
        graph.add_edge(hub, graph.add_node("B"))
        engine = GraphEngine(graph)
        plan = Plan(
            parse_pattern("a:A -> b:B"),
            [
                SeedScan("a"),
                FilterStep(((("a", "b"), Side.OUT),)),
                FetchStep(("a", "b"), Side.OUT),
            ],
        )
        engine.db.reset_counters()
        result = execute_plan(engine.db, plan)
        assert len(result) == len(sources)
        # every temporal-table insert re-fetches its tail page (one
        # logical read per stored row); what remains is index traffic
        stored = sum(op.rows_out for op in result.metrics.operators)
        assert result.metrics.io.logical_reads - stored >= len(sources)
        assert engine.db.code_cache.misses == len(sources)

    def test_temporal_tables_are_dropped_after_every_query(self, engine):
        """Intermediates must not pile up on the simulated disk: 50
        accounting runs leave its page count where the first left it,
        including when a row-limit abort unwinds mid-plan."""
        plan = engine.plan("A -> C, B -> C, C -> D, D -> E").plan
        execute_plan(engine.db, plan)
        pages = engine.db.pool.disk.page_count
        for _ in range(50):
            execute_plan(engine.db, plan)
        with pytest.raises(RowLimitExceeded):
            execute_plan(engine.db, plan, row_limit=1)
        assert engine.db.pool.disk.page_count == pages

    def test_manual_plan_execution(self, engine):
        pattern = parse_pattern("B -> C, C -> D")
        plan = Plan(
            pattern,
            [
                SeedJoin(("B", "C")),
                FilterStep(((("C", "D"), Side.OUT),)),
                FetchStep(("C", "D"), Side.OUT),
            ],
        )
        manual = execute_plan(engine.db, plan)
        optimized = engine.match(pattern)
        assert manual.as_set() == optimized.as_set()


class TestRowLimit:
    def test_row_limit_raises_on_blowup(self):
        g = random_digraph(30, 0.3, seed=3)
        engine = GraphEngine(g)
        pattern = parse_pattern("A -> B, B -> C")
        full = engine.match(pattern)
        assert len(full) > 10
        with pytest.raises(RowLimitExceeded):
            engine.match(pattern, row_limit=5)

    def test_row_limit_allows_small_queries(self, engine):
        result = engine.match("A -> C, C -> D", row_limit=10_000)
        unlimited = engine.match("A -> C, C -> D")
        assert result.as_set() == unlimited.as_set()

    def test_row_limit_caps_intermediates_not_only_result(self):
        """A query whose final result is small but whose intermediate is
        large must still trip the guard."""
        g = random_digraph(40, 0.25, seed=9)
        engine = GraphEngine(g)
        # A->B joins are big; the closing A->C selection shrinks them
        pattern = parse_pattern("A -> B, B -> C, A -> C")
        full = engine.match(pattern)
        limit = max(1, full.metrics.peak_temporal_rows - 1)
        if full.metrics.peak_temporal_rows > len(full):
            with pytest.raises(RowLimitExceeded):
                engine.match(pattern, row_limit=min(limit, len(full)))


class TestValidatorHelper:
    def test_row_limit_validator(self):
        from repro.workloads.runner import row_limit_validator

        g = random_digraph(30, 0.3, seed=3)
        engine = GraphEngine(g)
        tight = row_limit_validator(engine, row_limit=5)
        loose = row_limit_validator(engine, row_limit=10_000_000)
        pattern = parse_pattern("A -> B, B -> C")
        assert not tight(pattern)
        assert loose(pattern)
