"""End-to-end tests of the public GraphEngine API."""

from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import GraphEngine, NaiveMatcher, parse_pattern
from repro.graph import generators, xmark
from repro.query import MultiwaySeed, MultiwayStep
from repro.query.engine import AUTO_DP_LIMIT
from repro.query.pattern import GraphPattern
from repro.workloads.runner import accounting_run


@pytest.fixture(scope="module")
def fig1_engine():
    return GraphEngine(generators.figure1_graph())


class TestMatch:
    def test_paper_pattern_matches_naive(self, fig1_engine):
        pattern = parse_pattern("A -> C, B -> C, C -> D, D -> E")
        naive = NaiveMatcher(fig1_engine.db.graph).match_set(pattern)
        for optimizer in ("dp", "dps"):
            result = fig1_engine.match(pattern, optimizer=optimizer)
            assert result.as_set() == naive
            assert result.columns == ("A", "C", "B", "D", "E")

    def test_string_patterns_accepted(self, fig1_engine):
        direct = fig1_engine.match("B -> C")
        parsed = fig1_engine.match(parse_pattern("B -> C"))
        assert direct.as_set() == parsed.as_set()

    def test_unknown_optimizer_rejected(self, fig1_engine):
        with pytest.raises(ValueError):
            fig1_engine.match("B -> C", optimizer="quantum")

    def test_unknown_label_rejected_with_guidance(self, fig1_engine):
        with pytest.raises(KeyError) as err:
            fig1_engine.match("B -> Z")
        assert "known labels" in str(err.value)

    def test_metrics_populated(self, fig1_engine):
        result = fig1_engine.match("A -> C, C -> D")
        metrics = result.metrics
        assert metrics.elapsed_seconds > 0
        assert metrics.result_rows == len(result)
        assert metrics.operators  # at least a seed step
        assert metrics.logical_io > 0
        assert metrics.peak_temporal_rows >= len(result)

    def test_counters_reset_between_queries(self, fig1_engine):
        """Only the experiment layer's accounting run starts from zeroed
        counters; ``match`` accumulates on the shared ones."""
        accounting_run(fig1_engine, "A -> C, C -> D")
        first = fig1_engine.db.stats.logical_reads
        cold = accounting_run(fig1_engine, "B -> C")
        assert fig1_engine.db.stats.logical_reads == cold.metrics.logical_io < first
        fig1_engine.match("B -> C")
        assert fig1_engine.db.stats.logical_reads > cold.metrics.logical_io

    def test_match_leaves_an_open_stream_alone(self):
        """Regression: ``match`` used to zero the shared ``IOStats`` an
        open stream on the same engine had snapshotted at its first
        pull, so that stream's I/O delta came out negative."""
        engine = GraphEngine(generators.figure1_graph())
        stream = engine.match_iter("A -> C, B -> C, C -> D, D -> E")
        next(stream)
        engine.match("B -> C")
        list(stream)
        assert stream.metrics.logical_io >= 0
        assert stream.metrics.physical_io >= 0

    def test_negative_limit_is_refused(self, fig1_engine):
        """Not an empty answer flagged ``stop_reason="limit"``."""
        for run in (fig1_engine.match, fig1_engine.match_iter):
            with pytest.raises(ValueError, match="limit must be >= 0"):
                run("A -> C, C -> D", limit=-5)
        assert fig1_engine.match("A -> C, C -> D", limit=0).rows == []

    def test_negative_row_limit_is_refused(self, fig1_engine):
        """Not a guard that trips on the first row, nor (under LIMIT 0)
        an empty answer: both drivers refuse it before any row."""
        runs = (
            lambda: fig1_engine.match("A -> C", row_limit=-1),
            lambda: fig1_engine.match("A -> C", row_limit=-1, limit=0),
            lambda: fig1_engine.match_iter("A -> C", row_limit=-1),
            lambda: accounting_run(fig1_engine, "A -> C", row_limit=-1),
        )
        for run in runs:
            with pytest.raises(ValueError, match="row_limit must be >= 0, got -1"):
                run()

    def test_explain_contains_plan(self, fig1_engine):
        text = fig1_engine.explain("A -> C, B -> C, C -> D, D -> E")
        assert "est_cost" in text
        assert "HPSJ" in text

    def test_stats_summary_shape(self, fig1_engine):
        summary = fig1_engine.stats_summary()
        assert summary["nodes"] == 26
        assert summary["cover_ratio"] > 0
        assert set(summary) == {
            "nodes", "edges", "cover_size", "cover_ratio", "centers"
        }

    def test_same_label_repeated_variables(self):
        """Two pattern variables with the same label (W-table's (B,B) case)."""
        g = generators.random_digraph(15, 0.15, seed=4)
        engine = GraphEngine(g)
        pattern = parse_pattern("x:B -> y:B")
        naive = NaiveMatcher(g).match_set(pattern)
        assert engine.match(pattern).as_set() == naive

    def test_empty_result_pattern(self):
        g = generators.random_digraph(10, 0.0, seed=1)  # no edges at all
        engine = GraphEngine(g)
        labels = g.alphabet()
        assume_ok = len(labels) >= 2
        if assume_ok:
            result = engine.match(f"{labels[0]} -> {labels[1]}")
            # only reflexive pairs impossible across labels: no edges => empty
            assert len(result) == 0


class TestOnXMark:
    def test_xmark_query_all_optimizers_agree(self):
        data = xmark.generate(factor=0.1, entity_budget=800, seed=7)
        engine = GraphEngine(data.graph)
        pattern = parse_pattern("person -> watch, watch -> open_auction")
        results = {
            optimizer: engine.match(pattern, optimizer=optimizer).as_set()
            for optimizer in ("dp", "dps")
        }
        assert results["dp"] == results["dps"]
        assert results["dp"]  # non-empty by construction (watches exist)

    def test_xmark_matches_naive(self):
        data = xmark.generate(factor=0.05, entity_budget=600, seed=3)
        engine = GraphEngine(data.graph)
        pattern = parse_pattern(
            "open_auction -> itemref, itemref -> item, item -> incategory"
        )
        naive = NaiveMatcher(data.graph).match_set(pattern)
        assert engine.match(pattern).as_set() == naive


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=5, max_value=25),
    density=st.floats(min_value=0.03, max_value=0.25),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_engine_equals_naive_on_random_graphs(n, density, seed):
    g = generators.random_digraph(n, density, seed=seed)
    assume(all(g.extent(label) for label in "ABC"))
    engine = GraphEngine(g)
    pattern = GraphPattern.build(
        {"A": "A", "B": "B", "C": "C"}, [("A", "B"), ("B", "C"), ("A", "C")]
    )
    naive = NaiveMatcher(g).match_set(pattern)
    for optimizer in ("dp", "dps"):
        assert engine.match(pattern, optimizer=optimizer).as_set() == naive


class TestPlanCache:
    def test_repeat_plans_are_cached(self, fig1_engine):
        fig1_engine._plan_cache.clear()
        first = fig1_engine.plan("A -> C, C -> D")
        second = fig1_engine.plan("A -> C, C -> D")
        assert first is second  # same object: served from the cache

    def test_different_optimizers_cached_separately(self, fig1_engine):
        dp = fig1_engine.plan("A -> C, C -> D", optimizer="dp")
        dps = fig1_engine.plan("A -> C, C -> D", optimizer="dps")
        assert dp is not dps

    def test_cache_reset_at_capacity(self, fig1_engine):
        fig1_engine._plan_cache.clear()
        original = fig1_engine.PLAN_CACHE_SIZE
        try:
            fig1_engine.PLAN_CACHE_SIZE = 2
            fig1_engine.plan("A -> C")
            fig1_engine.plan("B -> C")
            fig1_engine.plan("C -> D")  # triggers one LRU eviction
            assert len(fig1_engine._plan_cache) <= 2
        finally:
            fig1_engine.PLAN_CACHE_SIZE = original

    def test_lru_eviction_keeps_hottest_plan(self, fig1_engine):
        """Eviction is LRU, not wholesale: the hottest plan survives."""
        fig1_engine._plan_cache.clear()
        original = fig1_engine.PLAN_CACHE_SIZE
        try:
            fig1_engine.PLAN_CACHE_SIZE = 2
            hot = fig1_engine.plan("A -> C")
            fig1_engine.plan("B -> C")
            assert fig1_engine.plan("A -> C") is hot  # touch: A is now youngest
            fig1_engine.plan("C -> D")  # at capacity: evicts B, the LRU entry
            cached_patterns = {key[0] for key in fig1_engine._plan_cache}
            assert ("A", "C") in cached_patterns  # key[0]: the variables
            assert ("B", "C") not in cached_patterns
            # and the survivor is still served from cache, same object
            assert fig1_engine.plan("A -> C") is hot
        finally:
            fig1_engine.PLAN_CACHE_SIZE = original

    def test_lru_eviction_drops_oldest_without_touch(self, fig1_engine):
        fig1_engine._plan_cache.clear()
        original = fig1_engine.PLAN_CACHE_SIZE
        try:
            fig1_engine.PLAN_CACHE_SIZE = 2
            fig1_engine.plan("A -> C")
            second = fig1_engine.plan("B -> C")
            fig1_engine.plan("C -> D")  # A is oldest: evicted
            assert ("A", "C") not in {key[0] for key in fig1_engine._plan_cache}
            assert fig1_engine.plan("B -> C") is second
        finally:
            fig1_engine.PLAN_CACHE_SIZE = original

    def test_cache_key_includes_variable_order(self):
        """Two patterns that print alike but declare their variables in a
        different order have different result columns; the second must
        not be served the first one's plan (it was, keyed on the text)."""
        graph = xmark.generate(factor=0.05, entity_budget=300, seed=3).graph
        engine = GraphEngine(graph)
        built = GraphPattern.build({"b": "person", "a": "people"}, [("a", "b")])
        parsed = parse_pattern("a:people -> b:person")
        assert str(built) == str(parsed)
        first = engine.match(built)
        second = engine.match(parsed)
        assert first.columns == ("b", "a") and second.columns == ("a", "b")
        assert first.rows and second.as_set() == {(a, b) for b, a in first.rows}
        # and the other way round, on the same engine
        assert engine.match(built).as_set() == first.as_set()
        assert len(engine._plan_cache) == 2

    def test_cached_plan_still_correct(self, fig1_engine):
        from repro import NaiveMatcher

        pattern = "A -> C, B -> C"
        naive = NaiveMatcher(fig1_engine.db.graph).match_set(
            __import__("repro").parse_pattern(pattern)
        )
        fig1_engine.match(pattern)
        assert fig1_engine.match(pattern).as_set() == naive


def steps(engine, pattern, optimizer, limit=None):
    return tuple(engine.plan(pattern, optimizer=optimizer, limit=limit).plan.steps)


class TestAutoResolution:
    """``"auto"`` is resolved per query: an acyclic pattern -> dp when at
    most ``AUTO_DP_LIMIT`` rows are asked for; everything else -> wcoj —
    cyclic patterns, a full answer, or the query service's 1,000,000-row
    cap."""

    ABOVE = (AUTO_DP_LIMIT + 1, 1_000_000, None)

    @pytest.fixture(scope="class")
    def acyclic(self, xmark_engine, figure4_workload):
        """A Figure-4 pattern whose dp and dps plans differ (its wcoj plan
        is multiway, unlike both), so the table can tell which one
        ``auto`` picked."""
        for pattern in figure4_workload.values():
            if not pattern.is_cyclic() and (
                steps(xmark_engine, pattern, "dp")
                != steps(xmark_engine, pattern, "dps")
            ):
                return pattern
        pytest.fail("every acyclic Figure-4 pattern has dp plan == dps plan")

    @pytest.mark.parametrize("limit", [0, 1, AUTO_DP_LIMIT])
    def test_acyclic_prefix_gets_dp(self, xmark_engine, acyclic, limit):
        got = steps(xmark_engine, acyclic, "auto", limit)
        assert got == steps(xmark_engine, acyclic, "dp")

    @pytest.mark.parametrize("limit", ABOVE)
    def test_acyclic_full_answer_gets_wcoj(self, xmark_engine, acyclic, limit):
        got = steps(xmark_engine, acyclic, "auto", limit)
        assert got == steps(xmark_engine, acyclic, "wcoj")
        assert isinstance(got[0], MultiwaySeed)
        assert all(isinstance(step, MultiwayStep) for step in got[1:])

    def test_cyclic_gets_multiway_at_every_limit(self, xmark_engine, cyclic_workload):
        assert cyclic_workload
        for name, pattern in cyclic_workload.items():
            expected = steps(xmark_engine, pattern, "wcoj")
            assert isinstance(expected[0], MultiwaySeed), name
            for limit in (0, 1, AUTO_DP_LIMIT, *self.ABOVE):
                assert steps(xmark_engine, pattern, "auto", limit) == expected, (
                    name, limit)

    def test_auto_and_its_resolution_share_one_cache_entry(self, xmark_engine, acyclic):
        engine = GraphEngine.from_database(xmark_engine.db)
        limited = engine.plan(acyclic, "auto", limit=20)
        assert engine.plan(acyclic, "dp") is limited
        assert len(engine._plan_cache) == 1
        full = engine.plan(acyclic, "auto")
        assert engine.plan(acyclic, "wcoj", limit=20) is full
        assert {key[-1] for key in engine._plan_cache} == {"dp", "wcoj"}

    def test_explain_names_the_resolved_optimizer(
        self, xmark_engine, acyclic, cyclic_workload
    ):
        def header(pattern, optimizer, limit=None):
            return xmark_engine.explain(pattern, optimizer, limit=limit).split(" est_")[0]

        cyclic = next(iter(cyclic_workload.values()))
        assert header(acyclic, "auto", 20) == (
            f"-- optimizer=auto->dp (acyclic, limit 20 <= {AUTO_DP_LIMIT})")
        assert header(acyclic, "auto", 1_000_000) == (
            f"-- optimizer=auto->wcoj (acyclic, limit 1000000 > {AUTO_DP_LIMIT})")
        assert header(acyclic, "auto") == "-- optimizer=auto->wcoj (acyclic, full answer)"
        assert header(cyclic, "auto", 20) == "-- optimizer=auto->wcoj (cyclic)"
        assert header(acyclic, "dps", 20) == "-- optimizer=dps"

    def test_negative_limit_refused(self, xmark_engine, acyclic):
        with pytest.raises(ValueError, match="limit must be >= 0, got -1"):
            xmark_engine.plan(acyclic, "auto", limit=-1)

    @pytest.fixture(scope="class")
    def naive_answers(self, xmark_engine, figure4_workload, cyclic_workload):
        naive = NaiveMatcher(xmark_engine.db.graph)
        patterns = {**figure4_workload, **cyclic_workload}
        return {name: (p, naive.match_set(p)) for name, p in patterns.items()}

    @pytest.mark.parametrize("tier", ["live", "snapshot"])
    def test_limited_rows_are_distinct_and_naive(
        self, xmark_engine, xmark_snapshot_engine, naive_answers, tier
    ):
        engine = xmark_engine if tier == "live" else xmark_snapshot_engine
        for name, (pattern, full) in naive_answers.items():
            for limit in (0, 1, 20, AUTO_DP_LIMIT, AUTO_DP_LIMIT + 1):
                rows = list(engine.match_iter(pattern, "auto", limit=limit))
                assert len(rows) == min(limit, len(full)), (name, limit)
                assert len(set(rows)) == len(rows), (name, limit)
                assert set(rows) <= full, (name, limit)


class CountingCatalog:
    """Forwards to a catalog, counting the calls of every method."""

    def __init__(self, catalog):
        self._catalog = catalog
        self.calls = Counter()

    def __getattr__(self, name):
        value = getattr(self._catalog, name)
        if not callable(value):
            return value

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return value(*args, **kwargs)

        return counted


class TestCatalogReadBudget:
    """Catalog reads per ``plan()`` call, counted — not timed: a miss
    reads one extent per variable and one pair per condition, whatever
    the search then does with them; a hit reads nothing."""

    @pytest.mark.parametrize("optimizer", ["dp", "dps", "wcoj", "auto"])
    @pytest.mark.parametrize(
        "text",
        [
            "A -> C, B -> C, C -> D, D -> E",       # the paper's tree
            "A -> C, A -> D, C -> D, D -> E",       # cyclic: the WCOJ route
            "x:C -> y:C",                           # a repeated label
        ],
    )
    def test_one_pair_read_per_condition(self, fig1_engine, optimizer, text):
        pattern = parse_pattern(text)
        catalog = fig1_engine.db.catalog
        fig1_engine._plan_cache.clear()
        fig1_engine.db.catalog = counting = CountingCatalog(catalog)
        try:
            missed = fig1_engine.plan(pattern, optimizer=optimizer)
            assert counting.calls == {
                "extent_size": pattern.node_count,
                "pair_stats": pattern.edge_count,
            }
            counting.calls.clear()
            assert fig1_engine.plan(text, optimizer=optimizer) is missed
            assert not counting.calls
        finally:
            fig1_engine.db.catalog = catalog
