"""Tests for the pipelined (streaming) executor."""

import gc
import hashlib
import sys
from itertools import count

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import GraphEngine
from repro.analysis.sanitizer import sanitize_enabled
from repro.db.persist import save_database
from repro.graph.digraph import DiGraph
from repro.graph.generators import anti_correlated_star, figure1_graph, random_digraph
from repro.query import engine as engine_module
from repro.query import execute_plan, execute_plan_streaming
from repro.query.algebra import (
    FetchStep, FilterStep, Plan, RowLimitExceeded, SeedJoin, Side,
)
from repro.query.parser import parse_pattern
from repro.query.physical import ExecutionContext, build_pipeline, drivers
from repro.query.physical.drivers import CHUNK

from reference_executor import op_counters


@pytest.fixture(scope="module")
def engine():
    return GraphEngine(figure1_graph())


PATTERNS = [
    "B -> C",
    "A -> C, C -> D",
    "A -> C, B -> C, C -> D, D -> E",
    "B -> C, C -> D, C -> E",
    "A -> C, A -> D, C -> D",   # includes a selection
]


class TestStreamingEqualsMaterialized:
    @pytest.mark.parametrize("text", PATTERNS)
    @pytest.mark.parametrize("optimizer", ["dp", "dps"])
    def test_same_result_set(self, engine, text, optimizer):
        optimized = engine.plan(text, optimizer=optimizer)
        materialized = execute_plan(engine.db, optimized.plan)
        streamed = set(execute_plan_streaming(engine.db, optimized.plan))
        assert streamed == materialized.as_set()

    def test_no_duplicates_in_stream(self, engine):
        optimized = engine.plan("B -> C, C -> E", optimizer="dps")
        rows = list(execute_plan_streaming(engine.db, optimized.plan))
        assert len(rows) == len(set(rows))

    def test_single_variable_pattern(self, engine):
        optimized = engine.plan("x:B")
        rows = set(execute_plan_streaming(engine.db, optimized.plan))
        assert rows == {(v,) for v in engine.db.graph.extent("B")}


class TestLimit:
    def test_limit_truncates(self, engine):
        full = engine.match("B -> C")
        limited = list(engine.match_iter("B -> C", limit=3))
        assert len(limited) == min(3, len(full))
        assert set(limited) <= full.as_set()

    def test_limit_zero(self, engine):
        assert list(engine.match_iter("B -> C", limit=0)) == []

    def test_limit_larger_than_result(self, engine):
        full = engine.match("A -> C, C -> D")
        rows = list(engine.match_iter("A -> C, C -> D", limit=10**9))
        assert set(rows) == full.as_set()

    def test_limit_stops_upstream_work(self):
        """A limit-1 probe over a huge-result pattern must be far cheaper
        than full evaluation — measured in logical page reads, on DPS's
        left-deep plan (the multiway seed builds its whole W-projection
        before its first row, so ``auto`` saves less)."""
        graph = anti_correlated_star(
            n_hub=3000, fanout=15, overlap=0.05,
            branch_labels=("B", "C"), pool_per_branch=300, seed=3,
        )
        engine = GraphEngine(graph)
        engine.db.reset_counters()
        first = next(iter(engine.match_iter(
            "a:A -> b:B, a -> c:C", optimizer="dps", limit=1,
        )))
        probe_io = engine.db.stats.logical_reads
        assert len(first) == 3
        engine.db.reset_counters()
        full = engine.match("a:A -> b:B, a -> c:C", optimizer="dps")
        full_io = engine.db.stats.logical_reads
        assert len(full) > 1000
        assert probe_io * 10 < full_io

    def test_limit_one_pulls_a_bounded_number_of_rows(self):
        """LIMIT pushdown is row-at-a-time: with a >=10k-row intermediate
        in the plan, ``limit=1`` drags only a handful of rows through
        every upstream operator (a block-at-a-time operator would pull a
        whole block before emitting anything)."""
        graph = DiGraph()
        sources = [graph.add_node("A") for _ in range(120)]
        hub = graph.add_node("H")
        targets = [graph.add_node("B") for _ in range(120)]
        graph.add_edges((a, hub) for a in sources)
        graph.add_edges((hub, b) for b in targets)
        graph.add_edges((b, graph.add_node("C")) for b in targets)
        db = GraphEngine(graph).db
        plan = Plan(
            parse_pattern("a:A -> b:B, b -> c:C"),
            [
                SeedJoin(("a", "b")),  # 120 x 120 pairs through the hub
                FilterStep(((("b", "c"), Side.OUT),)),
                FetchStep(("b", "c"), Side.OUT),
            ],
        )
        full = execute_plan(db, plan)
        assert full.metrics.operators[0].rows_out >= 10_000

        stream = execute_plan_streaming(db, plan, limit=1)
        assert len(list(stream)) == 1
        depth = len(stream.metrics.operators)
        for op in stream.metrics.operators:
            assert op.rows_in <= 4 * depth, op

    def test_stream_is_lazy_before_iteration(self, engine):
        engine.db.reset_counters()
        iterator = engine.match_iter("A -> C, C -> D")
        # building the generator does not execute the query
        assert engine.db.stats.logical_reads < 50
        list(iterator)
        assert engine.db.stats.logical_reads > 0


class TestFrameBudget:
    """Interpreter frames per result row, counted — not timed.

    A row is born in C, in the ``zip`` the last Fetch yields per *source*
    row, already in declaration order: streaming, the only frame it
    passes through is the driver's one bounded generator; collected by
    ``match``, none; materialising, the spill's arity check, the row
    sizer and the heap-file scan.  What
    is left above that is per source row (P1 expands 64 rows 40 ways, T1
    320) and pipeline set-up.  A per-row generator put back anywhere
    costs one more frame on every row and fails this deterministically.
    """

    SIDE, FAN = 8, 40

    @pytest.fixture(scope="class")
    def hub_engine(self, hub_graph):
        return GraphEngine(hub_graph(self.SIDE, C=self.FAN, D=self.FAN))

    @staticmethod
    def calls_during(run):
        calls = 0

        def profiler(frame, event, arg):
            nonlocal calls
            if event == "call":
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(profiler)
        try:
            rows = run()
        finally:
            sys.setprofile(previous)
        return calls, rows

    #: streaming frames per row; measured 2.77 and 1.11, and one
    #: per-row generator anywhere adds 1.0
    BUDGET = {"a:A -> b:B, b -> c:C": 3, "b:B -> c:C, b -> d:D": 1.5}
    #: ``match`` frames per row, plan cached: measured 0.24 and 0.08
    #: (0.26 and 0.09 sanitized) — its drain appends in C, so what is
    #: left is per source row and set-up
    MATCH_BUDGET = {"a:A -> b:B, b -> c:C": 0.5, "b:B -> c:C, b -> d:D": 0.25}

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("a:A -> b:B, b -> c:C", SIDE * SIDE * FAN),   # P1: a path
            ("b:B -> c:C, b -> d:D", SIDE * FAN * FAN),    # T1: a tree
        ],
    )
    def test_frames_per_result_row(self, hub_engine, text, expected):
        budget = self.BUDGET[text]
        db = hub_engine.db
        plan = hub_engine.plan(text, optimizer="dps").plan
        calls, rows = self.calls_during(
            lambda: list(execute_plan_streaming(db, plan))
        )
        assert len(rows) == expected
        assert calls / expected <= budget, "streaming: a per-row frame is back"
        calls, result = self.calls_during(
            lambda: hub_engine.match(text, optimizer="dps")
        )
        assert len(result.rows) == expected
        assert calls / expected <= self.MATCH_BUDGET[text], (
            "match: a per-row frame is back"
        )
        if sanitize_enabled():
            return  # armed, every spilled row is re-measured: frames by design
        calls, result = self.calls_during(lambda: execute_plan(db, plan))
        assert len(result.rows) == expected
        # measured 3.63 and 3.28
        assert calls / expected <= 4, "materialising: a per-row wrapper is back"


class TestDrain:
    """``match`` collects through :meth:`StreamingResult.drain`: rows
    appended in C, the deadline checked once per ``CHUNK`` rows."""

    SIDE, FAN = 8, 40
    TEXT = "a:A -> b:B, b -> c:C"  # 2,560 rows: over two chunks

    @pytest.fixture(scope="class")
    def engines(self, hub_graph, tmp_path_factory):
        live = GraphEngine(hub_graph(self.SIDE, C=self.FAN))
        path = str(tmp_path_factory.mktemp("drain") / "hub.snap")
        save_database(live.db, path)
        return {"live": live, "snapshot": GraphEngine.from_snapshot(path)}

    @pytest.mark.parametrize("tier", ("live", "snapshot"))
    def test_deadline_fires_at_the_first_chunk_check(
        self, monkeypatch, engines, tier
    ):
        engine = engines[tier]
        full = engine.match(self.TEXT).rows
        assert len(full) > 2 * CHUNK
        stream = engine.match_iter(self.TEXT)
        closed_after_one_chunk = [next(stream) for _ in range(CHUNK)]
        stream.close()
        # a clock that advances one second per reading, against a 1.5 s
        # deadline: the check before the first pull reads 1 (in time),
        # the first chunk check reads 2 (expired) — no timing luck
        ticks = count()
        monkeypatch.setattr(drivers, "perf_counter", lambda: float(next(ticks)))
        result = engine.match(self.TEXT, timeout=1.5)
        assert result.rows == full[:CHUNK] == closed_after_one_chunk
        metrics = result.metrics
        assert metrics.truncated and metrics.stop_reason == "timeout"
        assert metrics.result_rows == CHUNK
        # flushed: final the moment match returned, and exactly what a
        # stream closed after the same rows booked
        at_return = op_counters(metrics)
        gc.collect()
        assert op_counters(metrics) == at_return == op_counters(stream.metrics)
        assert metrics.operators[-1].rows_out == CHUNK

    @pytest.mark.parametrize("tier", ("live", "snapshot"))
    def test_row_limit_counts_the_rows_appended(self, monkeypatch, engines, tier):
        engine = engines[tier]
        streams = []
        run = engine_module.execute_plan_streaming

        def spy(*args, **kwargs):
            streams.append(run(*args, **kwargs))
            return streams[-1]

        monkeypatch.setattr(engine_module, "execute_plan_streaming", spy)
        budget = CHUNK + CHUNK // 2  # crossed by the last Fetch
        with pytest.raises(RowLimitExceeded) as collected:
            engine.match(self.TEXT, row_limit=budget)
        appended = []
        with pytest.raises(RowLimitExceeded) as iterated:
            for row in engine.match_iter(self.TEXT, row_limit=budget):
                appended.append(row)
        assert str(collected.value) == str(iterated.value)
        drained, stepped = streams
        assert len(appended) == budget
        assert drained.metrics.result_rows == stepped.metrics.result_rows == budget
        assert op_counters(drained.metrics) == op_counters(stepped.metrics)
        assert not drained.metrics.truncated


class TestNothingToProject:
    """Rows travel in pattern declaration order, so the last operator's
    rows are the result rows — in the order they always came in."""

    #: SHA-256 (first 16 hex digits) over ``repr(match(...).rows)`` under
    #: dp, dps and wcoj in turn, generated on commit 4800f44 — the last
    #: one that projected.  ``reference_executor`` compares row *sets*;
    #: this is what pins row order and column order.  When these were
    #: generated, ``wcoj`` planned an acyclic text with DPS, so an
    #: acyclic text hashes dp, dps and dps.
    ROWS_IN_ORDER = {
        "P1": "b692ebd430d7d6eb", "P2": "8567cfe1448ee757",
        "P3": "5c85ba4512bd8d24", "P4": "dec620705b85013c",
        "P5": "058a96175a51dc5a", "P6": "533914e9aac2362a",
        "P7": "dc2970f507db9bef", "P8": "6415daf6b60cc87b",
        "P9": "56993a22c5cef965",
        "T1": "88e937e1b02ae406", "T2": "8c0cdcffcea3ebd8",
        "T3": "4a909d57977cf90c", "T4": "dda5f7d726b122b4",
        "T5": "0797a347ed128e63", "T6": "6621ff683804f67b",
        "T7": "d9608a593c6f2ee0", "T8": "843c9956a136ef7c",
        "T9": "5c6be83dea3a0761",
        "Q1": "625277380ad8bfd5", "Q2": "3b596be7acae858c",
        "Q3": "02f950535d42742a", "Q4": "c6b6f0e9193bf5a1",
        "Q5": "3e0ae1f51d0a0fd7",
        "triangle": "88c3548db9c6b659", "diamond": "0bc4710ec45c2033",
        "clique4": "f1893ae5d4c07ba9", "cycle-tail": "2386d77fb8eb6dc7",
        "cross": "ef819a29f08c15e0", "double-diamond": "1952103a9fcec3df",
    }
    #: The same digest over the multiway plan's rows alone, for the
    #: acyclic texts: generated when ``wcoj`` began to plan them.
    TREE_ROWS_IN_ORDER = {
        "P1": "00cd5a09be6af610", "P2": "33d49fb97bd6cc06",
        "P3": "5283e89f67a721a1", "P4": "564ec540460c8d9c",
        "P5": "68eed469894d8f2b", "P6": "10b6be6eb9365fae",
        "P7": "78d0848a7d13e855", "P8": "24d2e44ee0ccf0db",
        "P9": "62daf80a1afebc4b",
        "T1": "d093d75b9ddf7d41", "T2": "738d9132e343e96d",
        "T3": "32ad2a29f756a492", "T4": "dc00b63289a58551",
        "T5": "a0f167f9bd00656e", "T6": "5cbc9ee7417a6920",
        "T7": "e3a6e4f9c10fcaa2", "T8": "29fa2462cb6ad0d5",
        "T9": "a82c0c158437c55c",
        "Q2": "6109bb3f7d0cd827", "Q5": "87461dcc48d6445e",
    }
    OPTIMIZERS = ("dp", "dps", "wcoj")

    @pytest.fixture(scope="class")
    def patterns(self, figure4_workload, cyclic_workload):
        return {**figure4_workload, **cyclic_workload}

    def test_every_layout_is_in_declaration_order(self, xmark_engine, patterns):
        assert len(patterns) >= 20
        for name, pattern in patterns.items():
            declared = tuple(pattern.variables)
            for optimizer in self.OPTIMIZERS:
                plan = xmark_engine.plan(pattern, optimizer=optimizer).plan
                ctx = ExecutionContext(db=xmark_engine.db, pattern=pattern)
                layouts = [op.layout for op in build_pipeline(ctx, plan)]
                for layout in layouts:
                    bound = set(layout.variables)
                    assert layout.variables == tuple(
                        v for v in declared if v in bound
                    ), (name, optimizer)
                last = layouts[-1]
                assert (last.variables, last.pending) == (declared, ())

    def test_rows_come_in_the_order_they_always_did(self, xmark_engine, patterns):
        assert set(patterns) == set(self.ROWS_IN_ORDER)
        for name, pattern in patterns.items():
            digest = hashlib.sha256()
            third = "wcoj" if pattern.is_cyclic() else "dps"
            for optimizer in ("dp", "dps", third):
                rows = xmark_engine.match(pattern, optimizer=optimizer).rows
                digest.update(repr(rows).encode())
            assert digest.hexdigest()[:16] == self.ROWS_IN_ORDER[name], name

    def test_multiway_rows_on_trees_come_in_their_pinned_order(
        self, xmark_engine, patterns
    ):
        acyclic = {n: p for n, p in patterns.items() if not p.is_cyclic()}
        assert set(acyclic) == set(self.TREE_ROWS_IN_ORDER)
        for name, pattern in acyclic.items():
            rows = xmark_engine.match(pattern, optimizer="wcoj").rows
            digest = hashlib.sha256(repr(rows).encode()).hexdigest()
            assert digest[:16] == self.TREE_ROWS_IN_ORDER[name], name


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=16),
    density=st.floats(min_value=0.05, max_value=0.25),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_streaming_equals_materialized(n, density, seed):
    g = random_digraph(n, density, seed=seed, alphabet="ABC")
    assume(all(g.extent(label) for label in "ABC"))
    engine = GraphEngine(g)
    for optimizer in ("dp", "dps"):
        optimized = engine.plan("A -> B, B -> C, A -> C", optimizer=optimizer)
        materialized = execute_plan(engine.db, optimized.plan).as_set()
        streamed = set(execute_plan_streaming(engine.db, optimized.plan))
        assert streamed == materialized
