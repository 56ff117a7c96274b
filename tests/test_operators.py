"""Tests for the physical operators: HPSJ, Filter, Fetch, Selection."""

import pytest

from repro.baselines.naive import NaiveMatcher
from repro.db.database import GraphDatabase
from repro.graph.generators import figure1_graph
from repro.graph.traversal import TransitiveClosure
from repro.query.algebra import Side
from repro.query.pattern import GraphPattern
from repro.query.physical import (
    ExecutionContext,
    FetchOp,
    SeedJoinOp,
    SeedScanOp,
    SelectionOp,
    SharedFilterOp,
)


class Run:
    """One physical operator, instantiated directly and drained.

    ``source`` is the upstream :class:`Run`; row-consuming operators
    take its layout as their input schema and its rows as their stream.
    """

    def __init__(self, op_class, db, pattern, *args, source=None):
        ctx = ExecutionContext(db=db, pattern=pattern)
        if source is None:
            op, stream = op_class(ctx, *args), None
        else:
            op, stream = op_class(ctx, source.layout, *args), iter(source.rows)
        self.rows = list(op.rows(stream))
        self.layout = op.layout
        self.metrics = op.metrics


@pytest.fixture(scope="module")
def db():
    return GraphDatabase(figure1_graph())


@pytest.fixture(scope="module")
def closure(db):
    return TransitiveClosure(db.graph)


def two_var_pattern(x_label, y_label):
    return GraphPattern.build(
        {x_label: x_label, y_label: y_label}, [(x_label, y_label)]
    )


class TestSeedOperators:
    def test_seed_scan_returns_extent(self, db):
        pattern = GraphPattern.build({"B": "B"}, [])
        table = Run(SeedScanOp, db, pattern, "B")
        rows = {row[0] for row in table.rows}
        assert rows == set(db.graph.extent("B"))
        assert table.metrics.rows_out == len(rows)
        # seeds report rows_in too: the base-table rows examined
        assert table.metrics.rows_in == len(rows)

    def test_hpsj_metrics_invariants(self, db):
        """rows_in counts candidate center-pairs, rows_out the dedup'd join."""
        pattern = two_var_pattern("B", "E")
        table = Run(SeedJoinOp, db, pattern, ("B", "E"))
        assert table.metrics.rows_in >= table.metrics.rows_out > 0
        assert table.metrics.rows_out == len(table.rows)
        assert table.metrics.centers_probed > 0
        assert table.metrics.nodes_fetched > 0

    def test_hpsj_equals_all_reachable_pairs(self, db, closure):
        """Algorithm 1 output == exact reachability join of two extents."""
        for x_label, y_label in [("B", "C"), ("A", "E"), ("C", "D"), ("B", "E")]:
            pattern = two_var_pattern(x_label, y_label)
            table = Run(SeedJoinOp, db, pattern, (x_label, y_label))
            got = {tuple(r[:2]) for r in table.rows}
            expected = {
                (u, v)
                for u in db.graph.extent(x_label)
                for v in db.graph.extent(y_label)
                if closure.reaches(u, v)
            }
            assert got == expected

    def test_hpsj_paper_example_pair(self, db):
        """Section 3.1: (b0, e7) ∈ T_B ⋈ T_E."""
        pattern = two_var_pattern("B", "E")
        table = Run(SeedJoinOp, db, pattern, ("B", "E"))
        pairs = {tuple(r[:2]) for r in table.rows}
        # find b0 (first B node) and e7 (last E node) by construction order
        b0 = db.graph.extent("B")[0]
        e7 = db.graph.extent("E")[-1]
        assert (b0, e7) in pairs

    def test_hpsj_no_duplicates(self, db):
        pattern = two_var_pattern("B", "E")
        table = Run(SeedJoinOp, db, pattern, ("B", "E"))
        rows = [tuple(r) for r in table.rows]
        assert len(rows) == len(set(rows))


class TestFilterFetch:
    def test_filter_never_drops_joinable_rows(self, db, closure):
        """Safety: a row whose node reaches some Y-labeled node survives."""
        pattern = GraphPattern.build(
            {"B": "B", "C": "C", "D": "D"}, [("B", "C"), ("C", "D")]
        )
        seeded = Run(SeedJoinOp, db, pattern, ("B", "C"))
        filtered = Run(
            SharedFilterOp, db, pattern, [(("C", "D"), Side.OUT)], source=seeded
        )
        survivors = {tuple(r[:2]) for r in filtered.rows}
        for row in seeded.rows:
            c_node = row[1]
            joinable = any(
                closure.reaches(c_node, d) for d in db.graph.extent("D")
            )
            assert ((row[0], row[1]) in survivors) == joinable
        assert filtered.metrics.rows_in == len(seeded.rows)

    def test_filter_then_fetch_is_exact_join(self, db, closure):
        """Filter+Fetch == HPSJ+ R-join == true reachability join."""
        pattern = GraphPattern.build(
            {"B": "B", "C": "C", "D": "D"}, [("B", "C"), ("C", "D")]
        )
        seeded = Run(SeedJoinOp, db, pattern, ("B", "C"))
        filtered = Run(
            SharedFilterOp, db, pattern, [(("C", "D"), Side.OUT)], source=seeded
        )
        fetched = Run(FetchOp, db, pattern, ("C", "D"), Side.OUT, source=filtered)
        got = {tuple(r[:3]) for r in fetched.rows}
        expected = set()
        for b, c in ((r[0], r[1]) for r in seeded.rows):
            for d in db.graph.extent("D"):
                if closure.reaches(c, d):
                    expected.add((b, c, d))
        assert got == expected

    def test_reverse_direction_fetch(self, db, closure):
        """Side.IN: temporal holds the *target*, fetch adds the source."""
        pattern = GraphPattern.build(
            {"C": "C", "D": "D", "B": "B"}, [("C", "D"), ("B", "C")]
        )
        seeded = Run(SeedJoinOp, db, pattern, ("C", "D"))
        filtered = Run(
            SharedFilterOp, db, pattern, [(("B", "C"), Side.IN)], source=seeded
        )
        fetched = Run(FetchOp, db, pattern, ("B", "C"), Side.IN, source=filtered)
        got = {(r[2], r[0], r[1]) for r in fetched.rows}
        expected = set()
        for c, d in ((r[0], r[1]) for r in seeded.rows):
            for b in db.graph.extent("B"):
                if closure.reaches(b, c):
                    expected.add((b, c, d))
        assert got == expected

    def test_shared_scan_multi_filter(self, db):
        """Remark 3.1: two semijoins on the same column in one scan equal
        two sequential single filters."""
        pattern = GraphPattern.build(
            {"C": "C", "D": "D", "E": "E", "B": "B"},
            [("B", "C"), ("C", "D"), ("C", "E")],
        )
        seeded = Run(SeedJoinOp, db, pattern, ("B", "C"))
        both = Run(
            SharedFilterOp, db, pattern,
            [(("C", "D"), Side.OUT), (("C", "E"), Side.OUT)],
            source=seeded,
        )
        one = Run(
            SharedFilterOp, db, pattern, [(("C", "D"), Side.OUT)], source=seeded
        )
        two = Run(
            SharedFilterOp, db, pattern, [(("C", "E"), Side.OUT)], source=one
        )
        shared_rows = {tuple(r) for r in both.rows}
        seq_rows = {tuple(r) for r in two.rows}
        assert shared_rows == seq_rows

    def test_shared_scan_rejects_mixed_columns(self, db):
        pattern = GraphPattern.build(
            {"B": "B", "C": "C", "D": "D", "E": "E"},
            [("B", "C"), ("C", "D"), ("D", "E")],
        )
        seeded = Run(SeedJoinOp, db, pattern, ("B", "C"))
        with pytest.raises(ValueError):
            Run(
                SharedFilterOp, db, pattern,
                [(("C", "D"), Side.OUT), (("D", "E"), Side.OUT)],
                source=seeded,
            )

    def test_shared_scan_rejects_mixed_sides(self, db):
        """Remark 3.1: sharing requires all X_i equal or all Y_i equal."""
        pattern = GraphPattern.build(
            {"B": "B", "C": "C", "D": "D"}, [("B", "C"), ("C", "D")]
        )
        seeded = Run(SeedJoinOp, db, pattern, ("B", "C"))
        with pytest.raises(ValueError):
            Run(
                SharedFilterOp, db, pattern,
                [(("C", "D"), Side.OUT), (("B", "C"), Side.IN)],
                source=seeded,
            )

    def test_filter_metrics_invariants(self, db):
        """A Filter can only prune: rows_out <= rows_in, both populated."""
        pattern = GraphPattern.build(
            {"B": "B", "C": "C", "D": "D"}, [("B", "C"), ("C", "D")]
        )
        seeded = Run(SeedJoinOp, db, pattern, ("B", "C"))
        filtered = Run(
            SharedFilterOp, db, pattern, [(("C", "D"), Side.OUT)], source=seeded
        )
        metrics = filtered.metrics
        assert metrics.rows_in == len(seeded.rows)
        assert 0 <= metrics.rows_out <= metrics.rows_in
        assert metrics.rows_out == len(filtered.rows)
        assert metrics.pruned == metrics.rows_in - metrics.rows_out

    def test_fetch_deduplicates_partners(self, db):
        """A partner witnessed by several centers must appear once."""
        pattern = GraphPattern.build(
            {"B": "B", "C": "C", "E": "E"}, [("B", "C"), ("C", "E")]
        )
        seeded = Run(SeedJoinOp, db, pattern, ("B", "C"))
        filtered = Run(
            SharedFilterOp, db, pattern, [(("C", "E"), Side.OUT)], source=seeded
        )
        fetched = Run(FetchOp, db, pattern, ("C", "E"), Side.OUT, source=filtered)
        rows = [tuple(r) for r in fetched.rows]
        assert len(rows) == len(set(rows))


class TestSelection:
    def test_selection_keeps_exactly_reachable(self, db, closure):
        pattern = GraphPattern.build(
            {"B": "B", "C": "C", "E": "E"}, [("B", "C"), ("C", "E"), ("B", "E")]
        )
        seeded = Run(SeedJoinOp, db, pattern, ("B", "C"))
        filtered = Run(
            SharedFilterOp, db, pattern, [(("C", "E"), Side.OUT)], source=seeded
        )
        fetched = Run(FetchOp, db, pattern, ("C", "E"), Side.OUT, source=filtered)
        selected = Run(SelectionOp, db, pattern, ("B", "E"), source=fetched)
        got = {tuple(r[:3]) for r in selected.rows}
        for b, c, e in (tuple(r[:3]) for r in fetched.rows):
            assert ((b, c, e) in got) == closure.reaches(b, e)
        assert selected.metrics.rows_in >= selected.metrics.rows_out


class TestAgainstNaive:
    def test_manual_pipeline_matches_naive(self, db):
        pattern = GraphPattern.build(
            {"A": "A", "C": "C", "D": "D"}, [("A", "C"), ("C", "D")]
        )
        seeded = Run(SeedJoinOp, db, pattern, ("A", "C"))
        filtered = Run(
            SharedFilterOp, db, pattern, [(("C", "D"), Side.OUT)], source=seeded
        )
        fetched = Run(FetchOp, db, pattern, ("C", "D"), Side.OUT, source=filtered)
        got = {tuple(r[:3]) for r in fetched.rows}
        naive = NaiveMatcher(db.graph).match_set(pattern)
        assert got == naive
