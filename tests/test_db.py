"""Tests for the graph database: base tables, join index, W-table, catalog."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.db.database import GraphDatabase
from repro.graph.generators import figure1_graph, random_digraph
from repro.graph.traversal import TransitiveClosure


@pytest.fixture(scope="module")
def fig1_db():
    return GraphDatabase(figure1_graph())


class TestBaseTables:
    def test_one_table_per_label(self, fig1_db):
        assert fig1_db.labels() == ("A", "B", "C", "D", "E")
        assert fig1_db.base_table("B").columns == ("B", "B_in", "B_out")

    def test_table_rows_cover_extent(self, fig1_db):
        for label in fig1_db.labels():
            extent = fig1_db.graph.extent(label)
            assert len(fig1_db.base_table(label)) == len(extent)
            stored = {row[0] for row in fig1_db.base_table(label).scan()}
            assert stored == set(extent)

    def test_unknown_label_raises(self, fig1_db):
        with pytest.raises(KeyError):
            fig1_db.base_table("Z")

    def test_compact_codes_exclude_self(self, fig1_db):
        for row in fig1_db.base_table("C").scan():
            node, in_code, out_code = row
            assert node not in in_code
            assert node not in out_code

    def test_code_accessors_re_add_self(self, fig1_db):
        node = fig1_db.graph.extent("C")[0]
        assert node in fig1_db.in_code(node)
        assert node in fig1_db.out_code(node)

    def test_mismatched_labeling_rejected(self):
        from repro.labeling.twohop import build_two_hop

        g1 = random_digraph(5, 0.2, seed=1)
        g2 = random_digraph (9, 0.2, seed=1)
        with pytest.raises(ValueError):
            GraphDatabase(g2, labeling=build_two_hop(g1))


class TestReachabilityViaCodes:
    def test_reaches_matches_bfs(self):
        g = random_digraph(40, 0.07, seed=21)
        db = GraphDatabase(g)
        closure = TransitiveClosure(g)
        for u in g.nodes():
            for v in g.nodes():
                assert db.reaches(u, v) == closure.reaches(u, v)

    def test_code_cache_hits_on_reuse(self):
        g = random_digraph(10, 0.2, seed=2)
        db = GraphDatabase(g)
        db.out_code(0)
        misses = db.code_cache.misses
        db.out_code(0)
        assert db.code_cache.hits >= 1
        assert db.code_cache.misses == misses


class TestJoinIndex:
    def test_wtable_entries_have_nonempty_subclusters(self, fig1_db):
        index = fig1_db.join_index
        for x_label, y_label in index.wtable_pairs():
            for center in index.centers(x_label, y_label):
                assert index.get_f(center, x_label)
                assert index.get_t(center, y_label)

    def test_cluster_pairs_are_reachable(self, fig1_db):
        """Soundness: every F x T pair via any center is a real pair."""
        closure = TransitiveClosure(fig1_db.graph)
        index = fig1_db.join_index
        for x_label, y_label in index.wtable_pairs():
            for center in index.centers(x_label, y_label):
                for u in index.get_f(center, x_label):
                    for v in index.get_t(center, y_label):
                        assert closure.reaches(u, v)

    def test_index_covers_all_reachable_label_pairs(self, fig1_db):
        """Completeness: every reachable (x, y) pair appears under some
        center of W(label(x), label(y))."""
        g = fig1_db.graph
        closure = TransitiveClosure(g)
        index = fig1_db.join_index
        for u in g.nodes():
            for v in g.nodes():
                if not closure.reaches(u, v):
                    continue
                x_label, y_label = g.label(u), g.label(v)
                found = any(
                    u in index.get_f(w, x_label) and v in index.get_t(w, y_label)
                    for w in index.centers(x_label, y_label)
                )
                assert found, f"pair ({u},{v}) not covered by any center"

    def test_get_f_unknown_center(self, fig1_db):
        assert fig1_db.join_index.get_f(10**9, "A") == ()

    def test_get_centers_is_eq6(self, fig1_db):
        """getCenters(x, X, Y) = out(x) ∩ W(X, Y)."""
        g = fig1_db.graph
        for node in g.extent("B"):
            expected = fig1_db.out_code(node) & frozenset(
                fig1_db.join_index.centers("B", "E")
            )
            assert fig1_db.get_centers(node, "B", "E") == expected


class TestCatalog:
    def test_extent_sizes(self, fig1_db):
        catalog = fig1_db.catalog
        assert catalog.extent_size("A") == 1
        assert catalog.extent_size("E") == 8
        assert catalog.extent_size("missing") == 0

    def test_join_size_is_upper_bound_on_truth(self, fig1_db):
        """The center-sum estimate can only over-count (duplicates), and
        is capped by the Cartesian product."""
        closure = TransitiveClosure(fig1_db.graph)
        g = fig1_db.graph
        for x_label in g.alphabet():
            for y_label in g.alphabet():
                truth = sum(
                    1
                    for u in g.extent(x_label)
                    for v in g.extent(y_label)
                    if closure.reaches(u, v)
                )
                estimate = fig1_db.catalog.join_size(x_label, y_label)
                cap = len(g.extent(x_label)) * len(g.extent(y_label))
                assert truth <= estimate <= cap

    def test_selectivity_in_unit_range(self, fig1_db):
        for x_label in "ABCDE":
            for y_label in "ABCDE":
                s = fig1_db.catalog.join_selectivity(x_label, y_label)
                assert 0.0 <= s <= 1.0

    def test_survival_at_most_one(self, fig1_db):
        assert fig1_db.catalog.semijoin_survival("A", "C") <= 1.0


@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=18),
    density=st.floats(min_value=0.05, max_value=0.3),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_join_index_sound_and_complete(n, density, seed):
    g = random_digraph(n, density, seed=seed)
    db = GraphDatabase(g)
    closure = TransitiveClosure(g)
    index = db.join_index
    # soundness + completeness of the cluster join machinery
    for u in g.nodes():
        for v in g.nodes():
            x_label, y_label = g.label(u), g.label(v)
            covered = any(
                u in index.get_f(w, x_label) and v in index.get_t(w, y_label)
                for w in index.centers(x_label, y_label)
            )
            assert covered == closure.reaches(u, v)
