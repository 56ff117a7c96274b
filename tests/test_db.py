"""Tests for the graph database: base tables, join index, W-table, catalog."""

import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.db.catalog import PairStats
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
        assert node in fig1_db.code_run(node, "in")
        assert node in fig1_db.code_run(node, "out")

    def test_mismatched_labeling_rejected(self):
        from repro.labeling.twohop import build_two_hop

        g1 = random_digraph(5, 0.2, seed=1)
        g2 = random_digraph (9, 0.2, seed=1)
        with pytest.raises(ValueError):
            GraphDatabase(g2, labeling=build_two_hop(g1))


def reaches(db, u, v) -> bool:
    """Reachability through stored codes: ``out(u) ∩ in(v) ≠ ∅``."""
    return not set(db.code_run(u, "out")).isdisjoint(db.code_run(v, "in"))


class TestReachabilityViaCodes:
    def test_reaches_matches_bfs(self):
        g = random_digraph(40, 0.07, seed=21)
        db = GraphDatabase(g)
        closure = TransitiveClosure(g)
        for u in g.nodes():
            for v in g.nodes():
                assert reaches(db, u, v) == closure.reaches(u, v)

    def test_code_cache_hits_on_reuse(self):
        g = random_digraph(10, 0.2, seed=2)
        db = GraphDatabase(g)
        db.code_run(0, "out")
        misses = db.code_cache.misses
        db.code_run(0, "out")
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

    def test_subcluster_run_is_get_f_and_get_t(self, fig1_db):
        """The run surface's one-run read equals the paper's getF ("in")
        and getT ("out") for every center x label x side — read label by
        label, so the pinned leaf changes center on every call — and an
        absent center or label reads as ``()``."""
        index = fig1_db.join_index
        leaves = {center: (f_sub, t_sub) for center, f_sub, t_sub in index.cluster_items()}
        for label in fig1_db.labels():
            for center, (f_sub, t_sub) in leaves.items():
                assert fig1_db.subcluster_run(center, label, "in") == index.get_f(
                    center, label) == f_sub.get(label, ())
                assert fig1_db.subcluster_run(center, label, "out") == index.get_t(
                    center, label) == t_sub.get(label, ())
        for side in ("in", "out"):
            assert fig1_db.subcluster_run(10**9, "A", side) == ()
            assert fig1_db.subcluster_run(next(iter(leaves)), "Z", side) == ()

    def test_pinned_leaf_costs_one_probe_per_center(self, fig1_db):
        """A pinned getT after the getF of one center shares its descent;
        every read that is not pinned descends, even to the same center,
        and a pinned read of another center descends too."""
        def probes() -> int:
            return fig1_db.stats.index_lookups.get("rjoin-index", 0)

        first, second = fig1_db.w_run("B", "E")[:2]
        before = probes()
        fig1_db.subcluster_run(first, "B", "in")
        fig1_db.subcluster_run(first, "E", "out", pinned=True)
        assert probes() == before + 1
        fig1_db.subcluster_run(first, "E", "out")
        assert probes() == before + 2
        fig1_db.subcluster_run(second, "E", "out", pinned=True)
        assert probes() == before + 3

    def test_pinned_leaf_is_never_torn_across_threads(self, fig1_db):
        """Threads sharing one database race on the pin: a read may probe
        again, but never answers from another center's leaf."""
        index = fig1_db.join_index
        truth = {center: t_sub for center, _, t_sub in index.cluster_items()}
        reads = [(center, label) for center, t_sub in truth.items() for label in t_sub]
        failures = []

        def body(shift):
            for _ in range(300):
                for center, label in reads[shift:] + reads[:shift]:
                    for pinned in (False, True):  # the second read reuses the pin, if still there
                        run = fig1_db.subcluster_run(center, label, "out", pinned)
                        if run != truth[center][label]:
                            failures.append((center, label))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads between the pin's read and write
        try:
            workers = [
                threading.Thread(target=body, args=(i % 2,), daemon=True) for i in range(6)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []

    def test_get_centers_is_eq6(self, fig1_db):
        """getCenters(x, X, Y) = out(x) ∩ W(X, Y): over the run surface,
        exactly the W-centers whose X-labeled F-subcluster holds x."""
        w_run = fig1_db.w_run("B", "E")
        for node in fig1_db.graph.extent("B"):
            centers = set(fig1_db.code_run(node, "out")) & set(w_run)
            assert centers == {
                w for w in w_run if node in fig1_db.subcluster_run(w, "B", "in")
            }


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

    def test_pair_stats_recount_the_clusters(self, fig1_db):
        """The statistics the index build computes, recounted from the
        labeling's clusters — in the same first-seen order, which the
        workload generator walks ``all_pairs()`` in."""
        graph = fig1_db.graph
        extents = graph.extents()
        recount = {}
        for f_cluster, t_cluster in fig1_db.labeling.clusters().values():
            t_counts = Counter(map(graph.label, t_cluster))
            for x_label, fx in Counter(map(graph.label, f_cluster)).items():
                for y_label, ty in t_counts.items():
                    total, centers, volume = recount.get((x_label, y_label), (0, 0, 0))
                    recount[x_label, y_label] = (total + fx * ty, centers + 1, volume + ty)
        expected = [
            ((x, y), PairStats(min(total, len(extents[x]) * len(extents[y])), centers, volume))
            for (x, y), (total, centers, volume) in recount.items()
        ]
        assert list(fig1_db.catalog.all_pairs().items()) == expected

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
