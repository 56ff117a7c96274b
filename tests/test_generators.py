"""Tests for the random graph generators and the Figure 1 example graph."""

from repro.graph.generators import (
    figure1_graph,
    layered_dag,
    random_dag,
    random_digraph,
    random_tree,
)
from repro.graph.traversal import is_dag, is_reachable


class TestRandomGenerators:
    def test_random_digraph_deterministic_per_seed(self):
        a = random_digraph(20, 0.1, seed=42)
        b = random_digraph(20, 0.1, seed=42)
        assert list(a.edges()) == list(b.edges())
        assert a.labels() == b.labels()

    def test_random_digraph_different_seeds_differ(self):
        a = random_digraph(20, 0.1, seed=1)
        b = random_digraph(20, 0.1, seed=2)
        assert list(a.edges()) != list(b.edges())

    def test_random_digraph_no_self_loops(self):
        g = random_digraph(15, 0.5, seed=3)
        assert all(u != v for u, v in g.edges())

    def test_random_dag_is_acyclic(self):
        for seed in range(5):
            assert is_dag(random_dag(30, 0.2, seed=seed))

    def test_random_dag_edge_probability_extremes(self):
        assert random_dag(10, 0.0, seed=0).edge_count == 0
        full = random_dag(10, 1.0, seed=0)
        assert full.edge_count == 10 * 9 // 2

    def test_random_tree_shape(self):
        g = random_tree(25, seed=7)
        assert g.node_count == 25
        assert g.edge_count == 24
        assert is_dag(g)
        # every non-root node has exactly one parent
        assert all(g.in_degree(v) == 1 for v in range(1, 25))
        assert g.in_degree(0) == 0

    def test_random_tree_respects_max_children(self):
        g = random_tree(40, max_children=2, seed=9)
        assert all(g.out_degree(v) <= 2 for v in g.nodes())

    def test_layered_dag_edges_cross_adjacent_layers(self):
        g = layered_dag(3, 4, edge_prob=1.0, seed=1)
        assert g.node_count == 12
        assert is_dag(g)
        for u, v in g.edges():
            assert v // 4 == u // 4 + 1  # next layer only

    def test_empty_tree(self):
        assert random_tree(0).node_count == 0


class TestFigure1Graph:
    """The generator must be consistent with facts stated in the paper."""

    def setup_method(self):
        self.g = figure1_graph()
        self.by_name = {}
        counters = {}
        for v in self.g.nodes():
            label = self.g.label(v)
            idx = counters.get(label, 0)
            counters[label] = idx + 1
            self.by_name[f"{label.lower()}{idx}"] = v

    def test_extent_sizes_match_figure2(self):
        assert len(self.g.extent("A")) == 1
        assert len(self.g.extent("B")) == 7
        assert len(self.g.extent("C")) == 4
        assert len(self.g.extent("D")) == 6
        assert len(self.g.extent("E")) == 8

    def test_example_2hop_triple(self):
        """S({b3, b4}, c2, {e2}): b3 ~> c2, b4 ~> c2, c2 ~> e2."""
        n = self.by_name
        assert is_reachable(self.g, n["b3"], n["c2"])
        assert is_reachable(self.g, n["b4"], n["c2"])
        assert is_reachable(self.g, n["c2"], n["e2"])

    def test_paper_match_exists(self):
        """(a0, b0, c1, d2, e1) matches A->C, B->C, C->D, D->E."""
        n = self.by_name
        assert is_reachable(self.g, n["a0"], n["c1"])
        assert is_reachable(self.g, n["b0"], n["c1"])
        assert is_reachable(self.g, n["c1"], n["d2"])
        assert is_reachable(self.g, n["d2"], n["e1"])

    def test_hpsj_example_pair(self):
        """Section 3.1: (b0, e7) appears in T_B ⋈_{B->E} T_E."""
        n = self.by_name
        assert is_reachable(self.g, n["b0"], n["e7"])
