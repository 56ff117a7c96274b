"""White-box tests for TwigStackD's pools, links and metrics."""

from repro.baselines.naive import NaiveMatcher
from repro.baselines.twigstackd import TwigStackD
from repro.graph.digraph import DiGraph
from repro.graph.generators import layered_dag, random_dag
from repro.query.pattern import GraphPattern
from repro.query.parser import parse_pattern


def diamond_dag():
    """a -> {b1, b2} -> c, plus b3 with no c."""
    g = DiGraph()
    a = g.add_node("A")
    b1 = g.add_node("B")
    b2 = g.add_node("B")
    b3 = g.add_node("B")
    c = g.add_node("C")
    g.add_edges([(a, b1), (a, b2), (a, b3), (b1, c), (b2, c)])
    return g, (a, b1, b2, b3, c)


class TestPoolsAndLinks:
    def test_unmatchable_candidates_not_buffered(self):
        g, (a, b1, b2, b3, c) = diamond_dag()
        tsd = TwigStackD(g)
        pattern = parse_pattern("A -> B -> C")
        rows, metrics = tsd.match(pattern)
        # b3 reaches no C, so it must not be buffered as a B candidate
        assert set(rows) == {(a, b1, c), (a, b2, c)}
        # buffered: c (C pool), b1, b2 (B pool), a (A pool) = 4 nodes
        assert metrics.buffered_nodes == 4

    def test_link_count_counts_partners(self):
        g, _ = diamond_dag()
        tsd = TwigStackD(g)
        _, metrics = tsd.match(parse_pattern("A -> B -> C"))
        # links: b1->c, b2->c, a->{b1,b2} = 4 partner references
        assert metrics.link_count == 4

    def test_branching_tree_pattern(self):
        g = DiGraph()
        a = g.add_node("A")
        b = g.add_node("B")
        c = g.add_node("C")
        g.add_edges([(a, b), (a, c)])
        tsd = TwigStackD(g)
        pattern = GraphPattern.build(
            {"A": "A", "B": "B", "C": "C"}, [("A", "B"), ("A", "C")]
        )
        rows, _ = tsd.match(pattern)
        assert rows == [(a, b, c)]

    def test_empty_pool_gives_empty_result(self):
        g = DiGraph()
        g.add_node("A")
        g.add_node("B")  # no edges: A cannot reach B
        tsd = TwigStackD(g)
        rows, metrics = tsd.match(parse_pattern("A -> B"))
        assert rows == []
        assert metrics.result_rows == 0

    def test_result_order_independent_of_metric_noise(self):
        g = random_dag(30, 0.12, seed=11)
        tsd = TwigStackD(g)
        pattern = parse_pattern("A -> B -> C")
        first, _ = tsd.match(pattern)
        second, _ = tsd.match(pattern)
        assert first == second  # deterministic

    def test_closure_probes_reported(self):
        g = layered_dag(4, 6, edge_prob=0.7, alphabet="ABCD", seed=3)
        tsd = TwigStackD(g)
        _, metrics = tsd.match(parse_pattern("A -> B -> C"))
        assert metrics.closure_probes >= 0
        assert metrics.elapsed_seconds > 0

    def test_deep_path_pattern_against_naive(self):
        g = random_dag(40, 0.15, seed=21, alphabet="ABCDE")
        tsd = TwigStackD(g)
        pattern = parse_pattern("A -> B -> C -> D -> E")
        expected = NaiveMatcher(g).match_set(pattern)
        rows, _ = tsd.match(pattern)
        assert set(rows) == expected

    def test_shared_sspi_reused_across_queries(self):
        g = random_dag(25, 0.15, seed=2)
        tsd = TwigStackD(g)
        tsd.match(parse_pattern("A -> B"))
        probes_after_first = tsd.sspi.closure_probes
        tsd.match(parse_pattern("A -> B"))
        # memoized closure entries mean fewer/equal new probes on repeat
        assert tsd.sspi.closure_probes - probes_after_first <= probes_after_first
