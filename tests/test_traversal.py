"""Unit and property tests for traversals and the reachability oracle."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.digraph import DiGraph, GraphError
from repro.graph.generators import random_digraph
from repro.graph.traversal import (
    TransitiveClosure,
    bfs_order,
    is_dag,
    is_reachable,
    reachable_set,
    topological_sort,
)


def _to_networkx(graph: DiGraph) -> nx.DiGraph:
    nxg = nx.DiGraph()
    nxg.add_nodes_from(graph.nodes())
    nxg.add_edges_from(graph.edges())
    return nxg


class TestBFS:
    def test_bfs_order_starts_at_source(self, small_dag):
        order = bfs_order(small_dag, 0)
        assert order[0] == 0
        assert set(order) == {0, 1, 3, 4, 5}

    def test_reachable_set_includes_self(self, small_dag):
        assert 5 in reachable_set(small_dag, 5)
        assert reachable_set(small_dag, 5) == {5}

    def test_is_reachable_matches_reachable_set(self, small_dag):
        for u in small_dag.nodes():
            closure = reachable_set(small_dag, u)
            for v in small_dag.nodes():
                assert is_reachable(small_dag, u, v) == (v in closure)

    def test_reachability_through_cycle(self, cyclic_graph):
        assert is_reachable(cyclic_graph, 0, 3)
        assert is_reachable(cyclic_graph, 2, 1)
        assert not is_reachable(cyclic_graph, 3, 0)


class TestTopologicalSort:
    def test_respects_edges(self, small_dag):
        order = topological_sort(small_dag)
        position = {v: i for i, v in enumerate(order)}
        for u, v in small_dag.edges():
            assert position[u] < position[v]

    def test_raises_on_cycle(self, cyclic_graph):
        with pytest.raises(GraphError):
            topological_sort(cyclic_graph)

    def test_is_dag(self, small_dag, cyclic_graph):
        assert is_dag(small_dag)
        assert not is_dag(cyclic_graph)


class TestTransitiveClosure:
    def test_matches_networkx(self):
        g = random_digraph(40, 0.08, seed=17)
        tc = TransitiveClosure(g)
        nx_closure = nx.transitive_closure(_to_networkx(g), reflexive=True)
        for u in g.nodes():
            for v in g.nodes():
                assert tc.reaches(u, v) == (nx_closure.has_edge(u, v) or u == v)

    def test_pairs_excludes_self(self, small_dag):
        pairs = set(TransitiveClosure(small_dag).pairs())
        assert all(u != v for u, v in pairs)
        assert (0, 3) in pairs


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=25),
    density=st.floats(min_value=0.0, max_value=0.3),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_reachability_consistency(n, density, seed):
    """is_reachable, reachable_set and TransitiveClosure always agree."""
    g = random_digraph(n, density, seed=seed)
    tc = TransitiveClosure(g)
    for u in g.nodes():
        closure = reachable_set(g, u)
        assert closure == tc.successors_closure(u)
        for v in g.nodes():
            assert is_reachable(g, u, v) == (v in closure)
