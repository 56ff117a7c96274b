"""Traversals and a naive reachability oracle.

These are the reference algorithms the rest of the library is validated
against: the 2-hop labeling (:mod:`repro.labeling.twohop`), the interval
codes (:mod:`repro.labeling.interval`) and the full query engine are all
property-tested for agreement with plain BFS reachability computed here.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, List, Set

from .digraph import DiGraph, GraphError


def bfs_order(graph: DiGraph, source: int) -> List[int]:
    """Nodes reachable from *source* (inclusive), in BFS discovery order."""
    seen = bytearray(graph.node_count)
    seen[source] = 1
    order = [source]
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.successors(u):
            if not seen[v]:
                seen[v] = 1
                order.append(v)
                queue.append(v)
    return order


def reachable_set(graph: DiGraph, source: int) -> Set[int]:
    """The set of nodes reachable from *source*, including itself.

    The paper's reachability relation ``u ~> v`` is reflexive in its graph
    codes (``in``/``out`` both contain the node itself after the compaction
    of Example 3.1), so every helper here treats a node as reaching itself.
    """
    return set(bfs_order(graph, source))


def is_reachable(graph: DiGraph, u: int, v: int) -> bool:
    """``u ~> v`` by plain BFS — the ground-truth reachability test."""
    if u == v:
        return True
    seen = bytearray(graph.node_count)
    seen[u] = 1
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for y in graph.successors(x):
            if y == v:
                return True
            if not seen[y]:
                seen[y] = 1
                queue.append(y)
    return False


def topological_sort(graph: DiGraph) -> List[int]:
    """Kahn topological sort; raises :class:`GraphError` on a cycle."""
    n = graph.node_count
    indeg = [graph.in_degree(v) for v in range(n)]
    queue = deque(v for v in range(n) if indeg[v] == 0)
    order: List[int] = []
    while queue:
        u = queue.popleft()
        order.append(u)
        for v in graph.successors(u):
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    if len(order) != n:
        raise GraphError("graph has a cycle; no topological order exists")
    return order


def is_dag(graph: DiGraph) -> bool:
    """True iff the graph has no directed cycle."""
    try:
        topological_sort(graph)
    except GraphError:
        return False
    return True


class TransitiveClosure:
    """Dense transitive closure — the brute-force reachability oracle.

    Builds one BFS per node; O(n * (n + m)) time, O(n^2 / 8) bits of space.
    Only intended for tests and for small ground-truth comparisons; the
    library's production reachability test is the 2-hop labeling.
    """

    def __init__(self, graph: DiGraph) -> None:
        self._n = graph.node_count
        self._rows: List[Set[int]] = [reachable_set(graph, v) for v in graph.nodes()]

    def reaches(self, u: int, v: int) -> bool:
        return v in self._rows[u]

    def successors_closure(self, u: int) -> Set[int]:
        """All nodes reachable from *u* (including *u*)."""
        return self._rows[u]

    def pairs(self) -> Iterator[tuple]:
        """Every reachable ordered pair ``(u, v)`` with ``u != v``."""
        for u in range(self._n):
            for v in self._rows[u]:
                if u != v:
                    yield (u, v)
