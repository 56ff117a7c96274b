"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro import GraphEngine
from repro.db.persist import save_database
from repro.graph import generators, xmark
from repro.graph.digraph import DiGraph
from repro.workloads.patterns import PatternFactory

from reference_executor import ReferenceIndex


@pytest.fixture
def figure1():
    """The paper's running-example data graph (Figure 1(a))."""
    return generators.figure1_graph()


@pytest.fixture
def small_dag():
    """A tiny hand-built DAG with known reachability.

    Layout::

        a0 -> b0 -> c0
        a0 -> c1
        b1 -> c0
        c1 -> d0
    """
    g = DiGraph()
    a0 = g.add_node("A")
    b0 = g.add_node("B")
    b1 = g.add_node("B")
    c0 = g.add_node("C")
    c1 = g.add_node("C")
    d0 = g.add_node("D")
    g.add_edges([(a0, b0), (b0, c0), (a0, c1), (b1, c0), (c1, d0)])
    return g


@pytest.fixture
def cyclic_graph():
    """A digraph with a 3-cycle plus a tail: 0->1->2->0, 2->3."""
    g = DiGraph()
    for label in ("A", "B", "C", "D"):
        g.add_node(label)
    g.add_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
    return g


@pytest.fixture(scope="session")
def hub_graph():
    """Builder of ``side`` A-nodes -> one hub -> ``side`` B-nodes, every
    b with ``fans[label]`` children of its own per label: ``side * side``
    (a, b) pairs and Fetch expansions exactly ``fans[label]`` rows wide."""

    def build(side: int, **fans: int) -> DiGraph:
        graph = DiGraph()
        sources = [graph.add_node("A") for _ in range(side)]
        hub = graph.add_node("H")
        mids = [graph.add_node("B") for _ in range(side)]
        graph.add_edges((a, hub) for a in sources)
        graph.add_edges((hub, b) for b in mids)
        for b in mids:
            for label, fan in fans.items():
                graph.add_edges((b, graph.add_node(label)) for _ in range(fan))
        return graph

    return build


def brute_force_reach(graph: DiGraph):
    """Dict of all reachable pairs via repeated BFS (ground truth)."""
    from repro.graph.traversal import reachable_set

    return {u: reachable_set(graph, u) for u in graph.nodes()}


# ----------------------------------------------------------------------
# the differential suites' shared XMark stack (built once per session)
# ----------------------------------------------------------------------
@pytest.fixture(scope="session")
def xmark_engine():
    """Live-tier engine over the small XMark graph every differential
    suite runs on.  Shared: tests must not rebuild its index."""
    data = xmark.generate(factor=0.1, entity_budget=600, seed=7)
    return GraphEngine(data.graph)


@pytest.fixture(scope="session")
def xmark_snap_path(xmark_engine, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("xmark") / "db.snap")
    save_database(xmark_engine.db, path)
    return path


@pytest.fixture(scope="session")
def xmark_snapshot_engine(xmark_snap_path):
    """Snapshot-tier engine over the same graph."""
    return GraphEngine.from_snapshot(xmark_snap_path)


@pytest.fixture(scope="session")
def reference_index(xmark_engine):
    """The frozenset oracle's clusters + W-table for the XMark graph."""
    return ReferenceIndex(xmark_engine.db.graph, xmark_engine.db.labeling)


@pytest.fixture(scope="session")
def figure4_workload(xmark_engine):
    """Every Figure 4 family: 9 paths, 9 trees, 5 four-variable graphs."""
    factory = PatternFactory(xmark_engine.db.catalog, seed=11)
    patterns = {}
    patterns.update(factory.figure4_paths())
    patterns.update(factory.figure4_trees())
    patterns.update(factory.figure4_queries(4))
    return patterns


@pytest.fixture(scope="session")
def cyclic_workload(xmark_engine):
    """Every ``CYCLIC_SHAPES`` entry, labeled over XMark."""
    return PatternFactory(xmark_engine.db.catalog, seed=11).cyclic_patterns()
