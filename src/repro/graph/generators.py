"""Random graph generators used by tests, benchmarks and examples.

All generators take an explicit :class:`random.Random` seed so that every
test and benchmark run is reproducible.  The XMark-like document generator
(the paper's actual evaluation data) lives in :mod:`repro.graph.xmark`;
the generators here cover the supporting cast: random digraphs and DAGs for
property tests, layered DAGs that stress TwigStackD's density sensitivity,
and small labeled supply-chain-style graphs for the examples.
"""

from __future__ import annotations

import random
import string
from typing import List, Optional, Sequence

from .digraph import DiGraph

DEFAULT_ALPHABET = tuple(string.ascii_uppercase[:5])  # A..E, like Figure 1


def _rng(seed: Optional[int]) -> random.Random:
    return random.Random(seed)


def random_digraph(
    n: int,
    edge_prob: float = 0.05,
    alphabet: Sequence[str] = DEFAULT_ALPHABET,
    seed: Optional[int] = None,
) -> DiGraph:
    """G(n, p) directed graph (no self loops) with uniform random labels."""
    rng = _rng(seed)
    graph = DiGraph()
    graph.add_nodes(rng.choice(alphabet) for _ in range(n))
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < edge_prob:
                graph.add_edge(u, v)
    return graph


def random_dag(
    n: int,
    edge_prob: float = 0.1,
    alphabet: Sequence[str] = DEFAULT_ALPHABET,
    seed: Optional[int] = None,
) -> DiGraph:
    """Random DAG: edges only go from lower to higher node id."""
    rng = _rng(seed)
    graph = DiGraph()
    graph.add_nodes(rng.choice(alphabet) for _ in range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                graph.add_edge(u, v)
    return graph


def random_tree(
    n: int,
    alphabet: Sequence[str] = DEFAULT_ALPHABET,
    max_children: int = 4,
    seed: Optional[int] = None,
) -> DiGraph:
    """Rooted tree with edges pointing from parent to child.

    Node 0 is the root; each later node attaches to a uniformly random
    earlier node that still has child capacity.
    """
    rng = _rng(seed)
    graph = DiGraph()
    if n <= 0:
        return graph
    graph.add_node(rng.choice(alphabet))
    open_parents = [0]
    child_count = {0: 0}
    for _ in range(1, n):
        parent = rng.choice(open_parents)
        node = graph.add_node(rng.choice(alphabet))
        graph.add_edge(parent, node)
        child_count[node] = 0
        open_parents.append(node)
        child_count[parent] += 1
        if child_count[parent] >= max_children:
            open_parents.remove(parent)
    return graph


def layered_dag(
    layers: int,
    width: int,
    edge_prob: float = 0.3,
    alphabet: Sequence[str] = DEFAULT_ALPHABET,
    seed: Optional[int] = None,
) -> DiGraph:
    """A layered DAG: edges go from layer i to layer i+1 with given density.

    Dense layered DAGs are the regime in which TwigStackD "degrades
    noticeably" (paper Section 5.1); Figure 5-style experiments use these
    alongside XMark data to exercise that behaviour.
    """
    rng = _rng(seed)
    graph = DiGraph()
    layer_nodes: List[List[int]] = []
    for _ in range(layers):
        nodes = [graph.add_node(rng.choice(alphabet)) for _ in range(width)]
        layer_nodes.append(nodes)
    for i in range(layers - 1):
        for u in layer_nodes[i]:
            for v in layer_nodes[i + 1]:
                if rng.random() < edge_prob:
                    graph.add_edge(u, v)
    return graph


def anti_correlated_star(
    n_hub: int = 2000,
    fanout: int = 15,
    overlap: float = 0.02,
    branch_labels: Sequence[str] = ("B", "C"),
    pool_per_branch: int = 400,
    hub_label: str = "A",
    seed: Optional[int] = None,
) -> DiGraph:
    """Hub nodes whose branch reachabilities are *anti-correlated*.

    Each hub (label ``hub_label``) connects, with ``fanout`` edges, into
    the pool of exactly **one** branch label — except an ``overlap``
    fraction of hubs that connect into *every* branch.  Consequently each
    single condition ``A -> X_i`` has survival ≈ 1/len(branches) +
    overlap (individually unselective), while the conjunction over all
    branches has survival ≈ ``overlap`` (tiny).

    This is the regime where interleaved R-semijoins (DPS) structurally
    dominate R-join-only plans (DP): DP's first move must materialize a
    full two-table R-join (≈ n_hub·fanout/len(branches) tuples), whereas
    DPS may seed with a scan of the hub table plus one shared Filter that
    cuts it to ≈ overlap·n_hub rows before any Fetch expands anything.
    Real graphs show the same shape whenever entity neighborhoods are
    segregated (suppliers serve one region, papers cite one field).
    """
    rng = _rng(seed)
    graph = DiGraph()
    hubs = [graph.add_node(hub_label) for _ in range(n_hub)]
    pools = {
        label: [graph.add_node(label) for _ in range(pool_per_branch)]
        for label in branch_labels
    }
    for hub in hubs:
        if rng.random() < overlap:
            chosen = list(branch_labels)
        else:
            chosen = [rng.choice(branch_labels)]
        for label in chosen:
            for target in rng.sample(pools[label], min(fanout, pool_per_branch)):
                graph.add_edge(hub, target)
    return graph


def diamond_blowup(
    n_anchor: int = 300,
    branch_fanout: int = 40,
    closers: int = 2,
    seed: Optional[int] = None,
) -> DiGraph:
    """Per-anchor diamond instances whose left-deep joins must blow up.

    For each anchor ``a`` (label ``A``) the generator emits one ``b``
    (``B``, via ``a -> b``), one sink ``d`` (``D``, via ``b -> d``) and a
    private pool of ``C`` nodes: ``branch_fanout`` reached from ``a``,
    ``branch_fanout`` reaching ``d``, with only ``closers`` nodes in both
    sets (these also get a ``b -> c`` edge so triangle patterns stay
    non-empty).  On the diamond query ``A->B, A->C, B->D, C->D`` every
    left-deep order must bind ``C`` by expanding one full branch —
    ``out(a) ∩ C`` or ``in(d) ∩ C``, both of size ``branch_fanout`` — and
    filter with the remaining condition, materializing
    ``n_anchor * branch_fanout`` intermediate rows; a multiway intersect
    binds ``C`` as the ``closers``-sized intersection of the two branches
    directly.  The ``branch_fanout / closers`` ratio is the knob for how
    badly binary plans lose.

    Note the triangle is *not* a useful stress shape under R-join
    semantics: ``A ~> B`` and ``B ~> C`` already imply the closing edge
    ``A ~> C`` by transitivity of reachability, so its cycle never
    filters.  The diamond is the smallest cycle whose closing condition
    is independent of the path conditions.
    """
    rng = _rng(seed)
    graph = DiGraph()
    for _ in range(n_anchor):
        a = graph.add_node("A")
        b = graph.add_node("B")
        d = graph.add_node("D")
        graph.add_edge(a, b)
        graph.add_edge(b, d)
        shared = [graph.add_node("C") for _ in range(closers)]
        for c in shared:
            graph.add_edge(a, c)
            graph.add_edge(b, c)
            graph.add_edge(c, d)
        for _ in range(branch_fanout - closers):
            c = graph.add_node("C")
            graph.add_edge(a, c)
        for _ in range(branch_fanout - closers):
            c = graph.add_node("C")
            graph.add_edge(c, d)
    # a dash of label noise so the catalog's extents are not all equal
    for _ in range(rng.randint(0, n_anchor // 10)):
        graph.add_node("E")
    return graph


def figure1_graph() -> DiGraph:
    """The running example of the paper — Figure 1(a).

    A 5-label graph (A, B, C, D, E) reconstructed from the facts stated in
    the text: the base tables of Figure 2(a), the 2-hop example
    ``S({b3, b4}, c2, {e2})``, and the match ``(a0, b0, c1, d2, e1)``.
    Exact edge placement between those constraints is not fully determined
    by the paper, so this graph is an instance *consistent with every fact
    the text states*; tests assert those facts, not an exact edge list.
    """
    graph = DiGraph()
    labels = {}
    for name in (
        "a0",
        "b0", "b1", "b2", "b3", "b4", "b5", "b6",
        "c0", "c1", "c2", "c3",
        "d0", "d1", "d2", "d3", "d4", "d5",
        "e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7",
    ):
        labels[name] = graph.add_node(name[0].upper())

    def edge(a: str, b: str) -> None:
        graph.add_edge(labels[a], labels[b])

    # a0 reaches c0 and c3 (per out(a0) = {c0, c3}); through c0/c3 it reaches
    # the d and e nodes whose `in` sets contain a0 in Figure 2(a).
    edge("a0", "b2")       # a0 -> b2 (out(b2) includes c1; in(b2) = {a0})
    edge("a0", "b3")
    edge("a0", "b4")
    edge("a0", "b5")
    edge("a0", "b6")
    edge("a0", "c0")
    edge("b0", "c1")
    edge("b1", "c2")       # b1 in F-cluster of c2? (b1 out = {c2})
    edge("b2", "c1")
    edge("b3", "c2")
    edge("b4", "c2")
    edge("b5", "c3")
    edge("b6", "c3")
    edge("c0", "d0")
    edge("c0", "d1")
    edge("c0", "e0")
    edge("c1", "d2")
    edge("c1", "d3")
    edge("c1", "e7")
    edge("c2", "e2")
    edge("c3", "d4")
    edge("c3", "d5")
    edge("c3", "e3")
    edge("d2", "e1")
    edge("e4", "e5")
    edge("e5", "e6")
    return graph
