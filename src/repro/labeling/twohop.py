"""2-hop reachability labeling (the paper's graph codes).

Section 3 of the paper builds everything on a *2-hop cover* [Cohen et al.,
SODA'02]: every node ``v`` gets ``L(v) = (L_in(v), L_out(v))`` such that
``u ~> v`` iff ``L_out(u) ∩ L_in(v) ≠ ∅``.  The cover is a set of triples
``S(U_w, w, V_w)`` — every node in ``U_w`` reaches the *center* ``w`` and
``w`` reaches every node in ``V_w``.  After the compaction of Example 3.1
the *graph code* of node ``x`` is ``in(x) = X_in ∪ {x}`` and
``out(x) = X_out ∪ {x}`` — i.e. every node implicitly belongs to its own
clusters.

The paper computes its cover with the authors' earlier algorithm [15]
(EDBT'06), which is not specified in this paper.  We substitute a
*pruned-BFS* construction (the reachability variant of pruned landmark
labeling): process vertices from "most central" to least; for vertex ``w``
run a forward BFS adding ``w`` to ``in(v)`` of every visited ``v`` — but
prune any ``v`` whose reachability from ``w`` is already witnessed by the
labels built so far — and symmetrically a backward BFS for ``out``.  This
produces a valid (and small) 2-hop cover; any valid cover yields identical
R-join semantics, so the substitution is behaviour-preserving (DESIGN.md
Section 4).

Cyclic graphs are handled the way every 2-hop system does it: condense to
the SCC DAG, label the DAG, and give each node the labels of its SCC
(centers are mapped back to the SCC representative's node id).

A direct greedy set-cover construction (:func:`greedy_two_hop`) is also
provided; it follows Cohen et al.'s formulation literally and is useful as
an oracle on small graphs, but costs O(n^2) space.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..graph.condensation import condense
from ..graph.digraph import DiGraph
from ..graph.traversal import TransitiveClosure


class _LazyCodes:
    """A code column decoded on demand from an external array source.

    Snapshot-loaded labelings don't hold materialized frozensets — they
    hold a fetch function returning the sorted ``array('q')`` row for a
    node (ultimately a copy of an mmap slice).  This sequence presents
    the classic ``in_codes``/``out_codes`` interface on top of that
    source: ``[node]`` builds (and memoizes) the frozenset only for the
    rows actually touched.  Read-only, like the codes themselves.
    """

    __slots__ = ("_count", "_fetch", "_memo")

    def __init__(self, count: int, fetch) -> None:
        self._count = count
        self._fetch = fetch
        self._memo: Dict[int, FrozenSet[int]] = {}

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, node: int) -> FrozenSet[int]:
        if node < 0:
            node += self._count
        if not 0 <= node < self._count:
            raise IndexError(node)
        code = self._memo.get(node)
        if code is None:
            code = self._memo[node] = frozenset(self._fetch(node))
        return code

    def __iter__(self):
        for node in range(len(self)):
            yield self[node]

    def __eq__(self, other: object) -> bool:
        # supports dataclass equality against a plain-list labeling
        if isinstance(other, (list, _LazyCodes)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_LazyCodes(count={len(self)}, decoded={len(self._memo)})"


@dataclass
class TwoHopLabeling:
    """Graph codes ``in(x)``/``out(x)`` for every node of a digraph.

    Both codes *include the node itself* (the compact form of Example 3.1
    reconstructs ``in(x) = X_in ∪ {x}``), so ``reaches`` needs no special
    case for ``u == v``.
    """

    in_codes: List[FrozenSet[int]]
    out_codes: List[FrozenSet[int]]
    # lazily-built caches (derived, so excluded from equality/repr):
    # sorted-array codes for the run kernels and the centers() result
    _in_arrays: List[Optional["array[int]"]] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    _out_arrays: List[Optional["array[int]"]] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    _centers: Optional[FrozenSet[int]] = field(
        default=None, init=False, repr=False, compare=False
    )
    # optional external array sources (snapshot adoption): fetch functions
    # returning the sorted array('q') code row of a node
    _in_source: Optional[object] = field(
        default=None, init=False, repr=False, compare=False
    )
    _out_source: Optional[object] = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def from_array_source(
        cls, count: int, in_fetch, out_fetch
    ) -> "TwoHopLabeling":
        """Adopt externally-stored codes without copying them.

        *in_fetch* / *out_fetch* map a node id to its sorted
        ``array('q')`` code row (e.g. a copy out of an mmap-backed
        snapshot).  ``in_code_array``/``out_code_array``
        serve straight from the source, and the ``in_codes``/
        ``out_codes`` sequences build frozensets per node only when a
        caller actually asks for set semantics.
        """
        labeling = cls(in_codes=[], out_codes=[])
        labeling._in_source = in_fetch
        labeling._out_source = out_fetch
        labeling.in_codes = _LazyCodes(count, in_fetch)  # type: ignore[assignment]
        labeling.out_codes = _LazyCodes(count, out_fetch)  # type: ignore[assignment]
        return labeling

    def reaches(self, u: int, v: int) -> bool:
        """``u ~> v`` iff ``out(u) ∩ in(v) ≠ ∅`` (paper Example 3.1)."""
        return not self.out_codes[u].isdisjoint(self.in_codes[v])

    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        return len(self.in_codes)

    def centers(self) -> FrozenSet[int]:
        """All nodes that appear as a center in some other node's code.

        Computed once and cached on the instance — the codes are immutable
        after construction, and callers (the index auditor, catalog
        consumers) used to pay a full scan of every code per call.
        """
        if self._centers is None:
            found: Set[int] = set()
            for v in range(self.node_count):
                found.update(self.in_codes[v])
                found.update(self.out_codes[v])
            self._centers = frozenset(found)
        return self._centers

    # ------------------------------------------------------------------
    # sorted-array codes (the run kernels' representation)
    # ------------------------------------------------------------------
    def in_code_array(self, node: int) -> "array[int]":
        """``in(x)`` as a sorted ``array('q')``, built lazily and cached."""
        arrays = self._in_arrays
        if not arrays:
            arrays.extend([None] * self.node_count)
        code = arrays[node]
        if code is None:
            if self._in_source is not None:
                code = arrays[node] = self._in_source(node)  # type: ignore[operator]
            else:
                code = arrays[node] = array("q", sorted(self.in_codes[node]))
        return code

    def out_code_array(self, node: int) -> "array[int]":
        """``out(x)`` as a sorted ``array('q')``, built lazily and cached."""
        arrays = self._out_arrays
        if not arrays:
            arrays.extend([None] * self.node_count)
        code = arrays[node]
        if code is None:
            if self._out_source is not None:
                code = arrays[node] = self._out_source(node)  # type: ignore[operator]
            else:
                code = arrays[node] = array("q", sorted(self.out_codes[node]))
        return code

    def cover_size(self) -> int:
        """Total 2-hop cover size ``|H|`` = Σ_w (|U_w| + |V_w|).

        Each non-self entry ``w ∈ in(v)`` puts ``v`` in ``V_w`` and each
        non-self ``w ∈ out(u)`` puts ``u`` in ``U_w``, so the cover size is
        the total number of non-self label entries.  This is the quantity
        the paper's Table 2 reports (|H|, with |H|/|V| around 3.5 on
        XMark graphs).
        """
        total = 0
        for v in range(self.node_count):
            total += len(self.in_codes[v]) - (1 if v in self.in_codes[v] else 0)
            total += len(self.out_codes[v]) - (1 if v in self.out_codes[v] else 0)
        return total

    def average_code_size(self) -> float:
        """Average of |in(x)| + |out(x)| per node (Table 2's last column)."""
        if self.node_count == 0:
            return 0.0
        return self.cover_size() / self.node_count

    def clusters(self) -> Dict[int, Tuple[List[int], List[int]]]:
        """Per-center (F-cluster, T-cluster) pairs.

        ``F-cluster(w) = {u : w ∈ out(u)}`` — nodes that can reach ``w``;
        ``T-cluster(w) = {v : w ∈ in(v)}`` — nodes ``w`` can reach.  These
        are exactly the clusters materialized by the cluster-based R-join
        index (paper Section 3.2).
        """
        f_cluster: Dict[int, List[int]] = {}
        t_cluster: Dict[int, List[int]] = {}
        for v in range(self.node_count):
            for w in self.out_codes[v]:
                f_cluster.setdefault(w, []).append(v)
            for w in self.in_codes[v]:
                t_cluster.setdefault(w, []).append(v)
        return {
            w: (sorted(f_cluster.get(w, [])), sorted(t_cluster.get(w, [])))
            for w in set(f_cluster) | set(t_cluster)
        }


def _degree_order(graph: DiGraph) -> List[int]:
    """Vertices ordered by (in+1)(out+1) degree product, descending.

    High-degree "hub" vertices make the best centers: they lie on many
    paths, so labeling them first lets the pruned BFS cut off early.
    """
    def score(v: int) -> Tuple[int, int]:
        return ((graph.in_degree(v) + 1) * (graph.out_degree(v) + 1), -v)

    return sorted(graph.nodes(), key=score, reverse=True)


def _label_dag(dag: DiGraph, order: Sequence[int]) -> Tuple[List[Set[int]], List[Set[int]]]:
    """Pruned-BFS 2-hop labeling of a DAG; returns (in_codes, out_codes).

    Codes are keyed by DAG node id and include the node itself.
    """
    n = dag.node_count
    in_codes: List[Set[int]] = [set() for _ in range(n)]
    out_codes: List[Set[int]] = [set() for _ in range(n)]
    for v in range(n):
        in_codes[v].add(v)
        out_codes[v].add(v)

    def covered(u: int, v: int) -> bool:
        return not out_codes[u].isdisjoint(in_codes[v])

    for w in order:
        # forward BFS: w becomes an in-label of nodes it reaches
        queue = deque(dag.successors(w))
        seen = {w}
        while queue:
            v = queue.popleft()
            if v in seen:
                continue
            seen.add(v)
            if covered(w, v):
                continue  # prune: some earlier center already witnesses w ~> v
            in_codes[v].add(w)
            queue.extend(dag.successors(v))
        # backward BFS: w becomes an out-label of nodes that reach it
        queue = deque(dag.predecessors(w))
        seen = {w}
        while queue:
            u = queue.popleft()
            if u in seen:
                continue
            seen.add(u)
            if covered(u, w):
                continue
            out_codes[u].add(w)
            queue.extend(dag.predecessors(u))
    return in_codes, out_codes


def build_two_hop(graph: DiGraph) -> TwoHopLabeling:
    """Compute a 2-hop reachability labeling for an arbitrary digraph.

    Cycles are handled by SCC condensation: all members of an SCC share
    the labels of their component, with center ids mapped back to each
    component's representative (smallest member id).

    Vertices are processed hubs first (:func:`_degree_order`) — the
    order determines cover size (Table 2's |H|), never correctness.
    """
    cond = condense(graph)
    dag = cond.dag
    dag_in, dag_out = _label_dag(dag, _degree_order(dag))

    representative = [cond.representative(scc) for scc in range(dag.node_count)]
    in_codes: List[FrozenSet[int]] = [frozenset()] * graph.node_count
    out_codes: List[FrozenSet[int]] = [frozenset()] * graph.node_count
    for scc in range(dag.node_count):
        ins = frozenset(representative[c] for c in dag_in[scc])
        outs = frozenset(representative[c] for c in dag_out[scc])
        for v in cond.members[scc]:
            # each node also carries itself (compact-form convention)
            in_codes[v] = ins | {v}
            out_codes[v] = outs | {v}
    return TwoHopLabeling(in_codes=in_codes, out_codes=out_codes)


def greedy_two_hop(graph: DiGraph) -> TwoHopLabeling:
    """Literal greedy set-cover 2-hop construction (Cohen et al.).

    Repeatedly picks the center ``w`` whose cluster pair
    ``Anc(w) x Desc(w)`` covers the most still-uncovered reachable pairs
    per unit of label cost, until every reachable pair is covered.
    O(n^2)-space (uses the transitive closure) — small graphs only; used
    as a second, independently-derived labeling in tests.
    """
    cond = condense(graph)
    dag = cond.dag
    n = dag.node_count
    closure = TransitiveClosure(dag)
    ancestors: List[Set[int]] = [set() for _ in range(n)]
    for u in range(n):
        for v in closure.successors_closure(u):
            ancestors[v].add(u)

    # self pairs (u, u) are covered for free by the self-labels below
    uncovered: Set[Tuple[int, int]] = {
        (u, v) for u in range(n) for v in closure.successors_closure(u) if u != v
    }
    in_codes: List[Set[int]] = [{v} for v in range(n)]
    out_codes: List[Set[int]] = [{v} for v in range(n)]

    while uncovered:
        best_w, best_gain, best_cost = -1, -1, 1
        for w in range(n):
            anc = ancestors[w]
            desc = closure.successors_closure(w)
            gain = sum(1 for u in anc for v in desc if (u, v) in uncovered)
            cost = len(anc) + len(desc)
            if gain * best_cost > best_gain * cost:  # gain/cost comparison
                best_w, best_gain, best_cost = w, gain, cost
        if best_gain <= 0:
            break
        w = best_w
        for u in ancestors[w]:
            out_codes[u].add(w)
        for v in closure.successors_closure(w):
            in_codes[v].add(w)
        uncovered -= {
            (u, v)
            for u in ancestors[w]
            for v in closure.successors_closure(w)
            if (u, v) in uncovered
        }

    representative = [cond.representative(scc) for scc in range(n)]
    full_in: List[FrozenSet[int]] = [frozenset()] * graph.node_count
    full_out: List[FrozenSet[int]] = [frozenset()] * graph.node_count
    for scc in range(n):
        ins = frozenset(representative[c] for c in in_codes[scc])
        outs = frozenset(representative[c] for c in out_codes[scc])
        for v in cond.members[scc]:
            full_in[v] = ins | {v}
            full_out[v] = outs | {v}
    return TwoHopLabeling(in_codes=full_in, out_codes=full_out)
