"""The cluster-based R-join index and the W-table (paper Section 3.2).

The index is "a B+-tree in which its non-leaf blocks are used for finding
a given center w.  In the leaf nodes, for each center w, its U_w and V_w,
denoted F-cluster and T-cluster, are maintained.  We further divide w's
F-cluster and T-cluster into labeled F-subclusters/T-subclusters where
every node x in an X-labeled F-subcluster can reach every node y in a
Y-labeled T-subcluster via w."  Crucially it stores *node identifiers*,
not tuple pointers, so many R-joins never touch the base tables at all.

The W-table maps a label pair ``(X, Y)`` to the centers that have both a
non-empty X-labeled F-subcluster and a non-empty Y-labeled T-subcluster;
it is "stored on disk with a B+-tree, and accessed by a pair of labels
(X, Y) as a key".  Both structures here live on the simulated storage
engine, so every probe is charged buffer-pool I/O.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..graph.digraph import DiGraph
from ..labeling.twohop import TwoHopLabeling
from ..storage.bptree import BPlusTree
from ..storage.buffer import BufferPool
from .catalog import PairStats

_EMPTY: Tuple[int, ...] = ()
#: a center's ``({X: F-subcluster}, {Y: T-subcluster})`` leaf entry
Leaf = Tuple[Dict[str, Tuple[int, ...]], Dict[str, Tuple[int, ...]]]


class ClusterRJoinIndex:
    """B+-tree of per-center labeled F/T-subclusters, plus the W-table."""

    def __init__(
        self,
        pool: BufferPool,
        graph: DiGraph,
        labeling: TwoHopLabeling,
        fanout: int = 64,
    ) -> None:
        self.pool = pool
        self._tree = BPlusTree(pool, name="rjoin-index", fanout=fanout, unique=True)
        self._wtable = BPlusTree(pool, name="w-table", fanout=fanout, unique=True)
        self._center_count = 0
        #: ``(center, leaf)`` of the last probe: one tuple, so racing threads
        #: never pair a center with another's leaf (a race costs a probe)
        self._pinned: Optional[Tuple[int, Leaf]] = None
        self._build(graph, labeling)

    # ------------------------------------------------------------------
    def _build(self, graph: DiGraph, labeling: TwoHopLabeling) -> None:
        clusters = labeling.clusters()
        self._center_count = len(clusters)
        extents = graph.extents()
        leaves: Dict[int, Leaf] = {}
        wtable_accumulator: Dict[Tuple[str, str], List[int]] = {}
        # per (X, Y): [Σ_w |F_X(w)|·|T_Y(w)|, Σ_w |T_Y(w)|], in first-seen
        # order over clusters()' own order (the catalog keeps that order)
        sums: Dict[Tuple[str, str], List[int]] = {}
        for center, (f_cluster, t_cluster) in clusters.items():
            f_sub: Dict[str, List[int]] = {}
            for node in f_cluster:
                f_sub.setdefault(graph.label(node), []).append(node)
            t_sub: Dict[str, List[int]] = {}
            for node in t_cluster:
                t_sub.setdefault(graph.label(node), []).append(node)
            # subclusters are stored as *sorted* tuples — a kernel
            # precondition (sorted-array intersections/unions), made
            # explicit here rather than inherited from clusters()'s order
            leaves[center] = (
                {label: tuple(sorted(nodes)) for label, nodes in f_sub.items()},
                {label: tuple(sorted(nodes)) for label, nodes in t_sub.items()},
            )
            for x_label, f_nodes in f_sub.items():
                for y_label, t_nodes in t_sub.items():
                    pair = (x_label, y_label)
                    wtable_accumulator.setdefault(pair, []).append(center)
                    totals = sums.setdefault(pair, [0, 0])
                    totals[0] += len(f_nodes) * len(t_nodes)
                    totals[1] += len(t_nodes)
        # the tree is filled in center order, whatever order the loop ran in
        for center in sorted(leaves):
            self._tree.insert(center, leaves[center])
        for pair, centers in sorted(wtable_accumulator.items()):
            self._wtable.insert(pair, tuple(sorted(centers)))
        #: the catalog's per-pair statistics; the estimate is capped by
        #: |ext(X)|·|ext(Y)| (the sum double-counts pairs several
        #: centers cover)
        self.pair_stats: Dict[Tuple[str, str], PairStats] = {
            (x_label, y_label): PairStats(
                pair_estimate=min(
                    total, len(extents.get(x_label, ())) * len(extents.get(y_label, ()))
                ),
                center_count=len(wtable_accumulator[x_label, y_label]),
                fetch_volume=volume,
            )
            for (x_label, y_label), (total, volume) in sums.items()
        }

    # ------------------------------------------------------------------
    # paper API
    # ------------------------------------------------------------------
    def centers(self, x_label: str, y_label: str) -> Tuple[int, ...]:
        """``W(X, Y)``: centers joining X-labeled to Y-labeled nodes,
        sorted — one W-table probe, charged through the buffer pool."""
        return self._wtable.search((x_label, y_label), _EMPTY)

    def get_f(self, center: int, label: str, pinned: bool = False) -> Tuple[int, ...]:
        """``getF(w, X)``: the X-labeled F-subcluster of *center*."""
        return self._leaf(center, pinned)[0].get(label, _EMPTY)

    def get_t(self, center: int, label: str, pinned: bool = False) -> Tuple[int, ...]:
        """``getT(w, Y)``: the Y-labeled T-subcluster of *center*."""
        return self._leaf(center, pinned)[1].get(label, _EMPTY)

    def _leaf(self, center: int, pinned: bool) -> Leaf:
        """*center*'s leaf entry: one tree probe, whose leaf stays pinned —
        or, for a *pinned* read, none when the pinned leaf is *center*'s."""
        last = self._pinned
        if not pinned or last is None or last[0] != center:
            last = self._pinned = (center, self._tree.search(center, ({}, {})))
        return last[1]

    # ------------------------------------------------------------------
    # inspection API (used by repro.analysis.indexaudit and the tests)
    # ------------------------------------------------------------------
    @property
    def index_tree(self) -> BPlusTree:
        """The cluster B+-tree itself, for structural audits."""
        return self._tree

    @property
    def wtable_tree(self) -> BPlusTree:
        """The W-table B+-tree itself, for structural audits."""
        return self._wtable

    def cluster_items(self):
        """Yield ``(center, f_subclusters, t_subclusters)`` leaf entries.

        Subclusters are ``{label: (node, ...)}`` dicts exactly as stored;
        iteration is in center order (a leaf-chain scan, charged I/O).
        """
        for center, (f_sub, t_sub) in self._tree.items():
            yield center, f_sub, t_sub

    def wtable_items(self):
        """Yield ``((X, Y), centers)`` W-table entries in key order."""
        return self._wtable.items()

    # ------------------------------------------------------------------
    @property
    def center_count(self) -> int:
        return self._center_count

    def wtable_pairs(self) -> List[Tuple[str, str]]:
        """All (X, Y) label pairs with at least one center."""
        return [pair for pair, _ in self._wtable.items()]

    def wtable_sizes(self) -> Dict[Tuple[str, str], int]:
        """Number of centers per W-table entry (a W-table scan)."""
        return {pair: len(centers) for pair, centers in self._wtable.items()}
