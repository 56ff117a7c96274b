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

import threading
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..graph.digraph import DiGraph
from ..labeling.twohop import TwoHopLabeling
from ..storage.bptree import BPlusTree
from ..storage.buffer import BufferPool

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..storage.snapshot import Snapshot

_EMPTY: Tuple[int, ...] = ()
_EMPTY_SUBCLUSTERS: Tuple[Dict[str, Tuple[int, ...]], Dict[str, Tuple[int, ...]]] = ({}, {})


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
        self._build(graph, labeling)

    # ------------------------------------------------------------------
    def _build(self, graph: DiGraph, labeling: TwoHopLabeling) -> None:
        clusters = labeling.clusters()
        self._center_count = len(clusters)
        wtable_accumulator: Dict[Tuple[str, str], List[int]] = {}
        for center in sorted(clusters):
            f_cluster, t_cluster = clusters[center]
            f_sub: Dict[str, List[int]] = {}
            for node in f_cluster:
                f_sub.setdefault(graph.label(node), []).append(node)
            t_sub: Dict[str, List[int]] = {}
            for node in t_cluster:
                t_sub.setdefault(graph.label(node), []).append(node)
            # subclusters are stored as *sorted* tuples — a kernel
            # precondition (sorted-array intersections/unions), made
            # explicit here rather than inherited from clusters()'s order
            leaf_value = (
                {label: tuple(sorted(nodes)) for label, nodes in f_sub.items()},
                {label: tuple(sorted(nodes)) for label, nodes in t_sub.items()},
            )
            self._tree.insert(center, leaf_value)
            for x_label in f_sub:
                for y_label in t_sub:
                    wtable_accumulator.setdefault((x_label, y_label), []).append(center)
        for pair, centers in sorted(wtable_accumulator.items()):
            self._wtable.insert(pair, tuple(sorted(centers)))

    # ------------------------------------------------------------------
    # paper API
    # ------------------------------------------------------------------
    def centers(self, x_label: str, y_label: str) -> Tuple[int, ...]:
        """``W(X, Y)``: centers joining X-labeled to Y-labeled nodes,
        sorted — one W-table probe, charged through the buffer pool."""
        return self._wtable.search((x_label, y_label), _EMPTY)

    def get_f(self, center: int, label: str) -> Tuple[int, ...]:
        """``getF(w, X)``: the X-labeled F-subcluster of *center*."""
        leaf = self._tree.search(center)
        if leaf is None:
            return _EMPTY
        return leaf[0].get(label, _EMPTY)

    def get_t(self, center: int, label: str) -> Tuple[int, ...]:
        """``getT(w, Y)``: the Y-labeled T-subcluster of *center*."""
        leaf = self._tree.search(center)
        if leaf is None:
            return _EMPTY
        return leaf[1].get(label, _EMPTY)

    def get_ft(
        self, center: int
    ) -> Tuple[Dict[str, Tuple[int, ...]], Dict[str, Tuple[int, ...]]]:
        """Both labeled subcluster maps of *center* from ONE tree probe.

        HPSJ reads an F- and a T-subcluster for every center of
        ``W(X, Y)``; calling :meth:`get_f` then :meth:`get_t` descends
        the B+-tree twice for the same leaf.  This combined accessor
        returns the ``({X: F-subcluster}, {Y: T-subcluster})`` pair of
        maps with a single descent, halving the per-center probe cost.
        """
        leaf = self._tree.search(center)
        if leaf is None:
            return _EMPTY_SUBCLUSTERS
        return leaf

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
        """Number of centers per W-table entry (used by the catalog)."""
        return {pair: len(centers) for pair, centers in self._wtable.items()}


class SnapshotRJoinIndex:
    """The R-join index read API served from an mmap-backed snapshot.

    Duck-types the read surface of :class:`ClusterRJoinIndex`
    (``centers``/``get_f``/``get_t``/``get_ft``/``cluster_items``/
    ``wtable_items``/...), but nothing is rebuilt on construction: the
    W-table directory is a handful of label pairs (decoded eagerly — it
    is tiny and probed on every plan), while W-table center runs and
    per-center subcluster leaves are decoded from the mapping *lazily on
    first probe* and memoized here; the engine's cross-query
    ``CenterCache`` then memoizes the per-(center, label, side) tuples
    the operators actually intersect, exactly as it does for the
    tree-backed index.

    There are no B+-trees behind this object, so ``index_tree``/
    ``wtable_tree`` are ``None`` — structural tree audits don't apply to
    a snapshot (the file-level CRC + geometry checks in
    :mod:`repro.storage.snapshot` play that role).
    """

    def __init__(self, snapshot: "Snapshot") -> None:
        self.pool: Optional[BufferPool] = None
        self._snapshot = snapshot
        # W-table directory: (X, Y) -> position of its center run
        self._pair_positions: Dict[Tuple[str, str], int] = {
            pair: position
            for position, pair in enumerate(snapshot.wtable_pairs())
        }
        self._centers_tuples: Dict[Tuple[str, str], Tuple[int, ...]] = {}
        # per-center decoded leaves, filled on first get_ft probe; the
        # memo lock serializes first-probe decodes when the service's
        # snapshot tier runs queries over this index concurrently
        self._leaves: Dict[
            int, Tuple[Dict[str, Tuple[int, ...]], Dict[str, Tuple[int, ...]]]
        ] = {}
        self._memo_lock = threading.Lock()

    # ------------------------------------------------------------------
    # paper API (mirrors ClusterRJoinIndex)
    # ------------------------------------------------------------------
    def centers(self, x_label: str, y_label: str) -> Tuple[int, ...]:
        """``W(X, Y)``: centers joining X-labeled to Y-labeled nodes,
        sorted — decoded on first probe, memoized per pair."""
        pair = (x_label, y_label)
        cached = self._centers_tuples.get(pair)
        if cached is None:
            position = self._pair_positions.get(pair)
            decoded = (
                _EMPTY if position is None
                else tuple(self._snapshot.wtable_centers(position))
            )
            with self._memo_lock:
                cached = self._centers_tuples.setdefault(pair, decoded)
        return cached

    def get_f(self, center: int, label: str) -> Tuple[int, ...]:
        """``getF(w, X)``: the X-labeled F-subcluster of *center*."""
        return self.get_ft(center)[0].get(label, _EMPTY)

    def get_t(self, center: int, label: str) -> Tuple[int, ...]:
        """``getT(w, Y)``: the Y-labeled T-subcluster of *center*."""
        return self.get_ft(center)[1].get(label, _EMPTY)

    def get_ft(
        self, center: int
    ) -> Tuple[Dict[str, Tuple[int, ...]], Dict[str, Tuple[int, ...]]]:
        """Both labeled subcluster maps of *center*, decoded on first use."""
        leaf = self._leaves.get(center)
        if leaf is None:
            position = self._snapshot.center_position(center)
            if position < 0:
                return _EMPTY_SUBCLUSTERS
            decoded = self._snapshot.subclusters_at(position)
            with self._memo_lock:
                leaf = self._leaves.setdefault(center, decoded)
        return leaf

    # ------------------------------------------------------------------
    # inspection API
    # ------------------------------------------------------------------
    @property
    def snapshot(self) -> "Snapshot":
        return self._snapshot

    @property
    def index_tree(self) -> None:
        return None

    @property
    def wtable_tree(self) -> None:
        return None

    def cluster_items(self):
        """Yield ``(center, f_subclusters, t_subclusters)`` in center order.

        Decodes every leaf (it's a full scan by definition) but does not
        populate the probe memo — a save or audit pass must not pin the
        whole index in memory.
        """
        snapshot = self._snapshot
        for position, center in enumerate(snapshot.centers()):
            f_sub, t_sub = snapshot.subclusters_at(position)
            yield center, f_sub, t_sub

    def wtable_items(self):
        """Yield ``((X, Y), centers)`` W-table entries in key order."""
        for pair in sorted(self._pair_positions):
            yield pair, self.centers(*pair)

    # ------------------------------------------------------------------
    @property
    def center_count(self) -> int:
        return self._snapshot.center_count

    def wtable_pairs(self) -> List[Tuple[str, str]]:
        """All (X, Y) label pairs with at least one center."""
        return sorted(self._pair_positions)

    def wtable_sizes(self) -> Dict[Tuple[str, str], int]:
        """Number of centers per W-table entry (no run decode needed)."""
        return self._snapshot.wtable_sizes()
