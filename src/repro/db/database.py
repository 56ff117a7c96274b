"""The graph database GDB: base tables + R-join index + catalog.

Paper Section 3: "Based on the 2-hop reachability labeling, we store graph
G_D into a database, G_DB, by taking a node-oriented representation.
There are |Σ| tables for G_D.  A table T_X, for a label X ∈ Σ, has three
columns named X, X_in and X_out. ... We assume that the X column is the
primary key of the table."  The in/out columns store the *compact* codes
(the node itself removed, per Example 3.1); :meth:`~GraphDatabase.code_run`
re-adds it.

``getCenters(x, X, Y) = out(x) ∩ W(X, Y)`` (Eq. 6) "needs to access the
base table T_X using the primary index.  We use a working cache to cache
those pairs of (x_i, out(x_i)) ... to reduce the access cost for later
reuse" — implemented by :class:`CodeCache`.

**The run surface.**  Everything the physical operators read comes
through four calls, each returning one *sorted int run*:
:meth:`GraphDatabase.w_run` (``W(X, Y)``), :meth:`~GraphDatabase.code_run`
(a node's in/out code), :meth:`~GraphDatabase.subcluster_run` (a
center's labeled F- or T-subcluster) and :meth:`~GraphDatabase.extent_run`
(a label's nodes).  :class:`GraphDatabase` implements them for the live
tier — B+-tree / primary-index probes charged I/O exactly where the
paper's cost model charges it; :class:`SnapshotDatabase` for the snapshot
tier — each run copied out of the mapped file on every call, with the
engine's CenterCache the one cache above it.  Nothing above this module
knows which tier it is reading.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from bisect import bisect_left
from typing import Dict, Iterable, NamedTuple, Optional, Sequence, Tuple, Union

from ..graph.digraph import DiGraph
from ..labeling.twohop import TwoHopLabeling, build_two_hop
from ..storage.buffer import DEFAULT_BUFFER_BYTES, BufferPool
from ..storage.pages import DEFAULT_PAGE_SIZE, DiskManager
from ..storage.snapshot import SIDE_F, SIDE_T, Snapshot
from ..storage.stats import IOStats
from ..storage.table import Table
from .catalog import Catalog, PairStats
from .join_index import ClusterRJoinIndex


class OfflineStructures(NamedTuple):
    """Every offline structure whole: what the snapshot writer and the
    index audit read, never the query path."""

    graph: DiGraph
    labeling: TwoHopLabeling
    #: ``(center, f_subclusters, t_subclusters)`` in center order
    cluster_items: Iterable[Tuple[int, Dict[str, Tuple[int, ...]], Dict[str, Tuple[int, ...]]]]
    #: ``((X, Y), centers)`` in key order
    wtable_items: Iterable[Tuple[Tuple[str, str], Sequence[int]]]


@dataclass
class CodeCache:
    """Working cache for (node, in/out graph code) pairs, as sorted runs.

    Unbounded (the paper does not bound it either); the hit/miss
    counters say how much of a run it saved.
    """

    hits: int = 0
    misses: int = 0
    _store: Dict[Tuple[int, str], Tuple[int, ...]] = field(default_factory=dict)

    def get(self, node: int, side: str) -> Optional[Tuple[int, ...]]:
        code = self._store.get((node, side))
        if code is None:
            self.misses += 1
        else:
            self.hits += 1
        return code

    def put(self, node: int, side: str, code: Tuple[int, ...]) -> None:
        self._store[(node, side)] = code

    def clear(self) -> None:
        self._store.clear()
        self.hits = 0
        self.misses = 0


class GraphDatabase:
    """A data graph stored as per-label base tables with graph codes.

    Parameters
    ----------
    graph:
        The data graph (it is retained only for labels/extents; queries
        never traverse it).
    labeling:
        An optional precomputed 2-hop labeling (otherwise built here).
    buffer_bytes / page_size:
        Storage-engine configuration; the paper's setup is a 1 MiB buffer.
    """

    def __init__(
        self,
        graph: DiGraph,
        labeling: Optional[TwoHopLabeling] = None,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> None:
        self.graph = graph
        self.pool = BufferPool(
            DiskManager(page_size=page_size),
            capacity_bytes=buffer_bytes,
        )
        self.labeling = labeling if labeling is not None else build_two_hop(graph)
        if self.labeling.node_count != graph.node_count:
            raise ValueError(
                "labeling covers "
                f"{self.labeling.node_count} nodes but graph has {graph.node_count}"
            )
        self.base_tables: Dict[str, Table] = {}
        self._table_labels: Tuple[str, ...] = tuple(sorted(graph.extents()))
        self._load_base_tables()
        self.join_index = ClusterRJoinIndex(self.pool, graph, self.labeling)
        self.catalog = Catalog.from_stats(
            {label: len(nodes) for label, nodes in graph.extents().items()},
            self.join_index.pair_stats,
        )
        self.code_cache = CodeCache()
        self._node_labels = list(graph.labels())
        self.pool.flush_all()

    @property
    def stats(self) -> IOStats:
        """The buffer pool's I/O recorder — the one counter every charge
        of this database lands on."""
        return self.pool.stats

    # ------------------------------------------------------------------
    def _load_base_tables(self) -> None:
        for label in self._table_labels:
            table = Table(
                self.pool,
                name=f"T_{label}",
                columns=(label, f"{label}_in", f"{label}_out"),
                primary_key=label,
            )
            for node in sorted(self.graph.extent(label)):
                in_code = self.labeling.in_codes[node]
                out_code = self.labeling.out_codes[node]
                table.insert(
                    (
                        node,
                        tuple(sorted(in_code - {node})),
                        tuple(sorted(out_code - {node})),
                    )
                )
            self.base_tables[label] = table

    # ------------------------------------------------------------------
    # public access paths
    # ------------------------------------------------------------------
    def labels(self) -> Tuple[str, ...]:
        return self._table_labels

    def base_table(self, label: str) -> Table:
        """The base table ``T_label``."""
        try:
            return self.base_tables[label]
        except KeyError:
            raise KeyError(
                f"no base table for label {label!r}; labels are {self.labels()}"
            ) from None

    # ------------------------------------------------------------------
    # the run surface: the four reads the physical operators are built on
    # (live tier — every call is charged I/O through the buffer pool)
    # ------------------------------------------------------------------
    def w_run(self, x_label: str, y_label: str) -> Sequence[int]:
        """``W(X, Y)``: the sorted centers joining X- to Y-labeled nodes
        (one W-table probe; operators read it once per execution)."""
        return self.join_index.centers(x_label, y_label)

    def code_run(self, node: int, side: str) -> Sequence[int]:
        """``in(x)``/``out(x)`` (*side* ``"in"``/``"out"``) as a sorted run,
        fetched via the primary index with the working cache — the
        ``IO_B + IO_X`` access of Eqs. 10-12."""
        cached = self.code_cache.get(node, side)
        if cached is not None:
            return cached
        label = self._node_labels[node]
        row = self.base_table(label).fetch_by_key(node)
        if row is None:
            raise KeyError(f"node {node} not found in base table T_{label}")
        stored = row[2] if side == "out" else row[1]
        # the stored code is compact (Example 3.1): re-insert the node
        cut = bisect_left(stored, node)
        code = stored[:cut] + (node,) + stored[cut:]
        self.code_cache.put(node, side, code)
        return code

    def subcluster_run(
        self, center: int, label: str, side: str, pinned: bool = False
    ) -> Sequence[int]:
        """``getT(w, label)`` (*side* ``"out"``) or ``getF(w, label)``
        (``"in"``) of *center*: one cluster-index probe — none for a
        *pinned* read while the leaf of the last probe is *center*'s."""
        index = self.join_index
        return (index.get_t if side == "out" else index.get_f)(center, label, pinned)

    def extent_run(self, label: str) -> Iterable[int]:
        """All *label*-labeled nodes, ascending: a primary-key scan of
        ``T_label`` (the ``IO_D`` scan term)."""
        return (row[0] for row in self.base_table(label).scan())

    # ------------------------------------------------------------------
    def offline_structures(self) -> OfflineStructures:
        """The graph, the labeling and the index and W-table entries (the
        last two scan their B+-trees, charged I/O)."""
        index = self.join_index
        return OfflineStructures(
            self.graph, self.labeling, index.cluster_items(), index.wtable_items()
        )

    def table2_sizes(self) -> Tuple[int, int, int, int]:
        """``(nodes, edges, |H|, centers)``: the Table 2 counts."""
        return (
            self.graph.node_count,
            self.graph.edge_count,
            self.labeling.cover_size(),
            self.join_index.center_count,
        )

    def reset_counters(self) -> None:
        """Clear I/O stats and the working cache (cold-start a query)."""
        self.stats.reset()
        self.code_cache.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GraphDatabase(labels={len(self._table_labels)}, "
            f"nodes={self.graph.node_count}, "
            f"centers={self.join_index.center_count})"
        )


class SnapshotDatabase:
    """The snapshot tier of the run surface: a copy per call, no memo.

    Built by :func:`repro.db.persist.load_database` around an open
    :class:`~repro.storage.snapshot.Snapshot`.  It holds the snapshot,
    the catalog rehydrated from the stored statistics, the label tuple,
    the W-table directory and every label's extent (one pass over the
    node-label column at open) — no graph, no labeling, no base table
    and no memo.  Each run is copied out of the mapping on every call;
    the engine's CenterCache is the one cross-query cache on this tier.
    No read charges I/O: the buffer pool is there for the accounting
    run's temporal tables only.
    """

    def __init__(self, snapshot: Snapshot) -> None:
        self.snapshot = snapshot
        self.catalog = Catalog.from_stats(
            snapshot.extent_sizes(),
            {
                pair: PairStats(*stats)
                for pair, stats in snapshot.catalog_pairs().items()
            },
        )
        self._labels: Tuple[str, ...] = tuple(snapshot.label_names)
        self._label_ids = {label: i for i, label in enumerate(self._labels)}
        self._w_positions: Dict[Tuple[str, str], int] = {
            pair: position for position, pair in enumerate(snapshot.wtable_pairs())
        }
        self._extents = snapshot.extents()
        self.pool = BufferPool(DiskManager(), capacity_bytes=DEFAULT_BUFFER_BYTES)

    @property
    def stats(self) -> IOStats:
        """The buffer pool's I/O recorder (temporal tables only)."""
        return self.pool.stats

    def labels(self) -> Tuple[str, ...]:
        return self._labels

    # ------------------------------------------------------------------
    # the run surface (snapshot tier — copies, never views)
    # ------------------------------------------------------------------
    def w_run(self, x_label: str, y_label: str) -> Sequence[int]:
        position = self._w_positions.get((x_label, y_label))
        if position is None:
            return ()
        return self.snapshot.wtable_centers(position)

    def code_run(self, node: int, side: str) -> Sequence[int]:
        if side == "out":
            return self.snapshot.out_code_array(node)
        return self.snapshot.in_code_array(node)

    def subcluster_run(
        self, center: int, label: str, side: str, pinned: bool = False
    ) -> Sequence[int]:
        """One run copied per call: there is no leaf to pin here."""
        position = self.snapshot.center_position(center)
        label_id = self._label_ids.get(label)
        if position < 0 or label_id is None:
            return ()
        return self.snapshot.subcluster_run(position, SIDE_T if side == "out" else SIDE_F, label_id)

    def extent_run(self, label: str) -> Iterable[int]:
        return self._extents.get(label, ())

    # ------------------------------------------------------------------
    def offline_structures(self) -> OfflineStructures:
        """Decode every whole structure from the file — O(file), for the
        writer and the index audit."""
        snapshot = self.snapshot
        nodes = range(snapshot.node_count)
        labeling = TwoHopLabeling(
            in_codes=[frozenset(snapshot.in_code_array(v)) for v in nodes],
            out_codes=[frozenset(snapshot.out_code_array(v)) for v in nodes],
        )
        return OfflineStructures(
            snapshot.build_graph(),
            labeling,
            (
                (center, *snapshot.subclusters_at(position))
                for position, center in enumerate(snapshot.centers())
            ),
            (
                (pair, tuple(snapshot.wtable_centers(position)))
                for position, pair in enumerate(snapshot.wtable_pairs())
            ),
        )

    def table2_sizes(self) -> Tuple[int, int, int, int]:
        """``(nodes, edges, |H|, centers)`` from the header and the
        section sizes — nothing decoded."""
        snapshot = self.snapshot
        return (
            snapshot.node_count,
            snapshot.edge_count,
            snapshot.cover_size(),
            snapshot.center_count,
        )

    def reset_counters(self) -> None:
        """Clear the I/O stats (there is no working cache to clear)."""
        self.stats.reset()


#: a database of either tier: what the engine, drivers and analysis take
Database = Union[GraphDatabase, SnapshotDatabase]
