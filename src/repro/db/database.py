"""The graph database GDB: base tables + R-join index + catalog.

Paper Section 3: "Based on the 2-hop reachability labeling, we store graph
G_D into a database, G_DB, by taking a node-oriented representation.
There are |Σ| tables for G_D.  A table T_X, for a label X ∈ Σ, has three
columns named X, X_in and X_out. ... We assume that the X column is the
primary key of the table."  The in/out columns store the *compact* codes
(the node itself removed, per Example 3.1); :meth:`out_code`/
:meth:`in_code` re-add it.

``getCenters(x, X, Y) = out(x) ∩ W(X, Y)`` (Eq. 6) "needs to access the
base table T_X using the primary index.  We use a working cache to cache
those pairs of (x_i, out(x_i)) ... to reduce the access cost for later
reuse" — implemented by :class:`CodeCache`.

**The run surface.**  Everything the physical operators read comes
through four calls, each returning a *sorted int run*:
:meth:`GraphDatabase.w_run` (``W(X, Y)``), :meth:`~GraphDatabase.code_run`
(a node's in/out code), :meth:`~GraphDatabase.subcluster_runs` (a
center's labeled F/T-subclusters) and :meth:`~GraphDatabase.extent_run`
(a label's nodes).  :class:`GraphDatabase` implements them for the live
tier — B+-tree / primary-index probes charged I/O exactly where the
paper's cost model charges it; :class:`SnapshotDatabase` for the snapshot
tier — runs decoded once from the mapping and memoised.  Nothing above
this module knows which tier it is reading.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from bisect import bisect_left
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

from ..graph.digraph import DiGraph
from ..labeling.twohop import TwoHopLabeling, build_two_hop
from ..storage.buffer import DEFAULT_BUFFER_BYTES, BufferPool
from ..storage.pages import DEFAULT_PAGE_SIZE, DiskManager
from ..storage.stats import IOStats
from ..storage.table import Table
from .catalog import Catalog, PairStats
from .join_index import ClusterRJoinIndex, SnapshotRJoinIndex


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
        self.catalog = Catalog(graph, self.labeling)
        self.code_cache = CodeCache()
        self._node_labels = list(graph.labels())
        self._snapshot = None
        self._table_lock = threading.Lock()
        self.pool.flush_all()

    @property
    def stats(self) -> IOStats:
        """The buffer pool's I/O recorder — the one counter every charge
        of this database lands on."""
        return self.pool.stats

    # ------------------------------------------------------------------
    @classmethod
    def from_snapshot(
        cls,
        snapshot,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> "SnapshotDatabase":
        """Construct a database that serves from a binary snapshot.

        Nothing expensive is rebuilt: codes come from the labeling's
        array source (each row decoded from the mapping on first touch
        and memoised), the R-join index and W-table are a
        :class:`SnapshotRJoinIndex` over the same mapping, the catalog is
        rehydrated from the stored statistics, and base tables
        materialize per label on first access.  Only the graph itself
        (O(V+E), needed for labels and extents everywhere) is
        reconstructed eagerly.
        """
        db = SnapshotDatabase.__new__(SnapshotDatabase)
        db.graph = snapshot.build_graph()
        db.pool = BufferPool(
            DiskManager(page_size=page_size),
            capacity_bytes=buffer_bytes,
        )
        db.labeling = TwoHopLabeling.from_array_source(
            snapshot.node_count,
            snapshot.in_code_array,
            snapshot.out_code_array,
        )
        db.base_tables = {}
        db._table_labels = tuple(snapshot.label_names)
        db.join_index = SnapshotRJoinIndex(snapshot)
        db.catalog = Catalog.from_stats(
            snapshot.extent_sizes(),
            {
                pair: PairStats(*stats)
                for pair, stats in snapshot.catalog_pairs().items()
            },
        )
        db.code_cache = CodeCache()
        db._node_labels = list(db.graph.labels())
        db._snapshot = snapshot
        db._table_lock = threading.Lock()
        return db

    # ------------------------------------------------------------------
    def _load_base_tables(self) -> None:
        for label in self._table_labels:
            self._materialize_table(label)

    def _materialize_table(self, label: str) -> Table:
        nodes = self.graph.extent(label)
        table = Table(
            self.pool,
            name=f"T_{label}",
            columns=(label, f"{label}_in", f"{label}_out"),
            primary_key=label,
        )
        for node in sorted(nodes):
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
        return table

    # ------------------------------------------------------------------
    # public access paths
    # ------------------------------------------------------------------
    def labels(self) -> Tuple[str, ...]:
        return self._table_labels

    def base_table(self, label: str) -> Table:
        """The base table ``T_label``, materializing it on first access.

        Snapshot-loaded databases defer table construction per label —
        most workloads touch a handful of the |Σ| tables, and the seed
        scan is the only operator that needs row storage at all.
        """
        table = self.base_tables.get(label)
        if table is not None:
            return table
        if label not in self._table_labels:
            raise KeyError(
                f"no base table for label {label!r}; labels are {self.labels()}"
            )
        # double-checked: concurrent first touches of the same label must
        # not materialize (and insert pages for) the table twice
        with self._table_lock:
            table = self.base_tables.get(label)
            if table is not None:
                return table
            return self._materialize_table(label)

    def node_label(self, node: int) -> str:
        return self._node_labels[node]

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

    def subcluster_runs(
        self, center: int
    ) -> Tuple[Dict[str, Tuple[int, ...]], Dict[str, Tuple[int, ...]]]:
        """``({X: getF(w, X)}, {Y: getT(w, Y)})``: both labeled subcluster
        maps of *center* from one index probe (they share a leaf)."""
        return self.join_index.get_ft(center)

    def extent_run(self, label: str) -> Iterable[int]:
        """All *label*-labeled nodes, ascending: a primary-key scan of
        ``T_label`` (the ``IO_D`` scan term)."""
        return (row[0] for row in self.base_table(label).scan())

    # ------------------------------------------------------------------
    # set-valued conveniences over the run surface (paper notation)
    # ------------------------------------------------------------------
    def out_code(self, node: int) -> FrozenSet[int]:
        """``out(x)`` as a set."""
        return frozenset(self.code_run(node, "out"))

    def in_code(self, node: int) -> FrozenSet[int]:
        """``in(x)`` as a set."""
        return frozenset(self.code_run(node, "in"))

    # ------------------------------------------------------------------
    @property
    def snapshot_handle(self):
        """The backing :class:`~repro.storage.snapshot.Snapshot`, or
        ``None`` for an eagerly-built database."""
        return self._snapshot

    def get_centers(self, node: int, x_label: str, y_label: str) -> FrozenSet[int]:
        """``getCenters(x, X, Y) = out(x) ∩ W(X, Y)`` (Eq. 6)."""
        return self.out_code(node) & frozenset(self.w_run(x_label, y_label))

    def reaches(self, u: int, v: int) -> bool:
        """Reachability through stored codes: ``out(u) ∩ in(v) ≠ ∅``."""
        return not self.out_code(u).isdisjoint(self.in_code(v))

    def storage_report(self) -> Dict[str, Dict[str, int]]:
        """Page/row footprint of every stored structure.

        Returns ``{structure: {"rows": ..., "pages": ...}}`` for each base
        table (heap + primary index height folded into "pages" is not
        attempted — index pages are shared in the pool), plus totals for
        the whole simulated disk.  Useful for sizing buffer budgets and
        for the Table 2-style reporting the CLI's ``stats`` command does.
        """
        for label in self._table_labels:  # a report covers *every* table
            self.base_table(label)
        report: Dict[str, Dict[str, int]] = {}
        for label, table in sorted(self.base_tables.items()):
            report[f"T_{label}"] = {
                "rows": len(table),
                "pages": table.page_count,
            }
        report["__disk__"] = {
            "rows": sum(len(t) for t in self.base_tables.values()),
            "pages": self.pool.disk.page_count,
        }
        return report

    # ------------------------------------------------------------------
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


class SnapshotDatabase(GraphDatabase):
    """The snapshot tier of the run surface: decode once and memoise.

    Built by :meth:`GraphDatabase.from_snapshot`.  ``w_run`` and
    ``subcluster_runs`` resolve through the :class:`SnapshotRJoinIndex`
    (per-pair / per-leaf decode memos); codes come from the labeling's
    array source and extents from the graph — no base table is
    materialized and no buffer-pool I/O is charged on the read path.
    """

    def code_run(self, node: int, side: str) -> Sequence[int]:
        if side == "out":
            return self.labeling.out_code_array(node)
        return self.labeling.in_code_array(node)

    def extent_run(self, label: str) -> Iterable[int]:
        return self.graph.extent(label)
