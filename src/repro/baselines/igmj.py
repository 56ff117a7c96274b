"""INT-DP — the sort-merge multi-R-join baseline (paper Section 5.2).

Wang et al. [28] process one R-join ``T_X ⋈_{X->Y} T_Y`` with the *IGMJ*
algorithm: condense the data graph to a DAG, assign each node the
multi-interval + postorder code of Agrawal et al. [2], form an ``Xlist``
(one entry per interval of each X-labeled node, sorted by interval start
ascending then end descending) and a ``Ylist`` (Y-labeled nodes sorted by
postorder), and answer the join with a single synchronized scan that
maintains the set of intervals stabbing the current postorder.

Multi-join processing (the paper's INT-DP competitor) runs IGMJ joins in
a dynamic-programming-selected order — but, unlike the cluster-based
R-join index, the temporal table must be *re-sorted before every join*
("for processing (T_R ⋈_{D->E} T_E) it needs to sort all D-labeled nodes
in T_R based on their intervals ... The main extra cost is the sorting
cost").  Every sort here is materialized through a heap file so its page
traffic lands on the shared I/O counters, and the count of sort passes is
reported in :class:`IGMJMetrics` — the quantity behind DP beating INT-DP
in Figure 5.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..graph.digraph import DiGraph
from ..labeling.interval import MultiIntervalCode, build_multi_interval
from ..query.pattern import Condition, GraphPattern, PatternError
from ..storage.buffer import DEFAULT_BUFFER_BYTES, BufferPool
from ..storage.extsort import external_sort
from ..storage.heapfile import HeapFile
from ..storage.pages import DiskManager
from ..storage.stats import IOStats


@dataclass
class IGMJMetrics:
    """Instrumentation for the Figure 5 comparison."""

    elapsed_seconds: float = 0.0
    sorts: int = 0
    sorted_entries: int = 0
    joins: int = 0
    io: Optional[IOStats] = None
    result_rows: int = 0


def _merge_join(
    xlist: Sequence[Tuple[int, int, object]],
    ylist: Sequence[Tuple[int, object]],
    emit,
) -> None:
    """The IGMJ single-scan interval/point merge.

    ``xlist`` entries are (lo, hi, payload) sorted by (lo asc, hi desc);
    ``ylist`` entries are (post, payload) sorted by post ascending.  For
    every y, ``emit(x_payload, y_payload)`` fires for each interval
    stabbing ``post(y)``.  Intervals of one node are disjoint, so a node
    never double-emits for the same y.
    """
    active: List[Tuple[int, int, object]] = []  # heap keyed by hi
    i = 0
    for post, y_payload in ylist:
        while i < len(xlist) and xlist[i][0] <= post:
            lo, hi, x_payload = xlist[i]
            heapq.heappush(active, (hi, lo, x_payload))
            i += 1
        while active and active[0][0] < post:
            heapq.heappop(active)
        for hi, lo, x_payload in active:
            if lo <= post:  # heap order is by hi; lo needs an explicit check
                emit(x_payload, y_payload)


class IGMJEngine:
    """Graph pattern matching with DP-ordered IGMJ sort-merge R-joins."""

    def __init__(
        self,
        graph: DiGraph,
        code: Optional[MultiIntervalCode] = None,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
    ) -> None:
        self.graph = graph
        self.code = code if code is not None else build_multi_interval(graph)
        self.stats = IOStats()
        self.pool = BufferPool(
            DiskManager(), capacity_bytes=buffer_bytes, stats=self.stats
        )
        self._pair_count_cache: Dict[Tuple[str, str], int] = {}
        # The base Xlists/Ylists are on-disk structures in Wang et al.'s
        # system, so they live in heap files here too — reading one for a
        # join costs page I/O exactly like scanning a base table does for
        # the R-join engines.
        self._xlist_files: Dict[str, HeapFile] = {}
        self._ylist_files: Dict[str, HeapFile] = {}
        self._materialize_base_lists()
        self.pool.flush_all()

    def _materialize_base_lists(self) -> None:
        for label, nodes in sorted(self.graph.extents().items()):
            xlist: List[Tuple[int, int, int]] = []
            for node in nodes:
                for lo, hi in self.code.intervals[node]:
                    xlist.append((lo, hi, node))
            xlist.sort(key=lambda e: (e[0], -e[1]))
            xfile = HeapFile(self.pool, name=f"xlist.{label}")
            xfile.extend(xlist)
            self._xlist_files[label] = xfile

            ylist = sorted((self.code.post[node], node) for node in nodes)
            yfile = HeapFile(self.pool, name=f"ylist.{label}")
            yfile.extend(ylist)
            self._ylist_files[label] = yfile

    # ------------------------------------------------------------------
    # base lists (each call scans the stored list: page I/O is charged)
    # ------------------------------------------------------------------
    def _base_xlist(self, label: str) -> List[Tuple[int, int, int]]:
        xfile = self._xlist_files.get(label)
        return list(xfile.records()) if xfile is not None else []

    def _base_ylist(self, label: str) -> List[Tuple[int, int]]:
        yfile = self._ylist_files.get(label)
        return list(yfile.records()) if yfile is not None else []

    def pair_count(self, x_label: str, y_label: str) -> int:
        """Exact ``|T_X ⋈ T_Y|`` via one counting merge (cached).

        INT-DP's order selection uses these statistics the way the paper's
        Section 4.1 DP uses precomputed base join sizes.
        """
        key = (x_label, y_label)
        cached = self._pair_count_cache.get(key)
        if cached is not None:
            return cached
        count = 0

        def emit(_x, _y) -> None:
            nonlocal count
            count += 1

        _merge_join(self._base_xlist(x_label), self._base_ylist(y_label), emit)
        self._pair_count_cache[key] = count
        return count

    # ------------------------------------------------------------------
    # order selection (Section 4.1 DP, over IGMJ joins)
    # ------------------------------------------------------------------
    def _order_conditions(
        self, pattern: GraphPattern
    ) -> List[Tuple[Condition, str]]:
        """Greedy-DP join order: (condition, mode) with mode in
        ``{"seed", "forward", "reverse", "selection"}``.

        A compact left-deep DP identical in spirit to Section 4.1: states
        are evaluated-edge subsets; costs are estimated rows processed
        (each IGMJ join scans + sorts its whole temporal input, so rows
        are the right cost unit here).
        """
        extent = {v: len(self.graph.extent(pattern.label(v))) for v in pattern.variables}

        def selectivity(condition: Condition) -> float:
            x_label, y_label = pattern.condition_labels(condition)
            denom = extent[condition[0]] * extent[condition[1]]
            return self.pair_count(x_label, y_label) / denom if denom else 0.0

        best: Dict[frozenset, Tuple[float, float, List[Tuple[Condition, str]]]] = {}
        for condition in pattern.conditions:
            rows = float(self.pair_count(*pattern.condition_labels(condition)))
            best[frozenset([condition])] = (rows, rows, [(condition, "seed")])
        frontier = sorted(best, key=len)
        idx = 0
        while idx < len(frontier):
            state = frontier[idx]
            idx += 1
            cost, rows, order = best[state]
            bound = {v for c in state for v in c}
            for condition in pattern.conditions:
                if condition in state:
                    continue
                src, dst = condition
                if src in bound and dst in bound:
                    mode = "selection"
                    new_rows = rows * selectivity(condition)
                elif src in bound:
                    mode = "forward"
                    new_rows = rows * selectivity(condition) * extent[dst]
                elif dst in bound:
                    mode = "reverse"
                    new_rows = rows * selectivity(condition) * extent[src]
                else:
                    continue
                new_state = state | {condition}
                candidate = (cost + rows + new_rows, new_rows, order + [(condition, mode)])
                if new_state not in best or candidate[0] < best[new_state][0]:
                    known = new_state in best
                    best[new_state] = candidate
                    if not known:
                        frontier.append(new_state)
        final = best[frozenset(pattern.conditions)]
        return final[2]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def match(self, pattern: GraphPattern) -> Tuple[List[Tuple[int, ...]], IGMJMetrics]:
        """All matches via DP-ordered IGMJ joins, plus run metrics."""
        metrics = IGMJMetrics()
        io_before = self.stats.snapshot()
        started = time.perf_counter()

        if pattern.node_count == 1:
            var = pattern.variables[0]
            rows = [(node,) for node in self.graph.extent(pattern.label(var))]
            metrics.result_rows = len(rows)
            metrics.elapsed_seconds = time.perf_counter() - started
            metrics.io = self.stats.delta_since(io_before)
            return rows, metrics

        order = self._order_conditions(pattern)
        columns: List[str] = []
        current: Optional[HeapFile] = None

        def materialize(rows_iter) -> HeapFile:
            heap = HeapFile(self.pool, name="igmj.temp")
            heap.extend(rows_iter)
            return heap

        for condition, mode in order:
            src, dst = condition
            x_label, y_label = pattern.condition_labels(condition)
            if mode == "seed":
                pairs: List[Tuple[int, int]] = []
                _merge_join(
                    self._base_xlist(x_label),
                    self._base_ylist(y_label),
                    lambda x, y: pairs.append((x, y)),
                )
                metrics.joins += 1
                columns = [src, dst]
                current = materialize(pairs)
                continue
            if mode == "selection":
                sp, dp = columns.index(src), columns.index(dst)
                survivors = [
                    row
                    for row in current.records()
                    if self.code.reaches(row[sp], row[dp])
                ]
                current = materialize(survivors)
                continue
            if mode == "forward":
                # temporal holds the source: sort its rows by interval.
                # The sorted run is materialized (written + re-read), the
                # external-sort pass the paper charges INT-DP for.
                position = columns.index(src)

                def interval_entries():
                    for row in current.records():
                        for lo, hi in self.code.intervals[row[position]]:
                            yield (lo, hi, tuple(row))

                sorted_run, sort_stats = external_sort(
                    self.pool, interval_entries(), key=lambda e: (e[0], -e[1])
                )
                metrics.sorts += 1
                metrics.sorted_entries += sort_stats.input_records
                out: List[tuple] = []
                _merge_join(
                    list(sorted_run.records()),
                    self._base_ylist(y_label),
                    lambda row, y: out.append(tuple(row) + (y,)),
                )
                metrics.joins += 1
                columns = columns + [dst]
                current = materialize(out)
                continue
            if mode == "reverse":
                # temporal holds the target: sort its rows by postorder
                position = columns.index(dst)
                sorted_run, sort_stats = external_sort(
                    self.pool,
                    ((self.code.post[row[position]], tuple(row))
                     for row in current.records()),
                    key=lambda e: e[0],
                )
                metrics.sorts += 1
                metrics.sorted_entries += sort_stats.input_records
                out = []
                _merge_join(
                    self._base_xlist(x_label),
                    list(sorted_run.records()),
                    lambda x, row: out.append(tuple(row) + (x,)),
                )
                metrics.joins += 1
                columns = columns + [src]
                current = materialize(out)
                continue
            raise PatternError(f"unknown join mode {mode!r}")  # pragma: no cover

        positions = [columns.index(v) for v in pattern.variables]
        results = [tuple(row[p] for p in positions) for row in current.records()]
        metrics.result_rows = len(results)
        metrics.elapsed_seconds = time.perf_counter() - started
        metrics.io = self.stats.delta_since(io_before)
        return results, metrics
