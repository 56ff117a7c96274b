"""The set-semantics reference executor — the suite's one R-join oracle.

Interprets a :class:`~repro.query.algebra.Plan` with nothing but
frozensets built from the data graph and its 2-hop labeling, straight
from the paper's definitions:

* clusters: ``F(w) = {u : w ∈ out(u)}``, ``T(w) = {v : w ∈ in(v)}``,
  split by node label into F-/T-subclusters (Section 3.2);
* ``W(X, Y)`` = centers with a non-empty X-labeled F-subcluster and a
  non-empty Y-labeled T-subcluster;
* HPSJ (Algorithm 1), Filter / Fetch (Algorithm 2, Eqs. 6-9), the self
  R-join (Eq. 5) and the two multiway (generic-join) steps.

It shares no code with ``repro.query.physical`` — no kernels, no run
surface, no join index, no caches — so agreement with it pins both the
operators and the index they read.  Besides rows it reproduces the four
logical counters every operator reports (``rows_in`` / ``rows_out`` /
``centers_probed`` / ``nodes_fetched``), which describe the algorithms'
work and are therefore the same for every driver, storage tier and
worker pool.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.query.algebra import (
    FetchStep,
    FilterStep,
    MultiwaySeed,
    MultiwayStep,
    Plan,
    SeedJoin,
    SeedScan,
    SelectionStep,
    Side,
)

Counters = Tuple[int, int, int, int]  # rows_in, rows_out, centers_probed, nodes_fetched
_NONE: FrozenSet[int] = frozenset()


class ReferenceIndex:
    """Labeled clusters and the W-table, as plain sets."""

    def __init__(self, graph, labeling) -> None:
        self.graph = graph
        self.out_codes = labeling.out_codes
        self.in_codes = labeling.in_codes
        f_sub: Dict[int, Dict[str, set]] = defaultdict(lambda: defaultdict(set))
        t_sub: Dict[int, Dict[str, set]] = defaultdict(lambda: defaultdict(set))
        for node in range(graph.node_count):
            label = graph.label(node)
            for center in labeling.out_codes[node]:
                f_sub[center][label].add(node)
            for center in labeling.in_codes[node]:
                t_sub[center][label].add(node)
        self._f = {w: {x: frozenset(s) for x, s in subs.items()} for w, subs in f_sub.items()}
        self._t = {w: {y: frozenset(s) for y, s in subs.items()} for w, subs in t_sub.items()}
        self._w: Dict[Tuple[str, str], FrozenSet[int]] = {}

    def get_f(self, center: int, label: str) -> FrozenSet[int]:
        return self._f.get(center, {}).get(label, _NONE)

    def get_t(self, center: int, label: str) -> FrozenSet[int]:
        return self._t.get(center, {}).get(label, _NONE)

    def w(self, x_label: str, y_label: str) -> FrozenSet[int]:
        pair = (x_label, y_label)
        if pair not in self._w:
            self._w[pair] = frozenset(
                center for center in self._f
                if self.get_f(center, x_label) and self.get_t(center, y_label)
            )
        return self._w[pair]

    def centers(self, node: int, x_label: str, y_label: str, side: Side) -> FrozenSet[int]:
        """Eq. 6 and its mirror: the scanned node's code ∩ W(X, Y)."""
        code = self.out_codes[node] if side is Side.OUT else self.in_codes[node]
        return code & self.w(x_label, y_label)

    def subcluster(self, center: int, label: str, side: Side) -> FrozenSet[int]:
        """What a Fetch on *side* reads: getT for OUT, getF for IN."""
        return self.get_t(center, label) if side is Side.OUT else self.get_f(center, label)


def reference_execute(
    index: ReferenceIndex, plan: Plan
) -> Tuple[List[Tuple[int, ...]], List[Counters]]:
    """Run *plan*; returns (projected rows, per-step logical counters)."""
    pattern = plan.pattern
    bound: List[str] = []          # variables bound so far, in row order
    pending: List[tuple] = []      # filter keys whose centers ride along
    rows: List[Tuple[tuple, tuple]] = []  # (values, centers-per-pending-key)
    counters: List[Counters] = []

    def fetch_label(condition, side: Side) -> str:
        x_label, y_label = pattern.condition_labels(condition)
        return y_label if side is Side.OUT else x_label

    def expand(centers, condition, side: Side) -> Tuple[set, int]:
        """Eqs. 7-9: union of the centers' subclusters + pre-dedup volume."""
        label = fetch_label(condition, side)
        union: set = set()
        volume = 0
        for center in centers:
            nodes = index.subcluster(center, label, side)
            volume += len(nodes)
            union |= nodes
        return union, volume

    for step in plan.steps:
        rows_in = probed = fetched = 0
        out: List[Tuple[tuple, tuple]] = []
        if isinstance(step, SeedScan) or (
            isinstance(step, MultiwaySeed) and not step.constraints
        ):
            extent = index.graph.extent(pattern.label(step.var))
            rows_in = len(extent)
            out = [((node,), ()) for node in extent]
            bound = [step.var]
        elif isinstance(step, SeedJoin):
            x_label, y_label = pattern.condition_labels(step.condition)
            pairs: set = set()
            for center in index.w(x_label, y_label):
                probed += 1
                f_nodes = index.get_f(center, x_label)
                t_nodes = index.get_t(center, y_label)
                fetched += len(f_nodes) + len(t_nodes)
                rows_in += len(f_nodes) * len(t_nodes)
                pairs.update((x, y) for x in f_nodes for y in t_nodes)
            out = [(pair, ()) for pair in pairs]
            bound = list(step.condition)
        elif isinstance(step, MultiwaySeed):
            domains = []
            for condition, side in step.constraints:
                centers = index.w(*pattern.condition_labels(condition))
                probed += len(centers)
                domain, volume = expand(centers, condition, side)
                fetched += volume
                if not domain:
                    domains = []
                    break  # one empty projection proves an empty result
                domains.append(domain)
            if domains:
                rows_in = min(len(d) for d in domains)
                out = [((node,), ()) for node in set.intersection(*domains)]
            bound = [step.var]
        elif isinstance(step, FilterStep):
            position = bound.index(step.scanned_var)
            for values, carried in rows:
                rows_in += 1
                sets = [
                    index.centers(values[position], *pattern.condition_labels(c), side)
                    for c, side in step.keys
                ]
                if all(sets):
                    out.append((values, carried + tuple(sets)))
            pending = pending + list(step.keys)
        elif isinstance(step, FetchStep):
            slot = pending.index((step.condition, step.side))
            for values, carried in rows:
                rows_in += 1
                probed += len(carried[slot])
                partners, volume = expand(carried[slot], step.condition, step.side)
                fetched += volume
                rest = carried[:slot] + carried[slot + 1:]
                out.extend((values + (p,), rest) for p in partners)
            pending = pending[:slot] + pending[slot + 1:]
            bound = bound + [step.side.fetched_var(step.condition)]
        elif isinstance(step, SelectionStep):
            src, dst = (bound.index(v) for v in step.condition)
            for values, carried in rows:
                rows_in += 1
                if index.out_codes[values[src]] & index.in_codes[values[dst]]:
                    out.append((values, carried))
        elif isinstance(step, MultiwayStep):
            scans = [bound.index(side.scanned_var(c)) for c, side in step.constraints]
            for values, carried in rows:
                rows_in += 1
                extensions = None
                for (condition, side), position in zip(step.constraints, scans):
                    centers = index.centers(
                        values[position], *pattern.condition_labels(condition), side
                    )
                    if not centers:
                        extensions = None
                        break
                    probed += len(centers)
                    found, volume = expand(centers, condition, side)
                    fetched += volume
                    if not found:
                        extensions = None
                        break
                    extensions = found if extensions is None else extensions & found
                for node in extensions or ():
                    out.append((values + (node,), carried))
            bound = bound + [step.var]
        else:  # pragma: no cover - Plan.validate rejects unknown steps
            raise TypeError(f"unknown plan step {step!r}")
        rows = out
        counters.append((rows_in, len(out), probed, fetched))

    positions = [bound.index(var) for var in pattern.variables]
    return [tuple(values[p] for p in positions) for values, _ in rows], counters


def op_counters(metrics) -> List[Counters]:
    """The engine-side twin of the reference counters, off a RunMetrics."""
    return [
        (op.rows_in, op.rows_out, op.centers_probed, op.nodes_fetched)
        for op in metrics.operators
    ]


def assert_matches_reference(
    index: ReferenceIndex, plan: Plan, rows: Sequence, metrics, label: str = ""
) -> None:
    """Rows (as a bag) and per-operator counters equal the reference."""
    expected_rows, expected_counters = reference_execute(index, plan)
    assert sorted(rows) == sorted(expected_rows), f"{label}: rows differ"
    assert op_counters(metrics) == expected_counters, f"{label}: counters differ"
