"""indexaudit — invariant auditing for a database of either tier.

The whole query layer is only correct if the offline structures are: the
2-hop labeling must be a true reachability cover (``u ~> v`` iff
``out(u) ∩ in(v) ≠ ∅``), the W-table must agree with the cluster index's
labeled F/T-subclusters, and every B+-tree must actually be a B+-tree.
None of those are enforced at query time — the operators trust them — so
this auditor is the fsck that storage and labeling refactors run before
claiming correctness.

Three families of checks:

* **cover** — exact transitive-closure comparison on small graphs (every
  ordered pair), seeded row sampling above ``exact_threshold`` nodes
  (full reachability rows for a random sample of sources, plus every
  graph edge, which must trivially be covered);
* **W-table ↔ subclusters** — every center listed under ``W(X, Y)`` has a
  non-empty X-labeled F-subcluster *and* Y-labeled T-subcluster; every
  non-empty subcluster pair appears in the W-table; the cluster leaves
  match the clusters recomputed from the stored codes;
* **B+-tree structure** (live tier only) — for the cluster index, the
  W-table and every base-table primary index: sorted unique keys in
  every node, correct child counts and separator bounds, uniform leaf
  depth, an intact left-to-right leaf chain, and a size counter that
  matches the leaves.

The first two families read the database's whole offline structures
(``db.offline_structures()``); a snapshot-loaded database decodes them
from its file for the audit.  A snapshot has no B+-trees: the
file-level CRC and geometry checks of :meth:`Snapshot.open` and
:func:`audit_snapshot` play that role there.

Findings are :class:`~repro.analysis.diagnostics.Diagnostic` records; per
rule, at most ``max_examples`` individual findings are emitted before a
summary line with the total count (a corrupted closure would otherwise
produce one diagnostic per node pair).
"""

from __future__ import annotations

import random
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..db.database import Database, GraphDatabase
from ..graph.digraph import DiGraph
from ..graph.traversal import reachable_set
from ..labeling.twohop import TwoHopLabeling
from ..storage.bptree import BPlusTree
from ..storage.snapshot import Snapshot, SnapshotError
from .diagnostics import Diagnostic, Severity

# B+-tree node tags (storage/bptree.py stores nodes as ["L"|"I", ...]);
# the auditor is deliberately white-box, like any fsck.
_LEAF = "L"
_INTERNAL = "I"


class _Reporter:
    """Collects diagnostics, capping per-rule examples with a summary."""

    def __init__(self, max_examples: int) -> None:
        self.max_examples = max_examples
        self.diagnostics: List[Diagnostic] = []
        self._counts: Dict[Tuple[str, str], int] = {}

    def report(
        self,
        rule: str,
        source: str,
        message: str,
        severity: Severity = Severity.ERROR,
    ) -> None:
        key = (rule, source)
        count = self._counts.get(key, 0) + 1
        self._counts[key] = count
        if count <= self.max_examples:
            self.diagnostics.append(
                Diagnostic(rule=rule, severity=severity, message=message,
                           source=source)
            )

    def finish(self) -> List[Diagnostic]:
        for (rule, source), count in sorted(self._counts.items()):
            if count > self.max_examples:
                self.diagnostics.append(
                    Diagnostic(
                        rule=rule,
                        severity=Severity.ERROR,
                        message=(
                            f"... {count - self.max_examples} further "
                            f"{rule} finding(s) suppressed "
                            f"({count} total)"
                        ),
                        source=source,
                    )
                )
        return self.diagnostics


# ----------------------------------------------------------------------
# 2-hop cover
# ----------------------------------------------------------------------
def _audit_cover(
    graph: DiGraph,
    labeling: TwoHopLabeling,
    out: _Reporter,
    exact_threshold: int,
    sample_rows: int,
    seed: int,
) -> None:
    n = graph.node_count
    coded = min(len(labeling.out_codes), len(labeling.in_codes))
    if coded < n:
        # e.g. the graph was mutated after the offline phase; every check
        # below would hit uncoded nodes, so report once and stop here
        out.report(
            "index/labeling-size-mismatch",
            "labeling",
            f"graph has {n} node(s) but the 2-hop labeling only codes "
            f"{coded}; rebuild the labeling before trusting reachability",
        )
        return
    if n <= exact_threshold:
        sources = list(graph.nodes())
    else:
        rng = random.Random(seed)
        sources = rng.sample(list(graph.nodes()), min(sample_rows, n))
        # every edge must be covered regardless of which rows we sample
        for u, v in graph.edges():
            if not labeling.reaches(u, v):
                out.report(
                    "index/cover-missing",
                    "labeling",
                    f"edge {u} -> {v} exists but out({u}) ∩ in({v}) = ∅",
                )
    for u in sources:
        truth = reachable_set(graph, u)
        for v in graph.nodes():
            claimed = labeling.reaches(u, v)
            actual = v in truth
            if actual and not claimed:
                out.report(
                    "index/cover-missing",
                    "labeling",
                    f"{u} reaches {v} in the graph but the 2-hop codes "
                    "miss it (not a reachability cover)",
                )
            elif claimed and not actual:
                out.report(
                    "index/cover-spurious",
                    "labeling",
                    f"2-hop codes claim {u} ~> {v} but no such path exists",
                )


# ----------------------------------------------------------------------
# W-table ↔ subcluster agreement
# ----------------------------------------------------------------------
def _audit_wtable(
    graph: DiGraph,
    labeling: TwoHopLabeling,
    cluster_items: Iterable[Tuple[int, Dict[str, tuple], Dict[str, tuple]]],
    wtable_items: Iterable[Tuple[Tuple[str, str], Sequence[int]]],
    out: _Reporter,
) -> None:
    clusters: Dict[int, Tuple[Dict[str, tuple], Dict[str, tuple]]] = {
        center: (f_sub, t_sub) for center, f_sub, t_sub in cluster_items
    }
    wtable_items = list(wtable_items)

    for (x_label, y_label), centers in wtable_items:
        for center in centers:
            entry = clusters.get(center)
            f_sub = entry[0] if entry else {}
            t_sub = entry[1] if entry else {}
            if entry is None:
                out.report(
                    "index/wtable-stale-center",
                    "w-table",
                    f"W({x_label}, {y_label}) lists center {center} which "
                    "has no cluster leaf at all",
                )
            elif not f_sub.get(x_label) or not t_sub.get(y_label):
                out.report(
                    "index/wtable-stale-center",
                    "w-table",
                    f"W({x_label}, {y_label}) lists center {center} whose "
                    f"{x_label}-F-subcluster or {y_label}-T-subcluster is empty",
                )

    wtable: Dict[Tuple[str, str], frozenset] = {
        pair: frozenset(centers) for pair, centers in wtable_items
    }
    for center, (f_sub, t_sub) in clusters.items():
        for x_label, f_nodes in f_sub.items():
            if not f_nodes:
                continue
            for y_label, t_nodes in t_sub.items():
                if not t_nodes:
                    continue
                if center not in wtable.get((x_label, y_label), frozenset()):
                    out.report(
                        "index/wtable-missing-center",
                        "w-table",
                        f"center {center} joins {x_label} -> {y_label} via "
                        "non-empty subclusters but W"
                        f"({x_label}, {y_label}) does not list it",
                    )

    # cluster leaves must match the clusters recomputed from the codes
    truth = labeling.clusters()
    for center, (f_nodes, t_nodes) in truth.items():
        entry = clusters.get(center)
        if entry is None:
            out.report(
                "index/cluster-missing",
                "rjoin-index",
                f"center {center} has clusters in the labeling but no leaf "
                "in the cluster index",
            )
            continue
        stored_f = sorted(n for nodes in entry[0].values() for n in nodes)
        stored_t = sorted(n for nodes in entry[1].values() for n in nodes)
        if stored_f != sorted(f_nodes) or stored_t != sorted(t_nodes):
            out.report(
                "index/cluster-mismatch",
                "rjoin-index",
                f"center {center}: stored F/T-subclusters disagree with the "
                "clusters implied by the stored graph codes",
            )
    for center in set(clusters) - set(truth):
        out.report(
            "index/cluster-spurious",
            "rjoin-index",
            f"cluster index has a leaf for center {center} which appears in "
            "no node's graph code",
        )

    # mislabeled members: every subcluster node must carry its label
    for center, (f_sub, t_sub) in clusters.items():
        for label, nodes in list(f_sub.items()) + list(t_sub.items()):
            for node in nodes:
                if not (0 <= node < graph.node_count):
                    out.report(
                        "index/cluster-unknown-node",
                        "rjoin-index",
                        f"center {center}: subcluster node {node} is not a "
                        "graph node",
                    )
                elif graph.label(node) != label:
                    out.report(
                        "index/cluster-mislabeled",
                        "rjoin-index",
                        f"center {center}: node {node} sits in the {label} "
                        f"subcluster but is labeled {graph.label(node)!r}",
                    )


# ----------------------------------------------------------------------
# B+-tree structure
# ----------------------------------------------------------------------
def check_bptree(
    tree: BPlusTree,
    out: Optional[_Reporter] = None,
    max_examples: int = 10,
) -> List[Diagnostic]:
    """Structural invariants of one B+-tree: ordering, bounds, leaf chain.

    Returns the findings (also accumulated into *out* when supplied so
    :func:`audit_database` can share a reporter).
    """
    reporter = out if out is not None else _Reporter(max_examples)
    source = tree.name
    before = len(reporter.diagnostics)

    leaves_in_order: List[int] = []
    leaf_entries = 0
    leaf_keys: List[Any] = []

    def walk(page_id: int, depth: int, lo: Any, hi: Any) -> None:
        nonlocal leaf_entries
        _, node = tree._load(page_id)  # white-box: auditors read raw nodes
        tag, keys = node[0], node[1]
        if sorted_violation := _keys_unsorted(keys):
            reporter.report(
                "index/bptree-key-order",
                source,
                f"node {page_id}: keys not strictly increasing near "
                f"position {sorted_violation - 1}",
            )
        for key in keys:
            if lo is not None and key < lo:
                reporter.report(
                    "index/bptree-separator-bounds",
                    source,
                    f"node {page_id}: key {key!r} below its subtree's lower "
                    f"bound {lo!r}",
                )
            if hi is not None and key >= hi:
                reporter.report(
                    "index/bptree-separator-bounds",
                    source,
                    f"node {page_id}: key {key!r} at or above its subtree's "
                    f"upper bound {hi!r}",
                )
        if tag == _LEAF:
            if depth != tree.height:
                reporter.report(
                    "index/bptree-leaf-depth",
                    source,
                    f"leaf {page_id} at depth {depth}, expected uniform "
                    f"depth {tree.height}",
                )
            leaves_in_order.append(page_id)
            values = node[2]
            if len(values) != len(keys):
                reporter.report(
                    "index/bptree-arity",
                    source,
                    f"leaf {page_id}: {len(keys)} keys but "
                    f"{len(values)} values",
                )
            leaf_keys.extend(keys)
            if tree.unique:
                leaf_entries += len(keys)
            else:
                leaf_entries += sum(len(v) for v in values)
        elif tag == _INTERNAL:
            children = node[2]
            if len(children) != len(keys) + 1:
                reporter.report(
                    "index/bptree-arity",
                    source,
                    f"internal node {page_id}: {len(keys)} keys but "
                    f"{len(children)} children (expected keys + 1)",
                )
            for pos, child in enumerate(children):
                child_lo = lo if pos == 0 else keys[pos - 1]
                child_hi = hi if pos >= len(keys) else keys[pos]
                walk(child, depth + 1, child_lo, child_hi)
        else:
            reporter.report(
                "index/bptree-corrupt-node",
                source,
                f"node {page_id}: unknown node tag {tag!r}",
            )

    walk(tree._root_id, 1, None, None)

    if _keys_unsorted(leaf_keys):
        reporter.report(
            "index/bptree-key-order",
            source,
            "keys across the leaf level are not globally increasing",
        )
    if leaf_entries != len(tree):
        reporter.report(
            "index/bptree-size-mismatch",
            source,
            f"tree reports {len(tree)} entries but its leaves hold "
            f"{leaf_entries}",
        )

    # leaf chain must visit exactly the leaves, left to right, ending at -1
    chained: List[int] = []
    leaf_id = tree._leftmost_leaf()
    seen = set()
    while leaf_id != -1:
        if leaf_id in seen:
            reporter.report(
                "index/bptree-leaf-chain",
                source,
                f"leaf chain loops back to node {leaf_id}",
            )
            break
        seen.add(leaf_id)
        chained.append(leaf_id)
        _, node = tree._load(leaf_id)
        if node[0] != _LEAF:
            reporter.report(
                "index/bptree-leaf-chain",
                source,
                f"leaf chain reaches non-leaf node {leaf_id}",
            )
            break
        leaf_id = node[3]
    if chained != leaves_in_order and not _keys_unsorted(leaf_keys):
        reporter.report(
            "index/bptree-leaf-chain",
            source,
            f"leaf chain visits {chained} but the tree's left-to-right "
            f"leaves are {leaves_in_order}",
        )

    if out is not None:
        return reporter.diagnostics[before:]
    return reporter.finish()


def _keys_unsorted(keys: List[Any]) -> int:
    """0 when strictly increasing, else 1-based index of the violation."""
    for pos in range(1, len(keys)):
        if not keys[pos - 1] < keys[pos]:
            return pos
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def audit_database(
    db: Database,
    exact_threshold: int = 300,
    sample_rows: int = 32,
    seed: int = 0,
    max_examples: int = 10,
) -> List[Diagnostic]:
    """Run every invariant audit against *db*; returns all findings.

    ``exact_threshold`` bounds the exact transitive-closure cover check
    (above it, ``sample_rows`` full reachability rows are sampled with
    ``seed`` instead, plus an every-edge check).  An empty return means
    cover, W-table and (on the live tier) B+-tree invariants all hold.
    """
    out = _Reporter(max_examples)
    graph, labeling, cluster_items, wtable_items = db.offline_structures()
    _audit_cover(graph, labeling, out, exact_threshold, sample_rows, seed)
    _audit_wtable(graph, labeling, cluster_items, wtable_items, out)
    if not isinstance(db, GraphDatabase):
        return out.finish()
    check_bptree(db.join_index.index_tree, out)
    check_bptree(db.join_index.wtable_tree, out)
    for label in db.labels():
        table = db.base_table(label)
        if table.pk_index is not None:
            check_bptree(table.pk_index, out)
            if len(table.pk_index) != len(table):
                out.report(
                    "index/pk-size-mismatch",
                    f"{table.name}.pk",
                    f"primary index holds {len(table.pk_index)} keys but "
                    f"the table has {len(table)} rows",
                )
    return out.finish()


# ----------------------------------------------------------------------
# offline snapshot-file audit
# ----------------------------------------------------------------------
def audit_snapshot(path: str, max_examples: int = 10) -> List[Diagnostic]:
    """Audit a binary snapshot *file* without loading a database.

    :meth:`Snapshot.open` already enforces magic, version, section-table
    geometry and every section's CRC — a failure there becomes a single
    ``snapshot/unreadable`` finding (a file that cannot be opened at all
    raises its :class:`OSError` instead).  On a readable file this decodes
    every column and checks the semantic invariants the lazy read path
    assumes but never re-verifies: code rows and subcluster runs strictly
    increasing, self-membership of every node's codes, the center
    directory sorted, and every W-table or subcluster reference pointing
    at a known center / label id.
    """
    out = _Reporter(max_examples)
    try:
        snapshot = Snapshot.open(path)
    except SnapshotError as exc:
        out.report("snapshot/unreadable", path, str(exc))
        return out.finish()
    try:
        _audit_snapshot_columns(snapshot, out)
    finally:
        snapshot.close()
    return out.finish()


def _audit_snapshot_columns(snapshot: Snapshot, out: _Reporter) -> None:
    source = snapshot.path
    centers = list(snapshot.centers())
    if _keys_unsorted(centers):
        out.report(
            "snapshot/center-order", source,
            "the center directory is not strictly increasing",
        )
    center_set = set(centers)

    for node in range(snapshot.node_count):
        for side, code in (
            ("in", snapshot.in_code_array(node)),
            ("out", snapshot.out_code_array(node)),
        ):
            if _keys_unsorted(list(code)):
                out.report(
                    "snapshot/code-order", source,
                    f"{side}({node}) decodes to a non-increasing run",
                )
            elif node not in set(code):
                out.report(
                    "snapshot/code-missing-self", source,
                    f"{side}({node}) does not contain the node itself",
                )

    label_count = snapshot.label_count
    for position, pair in enumerate(snapshot.wtable_pairs()):
        run = list(snapshot.wtable_centers(position))
        if _keys_unsorted(run):
            out.report(
                "snapshot/wtable-order", source,
                f"W{pair} center run is not strictly increasing",
            )
        for center in run:
            if center not in center_set:
                out.report(
                    "snapshot/wtable-unknown-center", source,
                    f"W{pair} lists center {center} which has no cluster entry",
                )

    for position, center in enumerate(centers):
        f_sub, t_sub = snapshot.subclusters_at(position)
        for side_name, subclusters in (("F", f_sub), ("T", t_sub)):
            for label, nodes in subclusters.items():
                if label not in snapshot.label_names or label_count == 0:
                    out.report(
                        "snapshot/subcluster-unknown-label", source,
                        f"center {center}: {side_name}-subcluster uses "
                        f"unknown label {label!r}",
                    )
                if _keys_unsorted(list(nodes)):
                    out.report(
                        "snapshot/subcluster-order", source,
                        f"center {center}: {side_name}-subcluster for "
                        f"{label!r} is not strictly increasing",
                    )
                for node in nodes:
                    if not 0 <= node < snapshot.node_count:
                        out.report(
                            "snapshot/subcluster-unknown-node", source,
                            f"center {center}: subcluster node {node} is "
                            "outside the snapshot's node range",
                        )
