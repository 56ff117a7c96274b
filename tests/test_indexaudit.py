"""indexaudit: clean databases pass; seeded corruption is detected."""

from __future__ import annotations

import pytest

from repro.analysis import audit_database, check_bptree, has_errors
from repro.db.database import GraphDatabase
from repro.labeling.twohop import build_two_hop
from repro.storage.buffer import BufferPool
from repro.storage.bptree import BPlusTree
from repro.storage.pages import DiskManager
from repro.storage.stats import IOStats


def rules(diagnostics):
    return {d.rule for d in diagnostics}


@pytest.fixture()
def db(figure1):
    return GraphDatabase(figure1)


# ----------------------------------------------------------------------
# clean structures pass
# ----------------------------------------------------------------------
class TestCleanDatabase:
    def test_figure1_audits_clean(self, db):
        assert audit_database(db) == []

    def test_small_dag_audits_clean(self, small_dag):
        assert audit_database(GraphDatabase(small_dag)) == []

    def test_cyclic_graph_audits_clean(self, cyclic_graph):
        assert audit_database(GraphDatabase(cyclic_graph)) == []

    def test_sampled_mode_is_clean_too(self, db):
        # force the sampling path by dropping the exact-check threshold
        assert audit_database(db, exact_threshold=1, sample_rows=8) == []

    def test_xmark_database_audits_clean(self):
        from repro import xmark

        data = xmark.generate(factor=0.1, entity_budget=400, seed=3)
        assert audit_database(GraphDatabase(data.graph)) == []


# ----------------------------------------------------------------------
# corrupted 2-hop cover
# ----------------------------------------------------------------------
class TestCorruptedCover:
    def _broken_edge_labeling(self, graph):
        """Strip the codes witnessing the graph's first edge."""
        labeling = build_two_hop(graph)
        u, v = next(iter(graph.edges()))
        labeling.out_codes[u] = frozenset({u})
        labeling.in_codes[v] = frozenset({v})
        assert not labeling.reaches(u, v)
        return labeling

    def test_missing_cover_entry_detected_exactly(self, figure1):
        tampered = self._broken_edge_labeling(figure1)
        db = GraphDatabase(figure1, labeling=tampered)
        diags = audit_database(db)
        assert "index/cover-missing" in rules(diags)
        assert has_errors(diags)

    def test_missing_cover_entry_detected_by_sampling(self, figure1):
        tampered = self._broken_edge_labeling(figure1)
        db = GraphDatabase(figure1, labeling=tampered)
        # the every-edge check catches this regardless of sampled rows
        diags = audit_database(db, exact_threshold=1, sample_rows=2, seed=5)
        assert "index/cover-missing" in rules(diags)

    def test_graph_mutated_behind_labeling_detected(self, figure1):
        db = GraphDatabase(figure1)
        figure1.add_node("A")  # offline phase never saw this node
        diags = audit_database(db)
        assert "index/labeling-size-mismatch" in rules(diags)
        assert has_errors(diags)

    def test_spurious_cover_entry_detected(self, small_dag):
        labeling = build_two_hop(small_dag)
        truth = build_two_hop(small_dag)
        # claim some unreachable v is reachable from u by granting u the
        # center v (v is always in its own in-code)
        found = None
        for u in small_dag.nodes():
            for v in small_dag.nodes():
                if u != v and not truth.reaches(u, v):
                    found = (u, v)
                    break
            if found:
                break
        u, v = found
        labeling.out_codes[u] = labeling.out_codes[u] | {v}
        db = GraphDatabase(small_dag, labeling=labeling)
        diags = audit_database(db)
        assert "index/cover-spurious" in rules(diags)


# ----------------------------------------------------------------------
# W-table ↔ subcluster disagreement
# ----------------------------------------------------------------------
class TestCorruptedWTable:
    def test_stale_center_detected(self, db):
        pair = db.join_index.wtable_pairs()[0]
        centers = db.join_index.centers(*pair)
        db.join_index.wtable_tree.insert(pair, tuple(centers) + (987654,))
        diags = audit_database(db)
        assert "index/wtable-stale-center" in rules(diags)

    def test_missing_center_detected(self, db):
        pair = db.join_index.wtable_pairs()[0]
        centers = db.join_index.centers(*pair)
        assert centers
        db.join_index.wtable_tree.insert(pair, tuple(centers)[:-1])
        diags = audit_database(db)
        assert "index/wtable-missing-center" in rules(diags)

    def test_mislabeled_subcluster_member_detected(self, db):
        tree = db.join_index.index_tree
        center, (f_sub, t_sub) = next(iter(tree.items()))
        label = next(iter(t_sub))
        wrong = next(
            node for node in db.graph.nodes() if db.graph.label(node) != label
        )
        t_sub = dict(t_sub)
        t_sub[label] = tuple(t_sub[label]) + (wrong,)
        tree.insert(center, (f_sub, t_sub))
        diags = audit_database(db)
        assert "index/cluster-mislabeled" in rules(diags)
        # the tampered leaf no longer matches the stored graph codes either
        assert "index/cluster-mismatch" in rules(diags)


# ----------------------------------------------------------------------
# B+-tree structural corruption
# ----------------------------------------------------------------------
class TestCorruptedBPTree:
    def _tree(self) -> BPlusTree:
        pool = BufferPool(DiskManager(), capacity_bytes=1 << 20, stats=IOStats())
        tree = BPlusTree(pool, name="audit-me", fanout=4)
        for key in range(40):
            tree.insert(key, key * 10)
        return tree

    def test_clean_tree_passes(self):
        assert check_bptree(self._tree()) == []

    def test_every_database_tree_passes(self, db):
        assert check_bptree(db.join_index.index_tree) == []
        assert check_bptree(db.join_index.wtable_tree) == []
        for label in db.labels():
            assert check_bptree(db.base_table(label).pk_index) == []

    def test_swapped_leaf_keys_detected(self):
        tree = self._tree()
        leaf_id = tree._leftmost_leaf()
        _, node = tree._load(leaf_id)
        node[1][0], node[1][1] = node[1][1], node[1][0]
        tree._store(leaf_id, node)
        diags = check_bptree(tree)
        assert "index/bptree-key-order" in rules(diags)

    def test_size_counter_mismatch_detected(self):
        tree = self._tree()
        tree._size += 3
        diags = check_bptree(tree)
        assert "index/bptree-size-mismatch" in rules(diags)

    def test_broken_leaf_chain_detected(self):
        tree = self._tree()
        leaf_id = tree._leftmost_leaf()
        _, node = tree._load(leaf_id)
        node[3] = -1  # truncate the chain after the first leaf
        tree._store(leaf_id, node)
        diags = check_bptree(tree)
        assert "index/bptree-leaf-chain" in rules(diags)

    def test_out_of_bounds_separator_detected(self):
        tree = self._tree()
        # move a key in some non-leftmost leaf below its subtree's bound
        _, root = tree._load(tree._root_id)
        assert root[0] == "I", "fixture tree should have internal levels"
        second_child = root[2][1]
        _, node = tree._load(second_child)
        while node[0] == "I":
            second_child = node[2][0]
            _, node = tree._load(second_child)
        node[1][0] = -999
        tree._store(second_child, node)
        diags = check_bptree(tree)
        assert "index/bptree-separator-bounds" in rules(diags)

    def test_example_cap_suppresses_flood(self):
        tree = self._tree()
        # corrupt many leaves to overflow the per-rule example cap
        leaf_id = tree._leftmost_leaf()
        while leaf_id != -1:
            _, node = tree._load(leaf_id)
            if len(node[1]) >= 2:
                node[1][0], node[1][1] = node[1][1], node[1][0]
                tree._store(leaf_id, node)
            leaf_id = node[3]
        diags = check_bptree(tree, max_examples=2)
        order_findings = [
            d for d in diags if d.rule == "index/bptree-key-order"
        ]
        assert len(order_findings) <= 4  # capped examples + summary line


# ----------------------------------------------------------------------
# primary-index bookkeeping
# ----------------------------------------------------------------------
class TestPrimaryIndex:
    def test_pk_size_mismatch_detected(self, db):
        label = db.labels()[0]
        table = db.base_table(label)
        table.pk_index._size += 1
        diags = audit_database(db)
        assert "index/pk-size-mismatch" in rules(diags)
        assert "index/bptree-size-mismatch" in rules(diags)
