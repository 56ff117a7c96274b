"""Unit and property tests for the B+-tree."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.bptree import BPlusTree
from repro.storage.buffer import BufferPool
from repro.storage.pages import DiskManager
from repro.storage.stats import IOStats


def make_tree(fanout: int = 4, unique: bool = True) -> BPlusTree:
    pool = BufferPool(DiskManager(), capacity_bytes=1 << 20, stats=IOStats())
    return BPlusTree(pool, name="t", fanout=fanout, unique=unique)


class TestBasics:
    def test_empty_search_returns_default(self):
        tree = make_tree()
        assert tree.search(1) is None
        assert tree.search(1, default=-1) == -1
        assert 1 not in tree

    def test_insert_and_search(self):
        tree = make_tree()
        tree.insert(5, "five")
        assert tree.search(5) == "five"
        assert 5 in tree
        assert len(tree) == 1

    def test_unique_upsert_overwrites(self):
        tree = make_tree(unique=True)
        tree.insert(1, "a")
        tree.insert(1, "b")
        assert tree.search(1) == "b"
        assert len(tree) == 1

    def test_non_unique_accumulates(self):
        tree = make_tree(unique=False)
        tree.insert(1, "a")
        tree.insert(1, "b")
        assert tree.search(1) == ["a", "b"]
        assert len(tree) == 2

    def test_fanout_minimum(self):
        with pytest.raises(ValueError):
            make_tree(fanout=2)

    def test_nodes_are_stored_unsized(self):
        """One node per page, bounded by fanout: no node page is charged
        bytes, however it grows or splits."""
        tree = make_tree(fanout=4)
        for key in range(50):
            tree.insert(key, (key,) * 8)
        disk = tree.pool.disk
        assert disk.page_count > 1
        pages = [disk.read_page(page_id) for page_id in range(disk.page_count)]
        assert all(len(page) == 1 and page.used == 0 for page in pages)

    def test_tuple_keys(self):
        tree = make_tree()
        tree.insert(("A", "B"), [1, 2])
        tree.insert(("A", "C"), [3])
        assert tree.search(("A", "B")) == [1, 2]
        assert tree.search(("A", "Z")) is None


class TestSplitsAndScans:
    def test_many_inserts_split_and_stay_searchable(self):
        tree = make_tree(fanout=4)
        keys = list(range(200))
        random.Random(5).shuffle(keys)
        for key in keys:
            tree.insert(key, key * 10)
        assert tree.height > 1
        for key in range(200):
            assert tree.search(key) == key * 10

    def test_range_scan_full(self):
        tree = make_tree(fanout=4)
        for key in [5, 1, 9, 3, 7]:
            tree.insert(key, str(key))
        assert list(tree.items()) == [
            (1, "1"), (3, "3"), (5, "5"), (7, "7"), (9, "9")
        ]

    def test_range_scan_bounds(self):
        tree = make_tree(fanout=4)
        for key in range(20):
            tree.insert(key, key)
        got = [k for k, _ in tree.range_scan(lo=5, hi=12)]
        assert got == list(range(5, 13))

    def test_range_scan_crosses_leaves(self):
        tree = make_tree(fanout=3)
        for key in range(60):
            tree.insert(key, key)
        got = [k for k, _ in tree.range_scan(lo=10, hi=50)]
        assert got == list(range(10, 51))

    def test_lookups_are_counted(self):
        tree = make_tree()
        tree.insert(1, 1)
        tree.pool.stats.index_lookups.clear()
        tree.search(1)
        tree.search(2)
        assert tree.pool.stats.index_lookups["t"] == 2

    def test_descend_costs_height_page_reads(self):
        tree = make_tree(fanout=4)
        for key in range(200):
            tree.insert(key, key)
        tree.pool.stats.reset()
        tree.search(137)
        # one fetch per level during the descent, plus the leaf re-read
        assert tree.pool.stats.logical_reads == tree.height + 1


@settings(max_examples=40, deadline=None)
@given(
    entries=st.lists(
        st.tuples(st.integers(-1000, 1000), st.integers()),
        max_size=150,
    ),
    fanout=st.integers(min_value=3, max_value=16),
)
def test_property_tree_behaves_like_dict(entries, fanout):
    """Unique B+-tree = dict: last write wins, sorted iteration."""
    tree = make_tree(fanout=fanout)
    reference = {}
    for key, value in entries:
        tree.insert(key, value)
        reference[key] = value
    assert len(tree) == len(reference)
    for key, value in reference.items():
        assert tree.search(key) == value
    assert list(tree.items()) == sorted(reference.items())


@settings(max_examples=25, deadline=None)
@given(
    keys=st.sets(st.integers(0, 500), max_size=120),
    fanout=st.integers(min_value=3, max_value=8),
    lo=st.integers(0, 500),
    hi=st.integers(0, 500),
)
def test_property_range_scan_matches_sorted_filter(keys, fanout, lo, hi):
    tree = make_tree(fanout=fanout)
    for key in keys:
        tree.insert(key, key)
    expected = sorted(k for k in keys if lo <= k <= hi)
    got = [k for k, _ in tree.range_scan(lo=lo, hi=hi)]
    assert got == expected
