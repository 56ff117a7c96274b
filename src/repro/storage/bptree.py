"""A B+-tree over the simulated page store.

Used for (1) the primary index of every base table (the paper assumes "the
X column is the primary key of the table ... we use the primary index built
on the base table"), (2) the W-table ("W-table can be stored on disk with a
B+-tree, and accessed by a pair of labels (X, Y), as a key"), and (3) the
cluster-based R-join index itself ("It is a B+-tree in which its non-leaf
blocks are used for finding a given center").

One tree node lives in one page, so every root-to-leaf descent costs a
page fetch per level through the buffer pool — matching the ``IO_B+``
lookup term of the cost model.  Keys may be ints, strings or tuples of
those; values are arbitrary records.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterator, List, Tuple

from .buffer import BufferPool

# node record layout inside its page:
#   leaf:     ["L", keys, values, next_leaf_page_id_or_-1]
#   internal: ["I", keys, child_page_ids]
_LEAF = "L"
_INTERNAL = "I"


class BPlusTree:
    """A B+-tree index with a configurable fanout.

    Parameters
    ----------
    pool:
        Buffer pool providing page storage and I/O accounting.
    name:
        Used to tally per-index lookup counts in the shared IOStats.
    fanout:
        Maximum number of keys per node before it splits.
    unique:
        When True, inserting an existing key overwrites its value;
        when False, values accumulate in per-key lists.
    """

    def __init__(
        self,
        pool: BufferPool,
        name: str = "index",
        fanout: int = 64,
        unique: bool = True,
    ) -> None:
        if fanout < 3:
            raise ValueError("fanout must be at least 3")
        self.pool = pool
        self.name = name
        self.fanout = fanout
        self.unique = unique
        self._size = 0
        self._height = 1
        self._root_id = self._new_node([_LEAF, [], [], -1])

    # ------------------------------------------------------------------
    # node helpers
    # ------------------------------------------------------------------
    def _load(self, page_id: int) -> Tuple[int, list]:
        page = self.pool.fetch(page_id)
        return page_id, page.get(0)

    def _store(self, page_id: int, node: list) -> None:
        # untracked: node layout is bounded by fanout, not by page bytes
        self.pool.fetch(page_id).put_untracked(0, node)

    def _new_node(self, node: list) -> int:
        # unsized, like _store: one node per page, bounded by fanout
        page = self.pool.new_page()
        page.fill([node], 0)
        return page.page_id

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def _descend(self, key: Any) -> List[int]:
        """Page ids from root to the leaf that may hold *key*."""
        self.pool.stats.record_lookup(self.name)
        path = [self._root_id]
        _, node = self._load(self._root_id)
        while node[0] == _INTERNAL:
            keys, children = node[1], node[2]
            child = children[bisect.bisect_right(keys, key)]
            path.append(child)
            _, node = self._load(child)
        return path

    def search(self, key: Any, default: Any = None) -> Any:
        """Exact lookup; returns *default* when the key is absent."""
        leaf_id = self._descend(key)[-1]
        _, node = self._load(leaf_id)
        keys, values = node[1], node[2]
        pos = bisect.bisect_left(keys, key)
        if pos < len(keys) and keys[pos] == key:
            return values[pos]
        return default

    def __contains__(self, key: Any) -> bool:
        sentinel = object()
        return self.search(key, sentinel) is not sentinel

    def range_scan(
        self, lo: Any = None, hi: Any = None
    ) -> Iterator[Tuple[Any, Any]]:
        """Yield (key, value) pairs with ``lo <= key <= hi`` in key order."""
        if lo is None:
            leaf_id = self._leftmost_leaf()
        else:
            leaf_id = self._descend(lo)[-1]
        while leaf_id != -1:
            _, node = self._load(leaf_id)
            keys, values = node[1], node[2]
            start = 0 if lo is None else bisect.bisect_left(keys, lo)
            for pos in range(start, len(keys)):
                if hi is not None and keys[pos] > hi:
                    return
                yield keys[pos], values[pos]
            leaf_id = node[3]

    def items(self) -> Iterator[Tuple[Any, Any]]:
        return self.range_scan()

    def _leftmost_leaf(self) -> int:
        page_id, node = self._load(self._root_id)
        while node[0] == _INTERNAL:
            page_id = node[2][0]
            _, node = self._load(page_id)
        return page_id

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------
    def insert(self, key: Any, value: Any) -> None:
        """Insert (or, for unique trees, upsert) a key/value pair."""
        path = self._descend(key)
        leaf_id = path[-1]
        _, node = self._load(leaf_id)
        keys, values = node[1], node[2]
        pos = bisect.bisect_left(keys, key)
        if pos < len(keys) and keys[pos] == key:
            if self.unique:
                values[pos] = value
            else:
                values[pos] = list(values[pos]) + [value]
                self._size += 1
            self._store(leaf_id, node)
            return
        keys.insert(pos, key)
        values.insert(pos, value if self.unique else [value])
        self._size += 1
        self._store(leaf_id, node)
        if len(keys) > self.fanout:
            self._split(path)

    def _split(self, path: List[int]) -> None:
        """Split the node at the end of *path*, propagating upward."""
        node_id = path[-1]
        _, node = self._load(node_id)
        mid = len(node[1]) // 2
        if node[0] == _LEAF:
            keys, values, next_leaf = node[1], node[2], node[3]
            right = [_LEAF, keys[mid:], values[mid:], next_leaf]
            right_id = self._new_node(right)
            node[1], node[2], node[3] = keys[:mid], values[:mid], right_id
            separator = right[1][0]
        else:
            keys, children = node[1], node[2]
            separator = keys[mid]
            right = [_INTERNAL, keys[mid + 1:], children[mid + 1:]]
            right_id = self._new_node(right)
            node[1], node[2] = keys[:mid], children[:mid + 1]
        self._store(node_id, node)

        if len(path) == 1:
            # the split node was the root: grow the tree by one level
            new_root = [_INTERNAL, [separator], [node_id, right_id]]
            self._root_id = self._new_node(new_root)
            self._height += 1
            return
        parent_id = path[-2]
        _, parent = self._load(parent_id)
        keys, children = parent[1], parent[2]
        pos = bisect.bisect_left(keys, separator)
        keys.insert(pos, separator)
        children.insert(pos + 1, right_id)
        self._store(parent_id, parent)
        if len(keys) > self.fanout:
            self._split(path[:-1])

    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        return self._height

    def __len__(self) -> int:
        return self._size
