"""Relational tables over heap files, with optional primary B+-tree index.

Base tables follow the paper's node-oriented representation (Section 3):
for every label ``X`` there is a table ``T_X(X, X_in, X_out)`` whose rows
are ``(node_id, in_code, out_code)``, with a primary index on the node-id
column.  Temporal (intermediate) tables produced by R-joins reuse the same
class without an index.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from .bptree import BPlusTree
from .buffer import BufferPool
from .heapfile import HeapFile
from .pages import Sizer, record_size


class SchemaError(ValueError):
    """Raised for column/row mismatches."""


class Table:
    """A named table with a fixed list of columns.

    Rows are tuples aligned with ``columns``.  If ``primary_key`` names a
    column, a unique B+-tree maps that column's value to the row's record
    id, and :meth:`fetch_by_key` performs an index lookup followed by one
    page fetch — the paper's primary-index access path.
    """

    def __init__(
        self,
        pool: BufferPool,
        name: str,
        columns: Sequence[str],
        primary_key: Optional[str] = None,
    ) -> None:
        if len(set(columns)) != len(columns):
            raise SchemaError(f"duplicate column names in {list(columns)}")
        self.pool = pool
        self.name = name
        self.columns: Tuple[str, ...] = tuple(columns)
        self.heap = HeapFile(pool, name=f"{name}.heap")
        self.primary_key = primary_key
        self._pk_position: Optional[int] = None
        self.pk_index: Optional[BPlusTree] = None
        if primary_key is not None:
            if primary_key not in self.columns:
                raise SchemaError(
                    f"primary key {primary_key!r} not among columns {self.columns}"
                )
            self._pk_position = self.columns.index(primary_key)
            self.pk_index = BPlusTree(pool, name=f"{name}.pk", unique=True)

    # ------------------------------------------------------------------
    def column_position(self, column: str) -> int:
        try:
            return self.columns.index(column)
        except ValueError:
            raise SchemaError(
                f"table {self.name!r} has no column {column!r}; "
                f"columns are {self.columns}"
            ) from None

    def _checked(self, rows: Iterable[Sequence[Any]]) -> Iterator[Tuple[Any, ...]]:
        arity = len(self.columns)
        for row in rows:
            if len(row) != arity:
                raise SchemaError(
                    f"row of arity {len(row)} does not match "
                    f"{arity}-column table {self.name!r}"
                )
            yield tuple(row)

    def insert(self, row: Sequence[Any]) -> None:
        self.insert_many((row,))

    def insert_many(
        self, rows: Iterable[Sequence[Any]], size_of: Sizer = record_size
    ) -> None:
        """Insert *rows*; an index-less table spills them a page at a
        time (:meth:`HeapFile.extend`, which documents ``size_of``)."""
        if self.pk_index is None:
            self.heap.extend(self._checked(rows), size_of)
            return
        for row in self._checked(rows):
            self.pk_index.insert(row[self._pk_position], self.heap.append(row))

    def scan(self) -> Iterator[Tuple[Any, ...]]:
        """Full scan, page by page through the buffer pool."""
        return self.heap.records()

    def fetch_by_key(self, key: Any) -> Optional[Tuple[Any, ...]]:
        """Primary-index point lookup; None if absent."""
        if self.pk_index is None:
            raise SchemaError(f"table {self.name!r} has no primary index")
        rid = self.pk_index.search(key)
        if rid is None:
            return None
        return self.heap.read(rid)

    def drop(self) -> None:
        """Release the table's heap pages (index-less tables only —
        temporal tables are the ones that die young)."""
        if self.pk_index is not None:
            raise SchemaError(f"cannot drop indexed table {self.name!r}")
        self.heap.drop()

    def project(self, columns: Sequence[str]) -> List[Tuple[Any, ...]]:
        positions = [self.column_position(c) for c in columns]
        return [tuple(row[p] for p in positions) for row in self.scan()]

    # ------------------------------------------------------------------
    @property
    def page_count(self) -> int:
        return self.heap.page_count

    def __len__(self) -> int:
        return len(self.heap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name!r}, columns={self.columns}, rows={len(self)})"
