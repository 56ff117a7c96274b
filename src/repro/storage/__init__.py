"""Simulated storage engine: pages, buffer pool, heap files, B+-trees."""

from .buffer import DEFAULT_BUFFER_BYTES, BufferPool
from .extsort import SortStats, external_sort
from .bptree import BPlusTree
from .heapfile import HeapFile
from .pages import DEFAULT_PAGE_SIZE, DiskManager, Page, record_size
from .snapshot import (
    SNAPSHOT_MAGIC,
    Snapshot,
    SnapshotError,
    encode_snapshot,
    write_snapshot,
)
from .stats import IOStats
from .table import SchemaError, Table

__all__ = [
    "SNAPSHOT_MAGIC",
    "Snapshot",
    "SnapshotError",
    "encode_snapshot",
    "write_snapshot",
    "DEFAULT_BUFFER_BYTES",
    "DEFAULT_PAGE_SIZE",
    "BufferPool",
    "SortStats",
    "external_sort",
    "BPlusTree",
    "HeapFile",
    "DiskManager",
    "Page",
    "record_size",
    "IOStats",
    "SchemaError",
    "Table",
]
