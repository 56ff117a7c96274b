"""Heap files: unordered record storage over the buffer pool.

A heap file is the backing store for base tables and temporal tables.  It
fills each page before allocating the next and is charged I/O per *page*,
as the paper's cost model prices it (Table 1): a scan of a file with P
pages costs P logical reads — the ``IO_D * |T_R|`` term — and a bulk
write costs nothing per record.  Records gather in one in-memory
output-buffer page, a frame of its own outside the pool's capacity; each
filled page enters the pool with one ``new_page()`` (no read charged) and
is a physical write when evicted dirty.  Only topping up a half-full
tail page reads anything: one fetch of that page.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Tuple

from .buffer import BufferPool
from .pages import SLOT_OVERHEAD, Page, RecordId, Sizer, record_size


class HeapFile:
    """An append-only sequence of records spread across pages."""

    def __init__(self, pool: BufferPool, name: str = "heap") -> None:
        self.pool = pool
        self.name = name
        self._page_ids: List[int] = []
        self._record_count = 0
        self._tail_free = 0  # bytes left on the last page (0: no page yet)

    # ------------------------------------------------------------------
    def append(self, record: Any) -> RecordId:
        """Append a record, returning its (page_id, slot) record id."""
        size = record_size(record) + SLOT_OVERHEAD
        page = self._admit([record], size, top_up=size <= self._tail_free)
        return (page.page_id, len(page) - 1)

    def extend(self, records: Iterable[Any], size_of: Sizer = record_size) -> None:
        """Append *records* a page at a time through the output buffer;
        if *records* raises, those it produced before that are kept.
        ``size_of`` must agree with :func:`record_size` (callers that know
        their records' shape pass something cheaper)."""
        capacity = self.pool.disk.page_size
        buffer, used, free, top_up = [], 0, self._tail_free, bool(self._page_ids)
        try:
            for record in records:
                size = size_of(record) + SLOT_OVERHEAD
                if size > free:
                    if buffer:
                        self._admit(buffer, used, top_up)
                    buffer, used, free, top_up = [], 0, capacity, False
                buffer.append(record)
                used += size
                free -= size
        finally:
            if buffer:
                self._admit(buffer, used, top_up)

    def _admit(self, records: List[Any], used: int, top_up: bool) -> Page:
        """Move the output buffer onto the tail page or onto a new one."""
        if top_up:
            page = self.pool.fetch(self._page_ids[-1])
        else:
            page = self.pool.new_page()
            self._page_ids.append(page.page_id)
        page.fill(records, used)
        self._tail_free = page.free_space()
        self._record_count += len(records)
        return page

    def read(self, rid: RecordId) -> Any:
        page_id, slot = rid
        return self.pool.fetch(page_id).get(slot)

    def scan(self) -> Iterator[Tuple[RecordId, Any]]:
        """Yield every (record id, record), page by page."""
        for page_id in self._page_ids:
            for slot, record in enumerate(self.pool.fetch(page_id)):
                yield ((page_id, slot), record)

    def records(self) -> Iterator[Any]:
        for page_id in self._page_ids:
            yield from self.pool.fetch(page_id)

    def drop(self) -> None:
        """Discard every page (no write-back); the file is empty after."""
        self.pool.discard(self._page_ids)
        self._page_ids = []
        self._record_count = 0
        self._tail_free = 0

    # ------------------------------------------------------------------
    @property
    def page_count(self) -> int:
        return len(self._page_ids)

    def __len__(self) -> int:
        return self._record_count
