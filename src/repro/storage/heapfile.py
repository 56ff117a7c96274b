"""Heap files: unordered record storage over the buffer pool.

A heap file is the backing store for base tables and temporal tables.  It
appends records into pages (filling each before allocating the next) and
iterates them page-at-a-time through the buffer pool, so a full scan of a
file with P pages costs P logical page reads — exactly the ``IO_D * |T_R|``
scan term of the paper's cost model (Table 1).
"""

from __future__ import annotations

from typing import Any, Iterator, List, Tuple

from .buffer import BufferPool
from .pages import Page, PageFullError, RecordId


class HeapFile:
    """An append-only sequence of records spread across pages."""

    def __init__(self, pool: BufferPool, name: str = "heap") -> None:
        self.pool = pool
        self.name = name
        self._page_ids: List[int] = []
        self._record_count = 0

    # ------------------------------------------------------------------
    def append(self, record: Any) -> RecordId:
        """Append a record, returning its (page_id, slot) record id."""
        if self._page_ids:
            page = self.pool.fetch(self._page_ids[-1])
            try:
                slot = page.append(record)
                self._record_count += 1
                return (page.page_id, slot)
            except PageFullError:
                pass
        page = self.pool.new_page()
        self._page_ids.append(page.page_id)
        slot = page.append(record)
        self._record_count += 1
        return (page.page_id, slot)

    def extend(self, records) -> None:
        for record in records:
            self.append(record)

    def read(self, rid: RecordId) -> Any:
        page_id, slot = rid
        return self.pool.fetch(page_id).get(slot)

    def scan(self) -> Iterator[Tuple[RecordId, Any]]:
        """Yield every (record id, record), page by page."""
        for page_id in self._page_ids:
            page: Page = self.pool.fetch(page_id)
            for slot in range(len(page)):
                yield ((page_id, slot), page.get(slot))

    def records(self) -> Iterator[Any]:
        for _, record in self.scan():
            yield record

    def drop(self) -> None:
        """Discard every page (no write-back); the file is empty after."""
        self.pool.discard(self._page_ids)
        self._page_ids = []
        self._record_count = 0

    # ------------------------------------------------------------------
    @property
    def page_count(self) -> int:
        return len(self._page_ids)

    def __len__(self) -> int:
        return self._record_count
