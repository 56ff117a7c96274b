"""Pages and the simulated disk.

The storage engine models a disk as a flat array of fixed-size pages.  A
:class:`Page` is a slotted container of Python records with a simulated
byte budget — records are not actually serialized, but each record is
charged an estimated on-disk size so that page counts (and therefore I/O
counts) track what a C++ implementation over 4 KiB pages would see.

The size model charges 4 bytes per int, 1 byte per character of a string,
and recursively sums containers, plus a small per-record slot overhead.
This is intentionally simple; what matters to the reproduction is that all
competitors are charged by the *same* model.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Tuple

DEFAULT_PAGE_SIZE = 4096
SLOT_OVERHEAD = 8  # slot-directory entry + record header, in simulated bytes

RecordId = Tuple[int, int]  # (page_id, slot)
Sizer = Callable[[Any], int]  # a record's simulated size, as record_size has it


def record_size(record: Any) -> int:
    """Estimated serialized size of *record*, in bytes."""
    if record is None:
        return 1
    if isinstance(record, bool):
        return 1
    if isinstance(record, int):
        return 4
    if isinstance(record, float):
        return 8
    if isinstance(record, str):
        return len(record) + 1
    if isinstance(record, (bytes, bytearray)):
        return len(record)
    if isinstance(record, (tuple, list, set, frozenset)):
        return 4 + sum(record_size(item) for item in record)
    if isinstance(record, dict):
        return 4 + sum(record_size(k) + record_size(v) for k, v in record.items())
    raise TypeError(f"unsupported record component: {type(record).__name__}")


class Page:
    """A slotted page holding whole records within a byte budget."""

    __slots__ = ("page_id", "capacity", "used", "records", "dirty")

    def __init__(self, page_id: int, capacity: int = DEFAULT_PAGE_SIZE) -> None:
        self.page_id = page_id
        self.capacity = capacity
        self.used = 0
        self.records: List[Any] = []
        self.dirty = False

    def free_space(self) -> int:
        return self.capacity - self.used

    def fill(self, records: List[Any], used: int) -> None:
        """Admit *records* charged *used* bytes in all: what the heap
        file's output buffer gathered under the fill rule (their sizes,
        slot overhead included), or a B+-tree's one node, charged 0 —
        fanout, not bytes, bounds a node (see :meth:`put_untracked`)."""
        self.records.extend(records)
        self.used += used
        self.dirty = True

    def get(self, slot: int) -> Any:
        return self.records[slot]

    def put_untracked(self, slot: int, record: Any) -> None:
        """Replace a record without re-measuring its size.

        For page types whose structure is governed by an external limit
        (B+-tree nodes split on fanout, one node per page), re-measuring
        the whole record on every update is pure overhead; the byte
        budget is irrelevant to their I/O behaviour.
        """
        self.records[slot] = record
        self.dirty = True

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.records)


class DiskManager:
    """The simulated disk: allocates and stores pages by id.

    Reads and writes here represent *physical* I/O; the buffer pool is the
    only component that should call :meth:`read_page` / :meth:`write_page`.
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        self.page_size = page_size
        self._pages: Dict[int, Page] = {}
        self._next_id = 0

    def allocate(self) -> Page:
        page = Page(self._next_id, self.page_size)
        self._pages[self._next_id] = page
        self._next_id += 1
        return page

    def read_page(self, page_id: int) -> Page:
        try:
            return self._pages[page_id]
        except KeyError:
            raise KeyError(f"page {page_id} was never allocated") from None

    def write_page(self, page: Page) -> None:
        self._pages[page.page_id] = page

    def free(self, page_id: int) -> None:
        """Release a page for good (its table was dropped); ids are
        never reused, so a stale reference fails loudly in
        :meth:`read_page`."""
        self._pages.pop(page_id, None)

    @property
    def page_count(self) -> int:
        """Pages currently allocated (freed pages no longer count)."""
        return len(self._pages)
