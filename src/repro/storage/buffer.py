"""LRU buffer pool over the simulated disk.

The paper's experiments run with a 1 MiB buffer (Section 6: "the buffer
size we used in our testing is 1MB for I/O access"), which is this module's
default.  All page traffic from heap files and B+-trees flows through
:meth:`BufferPool.fetch` (one logical read per page touched) and
:meth:`BufferPool.new_page` (a physical write once evicted dirty) — never
per record: a heap file gathers a bulk write in one output-buffer page
outside this pool's capacity.  The shared
:class:`~repro.storage.stats.IOStats` therefore sees exactly the
page-miss behaviour a real bounded buffer would produce — the effect
that makes DP's larger intermediate results cost "over five times the
I/O" of DPS at scale.

Concurrency: the page table (frame map + LRU order + victim write-back)
is guarded by one re-entrant lock, making ``fetch``/``new_page`` safe
under the service's fine-grained live tier where concurrent queries
traverse B+-trees over the same pool.  The lock is re-entrant because
``clear`` nests ``flush_all``.  Every charge lands on the one
:attr:`stats` counter, under that lock, so totals stay exact when
queries overlap.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional

from .pages import DiskManager, Page
from .stats import IOStats

DEFAULT_BUFFER_BYTES = 1 << 20  # 1 MiB, as in the paper's test setup


class BufferPool:
    """A fixed-capacity LRU cache of pages with I/O accounting."""

    def __init__(
        self,
        disk: Optional[DiskManager] = None,
        capacity_bytes: int = DEFAULT_BUFFER_BYTES,
        stats: Optional[IOStats] = None,
    ) -> None:
        self.disk = disk or DiskManager()
        self.stats = stats or IOStats()
        self.frame_count = max(1, capacity_bytes // self.disk.page_size)
        self._frames: "OrderedDict[int, Page]" = OrderedDict()
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    def new_page(self) -> Page:
        """Allocate a fresh page and admit it into the pool.

        Allocation is *not* an I/O event: no existing page is read, so
        neither ``logical_reads`` nor ``physical_reads`` moves.  The
        first write-back of the (dirty) page is what shows up in
        ``physical_writes``.  This is the contract the I/O-count
        assertions throughout the test suite are calibrated against.
        """
        with self._lock:
            page = self.disk.allocate()
            self._admit(page)
            return page

    def fetch(self, page_id: int) -> Page:
        """Return the page, reading it from disk on a miss."""
        with self._lock:
            stats = self.stats
            stats.logical_reads += 1
            frame = self._frames.get(page_id)
            if frame is not None:
                self._frames.move_to_end(page_id)
                return frame
            stats.physical_reads += 1
            page = self.disk.read_page(page_id)
            self._admit(page)
            return page

    def flush_all(self) -> None:
        """Write back every dirty page without evicting anything."""
        with self._lock:
            for page in self._frames.values():
                if page.dirty:
                    self._write_back(page)

    def clear(self) -> None:
        """Flush and drop every frame — simulates a cold cache."""
        with self._lock:
            self.flush_all()
            self._frames.clear()

    def discard(self, page_ids) -> None:
        """Drop pages of a dead table: evict their frames *without*
        write-back (nobody will read them again, so flushing them would
        be pure physical I/O) and free them on disk."""
        with self._lock:
            for page_id in page_ids:
                self._frames.pop(page_id, None)
                self.disk.free(page_id)

    @property
    def resident_pages(self) -> int:
        return len(self._frames)

    # ------------------------------------------------------------------
    def _admit(self, page: Page) -> None:
        self._frames[page.page_id] = page
        self._frames.move_to_end(page.page_id)
        while len(self._frames) > self.frame_count:
            _, victim = self._frames.popitem(last=False)
            if victim.dirty:
                self._write_back(victim)

    def _write_back(self, page: Page) -> None:
        self.stats.physical_writes += 1
        self.disk.write_page(page)
        page.dirty = False
