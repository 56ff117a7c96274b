"""Tests for pages, disk manager, buffer pool and heap files."""

import random

import pytest

from repro.storage.buffer import BufferPool
from repro.storage.heapfile import HeapFile
from repro.storage.pages import DiskManager, Page, record_size
from repro.storage.stats import IOStats


class TestRecordSize:
    def test_scalars(self):
        assert record_size(5) == 4
        assert record_size(3.14) == 8
        assert record_size(True) == 1
        assert record_size(None) == 1
        assert record_size("abc") == 4
        assert record_size(b"abc") == 3

    def test_containers_recursive(self):
        assert record_size((1, 2)) == 4 + 8
        assert record_size([1, (2, 3)]) == 4 + 4 + (4 + 8)
        assert record_size({"a": 1}) == 4 + 2 + 4

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            record_size(object())


class TestPage:
    def test_fill_and_get(self):
        page = Page(0, capacity=256)
        page.fill([(1, 2, 3)], 24)
        assert page.get(0) == (1, 2, 3)
        assert len(page) == 1
        assert page.used == 24 and page.dirty

    def test_put_untracked_keeps_budget(self):
        page = Page(0, capacity=256)
        page.fill([(1,)], 16)
        used_before = page.used
        page.put_untracked(0, tuple(range(50)))
        assert page.used == used_before
        assert page.dirty


class TestDiskManager:
    def test_allocate_sequential_ids(self):
        disk = DiskManager()
        assert disk.allocate().page_id == 0
        assert disk.allocate().page_id == 1
        assert disk.page_count == 2

    def test_read_unallocated_raises(self):
        with pytest.raises(KeyError):
            DiskManager().read_page(7)

    def test_free_releases_the_page_and_never_reuses_its_id(self):
        disk = DiskManager()
        first = disk.allocate().page_id
        disk.free(first)
        assert disk.page_count == 0
        with pytest.raises(KeyError):
            disk.read_page(first)
        assert disk.allocate().page_id != first


class TestBufferPool:
    def _pool(self, frames: int) -> BufferPool:
        disk = DiskManager(page_size=64)
        return BufferPool(disk, capacity_bytes=64 * frames, stats=IOStats())

    def test_fetch_hit_after_new_page(self):
        pool = self._pool(4)
        page = pool.new_page()
        fetched = pool.fetch(page.page_id)
        assert fetched is page
        assert pool.stats.physical_reads == 0
        assert pool.stats.logical_reads == 1

    def test_new_page_is_not_an_io_event(self):
        """Allocation moves no read counter — the documented contract.

        ``new_page`` admits a fresh frame without reading anything, so
        ``logical_reads``/``physical_reads`` stay put; the page's first
        write-back is what lands in ``physical_writes``.  Every
        I/O-count assertion in the suite is calibrated against this.
        """
        pool = self._pool(4)
        for _ in range(3):
            pool.new_page()
        assert pool.stats.logical_reads == 0
        assert pool.stats.physical_reads == 0
        assert pool.stats.physical_writes == 0

    def test_discard_drops_dirty_frames_without_write_back(self):
        pool = self._pool(4)
        pages = [pool.new_page() for _ in range(3)]
        for page in pages:
            page.fill([(1,)], 16)  # dirty
        pool.discard([page.page_id for page in pages[:2]])
        assert pool.resident_pages == 1
        assert pool.disk.page_count == 1
        pool.flush_all()
        assert pool.stats.physical_writes == 1  # only the surviving page

    def test_eviction_causes_physical_read(self):
        pool = self._pool(2)
        pages = [pool.new_page() for _ in range(3)]  # evicts pages[0]
        assert pool.resident_pages == 2
        pool.fetch(pages[0].page_id)  # miss
        assert pool.stats.physical_reads == 1

    def test_lru_keeps_recently_used(self):
        pool = self._pool(2)
        p0 = pool.new_page()
        p1 = pool.new_page()
        pool.fetch(p0.page_id)   # p1 is now LRU
        pool.new_page()          # evicts p1
        pool.fetch(p0.page_id)
        assert pool.stats.physical_reads == 0
        pool.fetch(p1.page_id)
        assert pool.stats.physical_reads == 1

    def test_dirty_eviction_writes_back(self):
        pool = self._pool(1)
        page = pool.new_page()
        page.fill([(1,)], 16)
        pool.new_page()  # evicts the dirty page
        assert pool.stats.physical_writes == 1
        refetched = pool.fetch(page.page_id)
        assert refetched.get(0) == (1,)

    def test_hit_ratio(self):
        pool = self._pool(4)
        page = pool.new_page()
        for _ in range(9):
            pool.fetch(page.page_id)
        assert pool.stats.hit_ratio == 1.0

    def test_clear_cold_starts(self):
        pool = self._pool(4)
        page = pool.new_page()
        pool.clear()
        pool.fetch(page.page_id)
        assert pool.stats.physical_reads == 1


class TestIOStats:
    def test_delta_since(self):
        stats = IOStats()
        stats.physical_reads = 5
        snap = stats.snapshot()
        stats.physical_reads = 12
        stats.record_lookup("pk")
        delta = stats.delta_since(snap)
        assert delta.physical_reads == 7
        assert delta.index_lookups == {"pk": 1}

    def test_reset(self):
        stats = IOStats()
        stats.logical_reads = 3
        stats.record_lookup("x")
        stats.reset()
        assert stats.logical_reads == 0
        assert stats.index_lookups == {}


class TestHeapFile:
    def _heap(self) -> HeapFile:
        pool = BufferPool(DiskManager(page_size=128), capacity_bytes=1024)
        return HeapFile(pool)

    def test_append_and_read(self):
        heap = self._heap()
        rid = heap.append((1, 2))
        assert heap.read(rid) == (1, 2)
        assert len(heap) == 1

    def test_scan_order_preserved(self):
        heap = self._heap()
        rows = [(i, i * i) for i in range(50)]
        heap.extend(rows)
        assert list(heap.records()) == rows
        assert heap.page_count > 1  # spilled past one page

    def test_scan_yields_record_ids(self):
        heap = self._heap()
        rids = [heap.append((i,)) for i in range(10)]
        scanned = [rid for rid, _ in heap.scan()]
        assert scanned == rids

    def test_full_scan_costs_page_reads(self):
        heap = self._heap()
        heap.extend((i,) for i in range(100))
        heap.pool.stats.reset()
        list(heap.records())
        assert heap.pool.stats.logical_reads == heap.page_count


def _row_mix(seed: int, count: int):
    """Seeded temporal-table-shaped rows: ints plus 0-2 center tuples of
    uneven length, with an occasional record bigger than a whole page."""
    rng = random.Random(seed)
    rows = []
    for i in range(count):
        centers = tuple(
            tuple(rng.randrange(1000) for _ in range(rng.choice((0, 1, 3, 9))))
            for _ in range(rng.randrange(3))
        )
        if rng.random() < 0.03:
            centers += (tuple(range(60)),)  # 252B: alone on a 128B page
        rows.append((i, rng.randrange(1000)) + centers)
    return rows


def _pages(heap: HeapFile):
    """Per-page record lists, in file order."""
    pages = {}
    for (page_id, _), record in heap.scan():
        pages.setdefault(page_id, []).append(record)
    return list(pages.values())


class TestBulkSpill:
    """``extend`` is ``append`` in a loop as far as the pages can tell,
    and is charged per page, not per record."""

    def _heap(self) -> HeapFile:
        pool = BufferPool(DiskManager(page_size=128), capacity_bytes=1 << 14)
        return HeapFile(pool)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("prefix", (0, 1, 7))
    def test_extend_equals_append_loop(self, seed, prefix):
        rows = _row_mix(seed, 200)
        bulk, one_by_one = self._heap(), self._heap()
        for heap in (bulk, one_by_one):
            for row in rows[:prefix]:  # leaves a half-full tail page to top up
                heap.append(row)
        bulk.extend(rows[prefix:])
        for row in rows[prefix:]:
            one_by_one.append(row)
        assert _pages(bulk) == _pages(one_by_one)
        assert bulk.page_count == one_by_one.page_count
        assert len(bulk) == len(one_by_one) == len(rows)
        assert list(bulk.records()) == rows

    def test_oversized_record_sits_alone_on_its_page(self):
        heap = self._heap()
        big = tuple(range(100))
        heap.extend([(1,), big, (2,), (3,)])
        assert _pages(heap) == [[(1,)], [big], [(2,), (3,)]]

    def test_empty_input_allocates_nothing(self):
        heap = self._heap()
        heap.extend(iter(()))
        assert (heap.page_count, len(heap)) == (0, 0)
        heap.append((1,))
        heap.extend([])
        assert (heap.page_count, len(heap)) == (1, 1)

    def test_size_of_replaces_record_size(self):
        rows = [(i, i) for i in range(40)]
        sized, generic = self._heap(), self._heap()
        sized.extend(rows, size_of=lambda row: 12)
        generic.extend(rows)
        assert _pages(sized) == _pages(generic)

    def test_spill_charges_no_read_per_record(self):
        heap = self._heap()
        heap.pool.stats.reset()
        heap.extend((i, i) for i in range(100))
        assert heap.page_count > 5
        assert heap.pool.stats.logical_reads == 0

    def test_topping_up_charges_exactly_one_read(self):
        heap = self._heap()
        heap.append((0, 0))
        heap.pool.stats.reset()
        heap.extend((i, i) for i in range(1, 100))
        assert heap.page_count > 5
        assert heap.pool.stats.logical_reads == 1

    def test_rows_before_a_failing_source_are_kept(self):
        def source():
            yield from ((i, i) for i in range(30))
            raise RuntimeError("source died")

        heap = self._heap()
        with pytest.raises(RuntimeError):
            heap.extend(source())
        assert list(heap.records()) == [(i, i) for i in range(30)]
