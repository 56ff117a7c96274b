"""Tests for the relational table layer."""

import random

import pytest

from repro.analysis.sanitizer import SanitizerError
from repro.query.algebra import RowLimitExceeded, Side, TemporalTable
from repro.storage.buffer import BufferPool
from repro.storage.pages import DiskManager, record_size
from repro.storage.table import SchemaError, Table


def make_table(primary_key="id"):
    pool = BufferPool(DiskManager(page_size=256), capacity_bytes=1 << 16)
    return Table(pool, name="T", columns=("id", "x", "y"), primary_key=primary_key)


class TestSchema:
    def test_duplicate_columns_rejected(self):
        pool = BufferPool(DiskManager())
        with pytest.raises(SchemaError):
            Table(pool, "T", columns=("a", "a"))

    def test_unknown_primary_key_rejected(self):
        pool = BufferPool(DiskManager())
        with pytest.raises(SchemaError):
            Table(pool, "T", columns=("a",), primary_key="b")

    def test_wrong_arity_insert_rejected(self):
        table = make_table()
        with pytest.raises(SchemaError):
            table.insert((1, 2))

    def test_column_position(self):
        table = make_table()
        assert table.column_position("y") == 2
        with pytest.raises(SchemaError):
            table.column_position("z")


class TestData:
    def test_insert_scan_roundtrip(self):
        table = make_table()
        rows = [(i, i * 2, i * 3) for i in range(30)]
        table.insert_many(rows)
        assert list(table.scan()) == rows
        assert len(table) == 30

    def test_fetch_by_key(self):
        table = make_table()
        table.insert_many((i, i, i) for i in range(50))
        assert table.fetch_by_key(17) == (17, 17, 17)
        assert table.fetch_by_key(999) is None

    def test_fetch_without_index_raises(self):
        table = make_table(primary_key=None)
        table.insert((1, 2, 3))
        with pytest.raises(SchemaError):
            table.fetch_by_key(1)

    def test_project(self):
        table = make_table()
        table.insert_many([(1, 10, 100), (2, 20, 200)])
        assert table.project(["y", "id"]) == [(100, 1), (200, 2)]

    def test_fetch_uses_primary_index(self):
        table = make_table()
        table.insert_many((i, 0, 0) for i in range(100))
        table.pool.stats.reset()
        table.fetch_by_key(42)
        # exactly one pk descent plus one heap page read
        assert table.pool.stats.index_lookups.get("T.pk") == 1
        # descent (height) + leaf re-read + one heap page
        assert table.pool.stats.logical_reads == table.pk_index.height + 2


class TestBulkInsert:
    def test_index_less_table_spills_by_the_page(self):
        table = make_table(primary_key=None)
        table.pool.stats.reset()
        table.insert_many((i, i, i) for i in range(100))
        assert table.page_count > 1
        assert table.pool.stats.logical_reads == 0
        assert list(table.scan()) == [(i, i, i) for i in range(100)]

    def test_arity_is_checked_on_every_row(self):
        table = make_table(primary_key=None)
        with pytest.raises(SchemaError):
            table.insert_many([(1, 2, 3), (4, 5), (6, 7, 8)])
        assert list(table.scan()) == [(1, 2, 3)]


KEYS = [(("a", "b"), Side.OUT), (("a", "c"), Side.OUT), (("d", "a"), Side.IN)]


def temporal(pending_columns):
    pool = BufferPool(DiskManager(page_size=256), capacity_bytes=1 << 16)
    return TemporalTable(pool, ("a", "e"), pending=KEYS[:pending_columns])


class TestTemporalTableSpill:
    @pytest.mark.parametrize("pending_columns", (0, 1, 2, 3))
    @pytest.mark.parametrize("seed", range(5))
    def test_layout_size_is_record_size(self, pending_columns, seed):
        rng = random.Random(seed)
        table = temporal(pending_columns)
        for _ in range(200):
            row = (rng.randrange(10**6), rng.randrange(10**6)) + tuple(
                tuple(rng.randrange(10**6) for _ in range(rng.choice((0, 0, 1, 5))))
                for _ in range(pending_columns)
            )
            assert table.row_size(row) == record_size(row)

    def test_spill_pages_match_a_generically_sized_table(self):
        rng = random.Random(3)
        rows = [
            (i, i, tuple(range(rng.randrange(6))), tuple(range(rng.randrange(3))))
            for i in range(300)
        ]
        table = temporal(2)
        table.insert_many(rows)
        plain = Table(table.table.pool, "plain", columns=("a", "e", "c0", "c1"))
        plain.insert_many(rows)
        assert table.page_count == plain.page_count
        assert list(table.scan()) == rows

    def test_abort_mid_bulk_then_drop_frees_every_page(self):
        table = temporal(0)
        disk = table.table.pool.disk
        before = disk.page_count

        def rows():  # an operator whose guard trips mid-spill
            for i in range(500):
                if i == 50:
                    raise RowLimitExceeded("operator exceeded 50 rows")
                yield (i, i)

        with pytest.raises(RowLimitExceeded):
            table.insert_many(rows())
        assert len(table) == 50  # every row before the guard fired is kept
        assert disk.page_count > before
        table.drop()
        assert disk.page_count == before

    def test_sanitize_trips_on_a_wrong_layout_size(self):
        table = temporal(1)
        table.row_size = lambda row: 16  # forgets the centers
        table.insert_many([(1, 2, ())], sanitize=True)  # 4+8+4: agrees
        with pytest.raises(SanitizerError):
            table.insert_many([(1, 2, (7, 8))], sanitize=True)
