"""Tests for the binary snapshot format and its lazy read path.

Covers the persistence contracts of the snapshot subsystem:

* round trip — a snapshot-loaded database answers exactly like the
  database that wrote it (codes, reachability, queries, catalog);
* byte stability — save → load → save produces identical bytes, for
  both the JSON and the binary format (the writer reads only public
  surfaces, so the backing store must not leak into the output);
* corruption — any flipped byte or truncation yields a clean
  :class:`SnapshotError` from ``Snapshot.open``, never garbage data;
* laziness — opening a snapshot decodes nothing; queries decode only
  the rows they touch; base tables materialize per label on demand;
* no views — nothing any accessor returns can pin the mapping.
"""

import struct
import zlib

import pytest

from repro.analysis import audit_database, audit_snapshot
from repro.db.database import GraphDatabase
from repro.db.join_index import SnapshotRJoinIndex
from repro.db.persist import load_database, save_database
from repro.graph import xmark
from repro.graph.generators import figure1_graph, random_digraph
from repro.query.engine import GraphEngine
from repro.storage.snapshot import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    Snapshot,
    SnapshotError,
    is_snapshot,
    write_snapshot,
)


@pytest.fixture(scope="module")
def built_db():
    data = xmark.generate(factor=0.1, entity_budget=500, seed=3)
    return GraphDatabase(data.graph)


@pytest.fixture(scope="module")
def snap_path(built_db, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("snap") / "db.snap")
    write_snapshot(built_db, path)
    return path


class TestFormat:
    def test_magic_and_detection(self, snap_path, tmp_path):
        with open(snap_path, "rb") as f:
            assert f.read(8) == SNAPSHOT_MAGIC
        assert is_snapshot(snap_path)
        json_path = str(tmp_path / "db.json")
        save_database(GraphDatabase(figure1_graph()), json_path)
        assert not is_snapshot(json_path)
        assert not is_snapshot(str(tmp_path / "missing"))

    def test_save_format_inference(self, built_db, tmp_path):
        snap = tmp_path / "a.snap"
        js = tmp_path / "a.json"
        save_database(built_db, str(snap))
        save_database(built_db, str(js))
        assert is_snapshot(str(snap))
        assert js.read_bytes().startswith(b"{")
        forced = tmp_path / "forced.bin"
        save_database(built_db, str(forced), format="snapshot")
        assert is_snapshot(str(forced))
        with pytest.raises(ValueError):
            save_database(built_db, str(tmp_path / "x"), format="pickle")

    def test_section_table_is_inspectable(self, snap_path):
        snapshot = Snapshot.open(snap_path)
        try:
            names = [name for name, _, _ in snapshot.section_table()]
            assert "meta" in names and "subval" in names
            offsets = [offset for _, offset, _ in snapshot.section_table()]
            assert offsets == sorted(offsets)
            assert all(offset % 8 == 0 for offset in offsets)
        finally:
            snapshot.close()


class TestRoundTrip:
    def test_structures_survive(self, built_db, snap_path):
        loaded = load_database(snap_path)
        assert isinstance(loaded.join_index, SnapshotRJoinIndex)
        assert loaded.graph.node_count == built_db.graph.node_count
        assert loaded.graph.edge_count == built_db.graph.edge_count
        assert list(loaded.graph.labels()) == list(built_db.graph.labels())
        assert loaded.labels() == built_db.labels()
        assert loaded.join_index.center_count == built_db.join_index.center_count
        assert (
            loaded.join_index.wtable_sizes() == built_db.join_index.wtable_sizes()
        )
        assert loaded.catalog.extent_sizes == built_db.catalog.extent_sizes
        assert loaded.catalog.all_pairs() == built_db.catalog.all_pairs()

    def test_codes_and_reachability_identical(self, tmp_path):
        g = random_digraph(30, 0.12, seed=5)
        db = GraphDatabase(g)
        path = str(tmp_path / "r.snap")
        save_database(db, path)
        loaded = load_database(path)
        for v in g.nodes():
            assert loaded.labeling.in_codes[v] == db.labeling.in_codes[v]
            assert loaded.labeling.out_codes[v] == db.labeling.out_codes[v]
            assert list(loaded.code_run(v, "in")) == list(db.code_run(v, "in"))
            assert list(loaded.code_run(v, "out")) == list(db.code_run(v, "out"))
        for u in g.nodes():
            for v in g.nodes():
                assert db.reaches(u, v) == loaded.reaches(u, v)

    def test_subclusters_identical(self, built_db, snap_path):
        loaded = load_database(snap_path)
        truth = {
            center: (f_sub, t_sub)
            for center, f_sub, t_sub in built_db.join_index.cluster_items()
        }
        seen = set()
        for center, f_sub, t_sub in loaded.join_index.cluster_items():
            assert truth[center] == (f_sub, t_sub)
            seen.add(center)
        assert seen == set(truth)
        # point probes agree with the bulk scan
        some = sorted(truth)[: 5]
        for center in some:
            assert loaded.join_index.get_ft(center) == truth[center]
        assert loaded.join_index.get_ft(-1) == ({}, {})

    def test_snapshot_loaded_db_passes_full_audit(self, snap_path):
        loaded = load_database(snap_path)
        assert audit_database(loaded) == []


class TestByteStability:
    def test_binary_save_load_save_is_byte_stable(self, built_db, tmp_path):
        first = tmp_path / "a.snap"
        second = tmp_path / "b.snap"
        save_database(built_db, str(first))
        save_database(load_database(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_json_save_load_save_is_byte_stable(self, built_db, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_database(built_db, str(first))
        save_database(load_database(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_json_to_snapshot_to_json_preserves_labeling(self, built_db, tmp_path):
        """Crossing formats keeps the labeling identical both ways."""
        js, snap, js2 = (
            tmp_path / "a.json", tmp_path / "a.snap", tmp_path / "b.json"
        )
        save_database(built_db, str(js))
        save_database(load_database(str(js)), str(snap))
        save_database(load_database(str(snap)), str(js2))
        assert js.read_bytes() == js2.read_bytes()


class TestCorruption:
    def test_truncations_raise_snapshot_error(self, snap_path, tmp_path):
        payload = open(snap_path, "rb").read()
        bad = tmp_path / "t.snap"
        # every kind of short file: empty, header-only, cut mid-section,
        # cut mid-TOC, one byte short
        for cut in (0, 4, 16, len(payload) // 2, len(payload) - 41, len(payload) - 1):
            bad.write_bytes(payload[:cut])
            with pytest.raises(SnapshotError):
                Snapshot.open(str(bad))

    def test_flipped_bytes_raise_snapshot_error(self, snap_path, tmp_path):
        payload = bytearray(open(snap_path, "rb").read())
        bad = tmp_path / "f.snap"
        # march a bit flip across the whole file; every position must be
        # caught by the magic, geometry or CRC checks
        step = max(1, len(payload) // 64)
        for position in range(0, len(payload), step):
            corrupted = bytearray(payload)
            corrupted[position] ^= 0xFF
            bad.write_bytes(bytes(corrupted))
            with pytest.raises(SnapshotError):
                Snapshot.open(str(bad))

    def test_foreign_files_rejected(self, tmp_path):
        for content in (b"", b"not a snapshot", b'{"format_version": 1}'):
            path = tmp_path / "foreign"
            path.write_bytes(content)
            with pytest.raises(SnapshotError):
                Snapshot.open(str(path))

    def test_future_version_rejected(self, snap_path, tmp_path):
        payload = bytearray(open(snap_path, "rb").read())
        payload[8] = 99  # header version field
        bad = tmp_path / "v.snap"
        bad.write_bytes(bytes(payload))
        with pytest.raises(SnapshotError, match="version"):
            Snapshot.open(str(bad))

    def test_version_1_header_rejected(self, tmp_path):
        """A file of the retired format fails on its version field, before
        any of its (differently laid out) sections is looked at."""
        assert SNAPSHOT_VERSION == 2
        old = tmp_path / "v1.snap"
        old.write_bytes(
            struct.pack("<8sII", SNAPSHOT_MAGIC, 1, 1) + b"\x00" * 64
        )
        with pytest.raises(SnapshotError, match="snapshot version 1"):
            Snapshot.open(str(old))

    def test_audit_snapshot_clean_and_unreadable(self, snap_path, tmp_path):
        assert audit_snapshot(snap_path) == []
        bad = tmp_path / "bad.snap"
        bad.write_bytes(open(snap_path, "rb").read()[:100])
        findings = audit_snapshot(str(bad))
        assert findings and findings[0].rule == "snapshot/unreadable"


class TestLaziness:
    def test_open_decodes_nothing(self, snap_path):
        loaded = load_database(snap_path)
        stats = loaded.join_index.snapshot.decode_stats
        assert stats == {
            "code_rows": 0, "wtable_pairs": 0, "subcluster_runs": 0,
        }
        assert loaded.base_tables == {}

    def test_query_decodes_only_what_it_touches(self, built_db, snap_path):
        loaded = load_database(snap_path)
        engine = GraphEngine.from_database(loaded)
        oracle = GraphEngine.from_database(built_db)
        pattern = "person -> watch"
        assert engine.match(pattern).as_set() == oracle.match(pattern).as_set()
        snapshot = loaded.join_index.snapshot
        assert snapshot.decode_stats["wtable_pairs"] <= 2
        total_runs = snapshot.subcluster_runs
        assert 0 < snapshot.decode_stats["subcluster_runs"] < total_runs

    def test_base_tables_materialize_per_label(self, snap_path):
        loaded = load_database(snap_path)
        assert loaded.base_tables == {}
        table = loaded.base_table("person")
        assert set(loaded.base_tables) == {"person"}
        assert loaded.base_table("person") is table  # memoized
        with pytest.raises(KeyError):
            loaded.base_table("no_such_label")

    def test_storage_report_covers_every_table(self, built_db, snap_path):
        loaded = load_database(snap_path)
        assert loaded.storage_report().keys() == built_db.storage_report().keys()


#: (length, CRC32) of every section of ``GraphDatabase(figure1_graph())``
#: as the last version-1 writer (raw runs) laid them out — version 2 only
#: dropped the two unread sections, it moved no byte of the others
V1_FIGURE1_SECTIONS = {
    "meta": (48, 0x0EB55021),
    "labelnames": (9, 0x9202D520),
    "nodelabels": (208, 0xDB5E21A4),
    "edges": (416, 0xACB20AF7),
    "inoff": (216, 0xB624AD76),
    "inval": (352, 0x373AD072),
    "outoff": (216, 0x5D071BF3),
    "outval": (304, 0xCA591CFD),
    "wdir": (240, 0x89A6D8E0),
    "woff": (128, 0x2523391C),
    "wval": (432, 0x56CBC820),
    "centers": (208, 0x5D6CB7F4),
    "suboff": (216, 0x7A6A06F0),
    "subdir": (2176, 0x0DB9F49F),
    "subval": (656, 0xEA558DAE),
    "extents": (40, 0x174F516D),
    "catpairs": (600, 0x532EA707),
}


class TestRawRunsLayout:
    def test_sections_match_the_version_1_raw_layout(self, tmp_path):
        path = str(tmp_path / "fig1.snap")
        write_snapshot(GraphDatabase(figure1_graph()), path)
        payload = open(path, "rb").read()
        snapshot = Snapshot.open(path)
        try:
            sections = {
                name: (length, zlib.crc32(payload[offset:offset + length]))
                for name, offset, length in snapshot.section_table()
            }
        finally:
            snapshot.close()
        assert sections == V1_FIGURE1_SECTIONS

    def test_unknown_flag_bits_rejected(self, snap_path, tmp_path):
        """Version 2 defines no flag: any set bit — the retired raw-runs
        bit 0 included — is refused."""
        payload = bytearray(open(snap_path, "rb").read())
        bad = tmp_path / "flag.snap"
        for flags in (1, 0x80, 0x8000_0000):
            struct.pack_into("<I", payload, 12, flags)  # header flags word
            bad.write_bytes(bytes(payload))
            with pytest.raises(SnapshotError, match="flag"):
                Snapshot.open(str(bad))


def _holds_view(value) -> bool:
    if isinstance(value, memoryview):
        return True
    if isinstance(value, dict):
        return any(_holds_view(k) or _holds_view(v) for k, v in value.items())
    if isinstance(value, (list, tuple, set, frozenset)):
        return any(_holds_view(item) for item in value)
    return False


def _probe(db):
    """One existing (center, (X, Y) pair, label) to aim the accessors at."""
    (x, y), centers = next(iter(db.join_index.wtable_items()))
    return centers[0], x, y


#: every public Snapshot accessor, every SnapshotRJoinIndex read and the
#: SnapshotDatabase run surface — each takes the loaded database
ACCESSORS = {
    "Snapshot.centers": lambda db: db.snapshot_handle.centers(),
    "Snapshot.in_code_array": lambda db: db.snapshot_handle.in_code_array(0),
    "Snapshot.out_code_array": lambda db: db.snapshot_handle.out_code_array(0),
    "Snapshot.wtable_pairs": lambda db: db.snapshot_handle.wtable_pairs(),
    "Snapshot.wtable_sizes": lambda db: db.snapshot_handle.wtable_sizes(),
    "Snapshot.wtable_centers": lambda db: db.snapshot_handle.wtable_centers(0),
    "Snapshot.subclusters_at": lambda db: db.snapshot_handle.subclusters_at(0),
    "Snapshot.extent_sizes": lambda db: db.snapshot_handle.extent_sizes(),
    "Snapshot.catalog_pairs": lambda db: db.snapshot_handle.catalog_pairs(),
    "Snapshot.section_table": lambda db: db.snapshot_handle.section_table(),
    "Snapshot.build_graph": lambda db: db.snapshot_handle.build_graph(),
    "index.centers": lambda db: db.join_index.centers(*_probe(db)[1:]),
    "index.get_f": lambda db: db.join_index.get_f(*_probe(db)[:2]),
    "index.get_t": lambda db: db.join_index.get_t(_probe(db)[0], _probe(db)[2]),
    "index.get_ft": lambda db: db.join_index.get_ft(_probe(db)[0]),
    "index.cluster_items": lambda db: db.join_index.cluster_items(),
    "index.wtable_items": lambda db: db.join_index.wtable_items(),
    "index.wtable_pairs": lambda db: db.join_index.wtable_pairs(),
    "index.wtable_sizes": lambda db: db.join_index.wtable_sizes(),
    "db.w_run": lambda db: db.w_run(*_probe(db)[1:]),
    "db.code_run[in]": lambda db: db.code_run(_probe(db)[0], "in"),
    "db.code_run[out]": lambda db: db.code_run(_probe(db)[0], "out"),
    "db.subcluster_runs": lambda db: db.subcluster_runs(_probe(db)[0]),
    "db.extent_run": lambda db: db.extent_run(_probe(db)[1]),
    "labeling.in_codes": lambda db: db.labeling.in_codes[0],
}


class TestNoViewsEscape:
    """What replaced the static ``mmap/*`` rules: no accessor hands out a
    ``memoryview`` (or an iterator parked on one), so nothing a caller
    holds can keep :meth:`Snapshot.close` from unmapping the file."""

    @pytest.mark.parametrize("name", sorted(ACCESSORS))
    def test_result_holds_no_view_and_survives_close(self, snap_path, name):
        db = load_database(snap_path)
        result = ACCESSORS[name](db)
        first = None
        if hasattr(result, "__next__"):
            first = next(result)  # park the iterator mid-stream
        assert not _holds_view(result) and not _holds_view(first)
        db.snapshot_handle.close()  # result and first still alive: no BufferError
        assert db.snapshot_handle.closed
        del result, first
