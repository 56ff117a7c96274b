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
  the rows they touch; base tables materialize per label on demand.
"""

import pytest

from repro.analysis import audit_database, audit_snapshot
from repro.db.database import GraphDatabase
from repro.db.join_index import SnapshotRJoinIndex
from repro.db.persist import load_database, save_database
from repro.graph import xmark
from repro.graph.generators import figure1_graph, random_digraph
from repro.query.engine import GraphEngine
from repro.storage.snapshot import (
    FLAG_RAW_RUNS,
    SNAPSHOT_MAGIC,
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

    def test_atomic_write_leaves_no_tmp(self, built_db, tmp_path):
        path = tmp_path / "x.snap"
        save_database(built_db, str(path))
        assert path.exists()
        assert not (tmp_path / "x.snap.tmp").exists()

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

    def test_rebuild_converts_to_live_index(self, snap_path):
        loaded = load_database(snap_path)
        sizes = loaded.join_index.wtable_sizes()
        loaded.rebuild_join_index()
        assert not isinstance(loaded.join_index, SnapshotRJoinIndex)
        assert loaded.index_generation == 1
        assert loaded.join_index.wtable_sizes() == sizes


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

    def test_dynamic_append_still_works(self, snap_path):
        """The overflow path of the lazy code sequences."""
        loaded = load_database(snap_path)
        labeling = loaded.labeling
        before = labeling.node_count
        labeling.in_codes.append(frozenset({before}))
        labeling.out_codes.append(frozenset({before}))
        labeling.invalidate_caches()
        assert labeling.node_count == before + 1
        assert labeling.in_codes[before] == frozenset({before})
        assert labeling.reaches(before, before)


class TestRawRunsLayout:
    def test_writer_default_is_raw_and_view_capable(self, snap_path):
        snapshot = Snapshot.open(snap_path)
        try:
            assert snapshot.flags == FLAG_RAW_RUNS
            assert snapshot.raw_runs
            names = [name for name, _, _ in snapshot.section_table()]
            assert "extoff" in names and "extnodes" in names
        finally:
            snapshot.close()

    def test_legacy_delta_file_still_serves(self, built_db, tmp_path):
        legacy = str(tmp_path / "legacy.snap")
        write_snapshot(built_db, legacy, raw_runs=False)
        snapshot = Snapshot.open(legacy)
        try:
            assert snapshot.flags == 0
            assert not snapshot.raw_runs
            names = [name for name, _, _ in snapshot.section_table()]
            assert "extoff" not in names
        finally:
            snapshot.close()
        loaded = load_database(legacy)
        for v in range(0, loaded.graph.node_count, 97):
            for side in ("in", "out"):
                assert list(loaded.code_run(v, side)) == list(
                    built_db.code_run(v, side)
                )
        assert (
            loaded.join_index.wtable_sizes()
            == built_db.join_index.wtable_sizes()
        )

    def test_unknown_flag_bits_rejected(self, snap_path, tmp_path):
        payload = bytearray(open(snap_path, "rb").read())
        payload[12] |= 0x80  # header flags field, undefined bit
        bad = tmp_path / "flag.snap"
        bad.write_bytes(bytes(payload))
        with pytest.raises(SnapshotError, match="flag"):
            Snapshot.open(str(bad))

    def test_raw_and_delta_agree_through_the_engine(self, built_db, tmp_path):
        raw_path = str(tmp_path / "raw.snap")
        delta_path = str(tmp_path / "delta.snap")
        write_snapshot(built_db, raw_path)
        write_snapshot(built_db, delta_path, raw_runs=False)
        raw_engine = GraphEngine.from_database(load_database(raw_path))
        delta_engine = GraphEngine.from_database(load_database(delta_path))
        pattern = "person -> watch"
        assert (
            raw_engine.match(pattern).as_set()
            == delta_engine.match(pattern).as_set()
        )


class TestCloseGuard:
    def test_close_refuses_while_held(self, built_db, tmp_path):
        path = str(tmp_path / "held.snap")
        write_snapshot(built_db, path)
        snapshot = Snapshot.open(path)
        snapshot.acquire("WorkerPool(process, workers=2)")
        with pytest.raises(SnapshotError, match=r"WorkerPool\(process"):
            snapshot.close()
        assert not snapshot.closed
        snapshot.release("WorkerPool(process, workers=2)")
        snapshot.close()
        assert snapshot.closed

    def test_acquire_is_reentrant(self, built_db, tmp_path):
        path = str(tmp_path / "reentrant.snap")
        write_snapshot(built_db, path)
        snapshot = Snapshot.open(path)
        snapshot.acquire("pool")
        snapshot.acquire("pool")
        snapshot.release("pool")
        with pytest.raises(SnapshotError, match="still held"):
            snapshot.close()
        snapshot.release("pool")
        snapshot.close()

    def test_release_of_unknown_owner_is_ignored(self, built_db, tmp_path):
        path = str(tmp_path / "unknown.snap")
        write_snapshot(built_db, path)
        snapshot = Snapshot.open(path)
        snapshot.release("never-acquired")
        snapshot.close()
        assert snapshot.closed

    def test_acquire_on_closed_snapshot_raises(self, built_db, tmp_path):
        path = str(tmp_path / "closed.snap")
        write_snapshot(built_db, path)
        snapshot = Snapshot.open(path)
        snapshot.close()
        with pytest.raises(SnapshotError, match="closed"):
            snapshot.acquire("pool")

    def test_error_names_every_holder(self, built_db, tmp_path):
        path = str(tmp_path / "multi.snap")
        write_snapshot(built_db, path)
        snapshot = Snapshot.open(path)
        snapshot.acquire("pool-b")
        snapshot.acquire("pool-a")
        with pytest.raises(SnapshotError, match="pool-a, pool-b"):
            snapshot.close()
        snapshot.release("pool-a")
        snapshot.release("pool-b")
        snapshot.close()
