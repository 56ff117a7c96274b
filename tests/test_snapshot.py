"""Tests for the binary snapshot format and its lazy read path.

Covers the persistence contracts of the snapshot subsystem:

* round trip — a snapshot-loaded database answers exactly like the
  database that wrote it (codes, reachability, queries, catalog);
* byte stability — save → load → save produces identical bytes (the
  writer reads only public surfaces, so the backing store must not leak
  into the output);
* corruption — any flipped byte or truncation yields a clean
  :class:`SnapshotError` from ``Snapshot.open``, never garbage data;
* laziness — opening a snapshot copies no run and builds no graph;
  queries copy only the runs they touch, and the database keeps none
  of them;
* no views — nothing any accessor returns can pin the mapping.
"""

import struct
import tracemalloc
import zlib
from collections import Counter

import pytest

from repro.analysis import audit_database, audit_snapshot
from repro.db.database import GraphDatabase, SnapshotDatabase
from repro.db.persist import load_database, save_database
from repro.graph import xmark
from repro.graph.digraph import DiGraph
from repro.graph.generators import figure1_graph, random_digraph
from repro.query.engine import GraphEngine
from repro.storage.snapshot import (
    SNAPSHOT_MAGIC,
    SNAPSHOT_VERSION,
    SIDE_F,
    Snapshot,
    SnapshotError,
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
        # a file that is not there is the file system's error, not a
        # verdict on the file's bytes
        with pytest.raises(FileNotFoundError):
            Snapshot.open(str(tmp_path / "missing"))

    def test_save_format_inference(self, built_db, tmp_path):
        """Nothing is inferred from the file name: every path gets a
        snapshot, and there is no format to choose."""
        for name in ("a.snap", "a.json", "a"):
            path = tmp_path / name
            save_database(built_db, str(path))
            assert path.read_bytes()[:8] == SNAPSHOT_MAGIC
        with pytest.raises(TypeError):
            save_database(built_db, str(tmp_path / "x"), format="snapshot")

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


def _reaches(db, u, v) -> bool:
    """``out(u) ∩ in(v) ≠ ∅`` over the run surface."""
    return not set(db.code_run(u, "out")).isdisjoint(db.code_run(v, "in"))


class TestRoundTrip:
    def test_structures_survive(self, built_db, snap_path):
        loaded = load_database(snap_path)
        assert isinstance(loaded, SnapshotDatabase)
        graph = loaded.offline_structures().graph
        assert graph.node_count == built_db.graph.node_count
        assert graph.edge_count == built_db.graph.edge_count
        assert sorted(graph.edges()) == sorted(built_db.graph.edges())
        assert list(graph.labels()) == list(built_db.graph.labels())
        assert loaded.labels() == built_db.labels()
        for label in loaded.labels():
            assert list(loaded.extent_run(label)) == list(built_db.extent_run(label))
        assert loaded.snapshot.center_count == built_db.join_index.center_count
        assert (
            loaded.snapshot.wtable_sizes() == built_db.join_index.wtable_sizes()
        )
        assert loaded.table2_sizes() == built_db.table2_sizes()
        assert loaded.catalog.extent_sizes == built_db.catalog.extent_sizes
        assert loaded.catalog.all_pairs() == built_db.catalog.all_pairs()

    def test_codes_and_reachability_identical(self, tmp_path):
        g = random_digraph(30, 0.12, seed=5)
        db = GraphDatabase(g)
        path = str(tmp_path / "r.snap")
        save_database(db, path)
        loaded = load_database(path)
        labeling = loaded.offline_structures().labeling
        for v in g.nodes():
            assert labeling.in_codes[v] == db.labeling.in_codes[v]
            assert labeling.out_codes[v] == db.labeling.out_codes[v]
            assert list(loaded.code_run(v, "in")) == list(db.code_run(v, "in"))
            assert list(loaded.code_run(v, "out")) == list(db.code_run(v, "out"))
        for u in g.nodes():
            for v in g.nodes():
                assert _reaches(db, u, v) == _reaches(loaded, u, v)

    def test_subclusters_identical(self, built_db, snap_path):
        loaded = load_database(snap_path)
        truth = {
            center: (f_sub, t_sub)
            for center, f_sub, t_sub in built_db.join_index.cluster_items()
        }
        seen = set()
        for center, f_sub, t_sub in loaded.offline_structures().cluster_items:
            assert truth[center] == (f_sub, t_sub)
            seen.add(center)
        assert seen == set(truth)
        # one-run probes agree with the live index, center x label x side
        index = built_db.join_index
        for center in truth:
            for label in built_db.labels():
                assert loaded.subcluster_run(center, label, "in") == index.get_f(center, label)
                assert loaded.subcluster_run(center, label, "out") == index.get_t(center, label)
        center = next(iter(truth))
        for side in ("in", "out"):
            assert loaded.subcluster_run(-1, built_db.labels()[0], side) == ()
            assert loaded.subcluster_run(center, "no_such_label", side) == ()
        for pair, centers in built_db.join_index.wtable_items():
            assert tuple(loaded.w_run(*pair)) == centers
        assert tuple(loaded.w_run("no_such", "label")) == ()

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

    def test_inconsistent_counters_raise_snapshot_error(self, snap_path, tmp_path):
        """A file whose CRCs hold but whose meta counters disagree with
        its sections (a writer bug, not a flipped bit) fails the geometry
        check as a clean SnapshotError: the views the open had taken
        are released, so the mapping unmaps."""
        payload = bytearray(open(snap_path, "rb").read())
        size = len(payload)
        toc_offset, toc_length, _, count, magic = struct.unpack_from(
            "<QQII8s", payload, size - 32
        )
        for at in range(toc_offset, toc_offset + toc_length, 40):
            name, offset, length, _, reserved = struct.unpack_from(
                "<16sQQII", payload, at
            )
            if name.rstrip(b"\x00") == b"meta":
                nodes = struct.unpack_from("<q", payload, offset)[0]
                struct.pack_into("<q", payload, offset, nodes + 1)
                struct.pack_into(
                    "<16sQQII", payload, at, name, offset, length,
                    zlib.crc32(bytes(payload[offset:offset + length])), reserved,
                )
        struct.pack_into(
            "<QQII8s", payload, size - 32, toc_offset, toc_length,
            zlib.crc32(bytes(payload[:size - 32])), count, magic,
        )
        bad = tmp_path / "counters.snap"
        bad.write_bytes(bytes(payload))
        with pytest.raises(SnapshotError, match="expected"):
            Snapshot.open(str(bad))
        findings = audit_snapshot(str(bad))
        assert [finding.rule for finding in findings] == ["snapshot/unreadable"]

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


#: every Snapshot accessor that copies a run or a whole column
RUN_ACCESSORS = (
    "in_code_array", "out_code_array", "wtable_centers", "subcluster_run",
    "subclusters_at", "centers", "build_graph",
)


def _count_calls(monkeypatch, target, names) -> Counter:
    """Count calls of *target*'s methods *names* (a class or an instance)."""
    counts: Counter = Counter()
    for name in names:
        real = getattr(target, name)

        def counted(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(target, name, counted)
    return counts


class TestLaziness:
    def test_open_decodes_nothing(self, snap_path, monkeypatch):
        """Opening reads the header, the directories and the node-label
        column (for the extents); it copies no run."""
        counts = _count_calls(monkeypatch, Snapshot, RUN_ACCESSORS)
        load_database(snap_path)
        assert counts == Counter()

    def test_load_builds_no_digraph(self, snap_path, monkeypatch):
        """Neither opening nor answering builds the data graph: queries
        read extents from the node-label column, never a ``DiGraph``."""
        built = []
        real_init = DiGraph.__init__

        def init(self, *args, **kwargs):
            built.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(DiGraph, "__init__", init)
        loaded = load_database(snap_path)
        engine = GraphEngine.from_database(loaded)
        assert engine.match("person -> watch").rows
        assert engine.stats_summary()["nodes"] == loaded.snapshot.node_count
        assert built == []

    def test_query_decodes_only_what_it_touches(
        self, built_db, snap_path, monkeypatch
    ):
        loaded = load_database(snap_path)
        snapshot = loaded.snapshot
        counts = _count_calls(
            monkeypatch, snapshot, ("wtable_centers", "subcluster_run", "subclusters_at")
        )
        engine = GraphEngine.from_database(loaded)
        oracle = GraphEngine.from_database(built_db)
        pattern = "person -> watch"
        assert engine.match(pattern).as_set() == oracle.match(pattern).as_set()
        assert counts["wtable_centers"] <= 2
        # at most getF and getT of each center of W(person, watch), one run
        # per read; no whole leaf is decoded
        assert 0 < counts["subcluster_run"] <= 2 * len(loaded.w_run("person", "watch"))
        assert counts["subclusters_at"] == 0

    def test_touching_every_run_retains_nothing(self, snap_path):
        """The snapshot tier keeps no copy: reading every subcluster run,
        every W-run and both codes of every node leaves under 64 KiB
        allocated once the results are dropped (a memo of them all holds
        about 250 KiB on this file)."""
        loaded = load_database(snap_path)
        snapshot = loaded.snapshot
        runs = [
            (center, label, side)
            for center, f_sub, t_sub in loaded.offline_structures().cluster_items
            for side, subclusters in (("in", f_sub), ("out", t_sub))
            for label in subclusters
        ]
        pairs = snapshot.wtable_pairs()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for center, label, side in runs:
                loaded.subcluster_run(center, label, side)
            for pair in pairs:
                loaded.w_run(*pair)
            for node in range(snapshot.node_count):
                loaded.code_run(node, "in")
                loaded.code_run(node, "out")
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 64 * 1024


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
    x, y = db.snapshot.wtable_pairs()[0]
    return db.w_run(x, y)[0], x, y


#: every public Snapshot accessor, the SnapshotDatabase run surface, and
#: the cluster R-join index's and the labeling's reads as the snapshot
#: tier answers them (``W(X, Y)``, getF and getT, the W-table directory,
#: the whole-structure scans the writer and the audit decode, ``in(x)``)
#: — each takes the loaded database
ACCESSORS = {
    "Snapshot.centers": lambda db: db.snapshot.centers(),
    "Snapshot.in_code_array": lambda db: db.snapshot.in_code_array(0),
    "Snapshot.out_code_array": lambda db: db.snapshot.out_code_array(0),
    "Snapshot.wtable_pairs": lambda db: db.snapshot.wtable_pairs(),
    "Snapshot.wtable_sizes": lambda db: db.snapshot.wtable_sizes(),
    "Snapshot.wtable_centers": lambda db: db.snapshot.wtable_centers(0),
    "Snapshot.subcluster_run": lambda db: db.snapshot.subcluster_run(
        0, SIDE_F, db.labels().index(min(db.snapshot.subclusters_at(0)[0]))
    ),
    "Snapshot.subclusters_at": lambda db: db.snapshot.subclusters_at(0),
    "Snapshot.extent_sizes": lambda db: db.snapshot.extent_sizes(),
    "Snapshot.catalog_pairs": lambda db: db.snapshot.catalog_pairs(),
    "Snapshot.section_table": lambda db: db.snapshot.section_table(),
    "Snapshot.build_graph": lambda db: db.snapshot.build_graph(),
    "Snapshot.extents": lambda db: db.snapshot.extents(),
    "index.centers": lambda db: db.w_run(*_probe(db)[1:]),
    "index.get_f": lambda db: db.subcluster_run(_probe(db)[0], _probe(db)[1], "in"),
    "index.get_t": lambda db: db.subcluster_run(_probe(db)[0], _probe(db)[2], "out"),
    "index.cluster_items": lambda db: db.offline_structures().cluster_items,
    "index.wtable_items": lambda db: db.offline_structures().wtable_items,
    "index.wtable_pairs": lambda db: db.snapshot.wtable_pairs(),
    "index.wtable_sizes": lambda db: db.snapshot.wtable_sizes(),
    "db.w_run": lambda db: db.w_run(*_probe(db)[1:]),
    "db.code_run[in]": lambda db: db.code_run(_probe(db)[0], "in"),
    "db.code_run[out]": lambda db: db.code_run(_probe(db)[0], "out"),
    "db.subcluster_run": lambda db: db.subcluster_run(_probe(db)[0], _probe(db)[2], "out"),
    "db.extent_run": lambda db: db.extent_run(_probe(db)[1]),
    "labeling.in_codes": lambda db: db.offline_structures().labeling.in_codes[0],
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
        # result and first still alive, the snapshot's own views are
        # released first: no BufferError
        db.snapshot.close()
        assert db.snapshot.closed
        del result, first
