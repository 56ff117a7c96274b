"""Tests for database save/load."""

import json
import os
import stat

import pytest

from repro.baselines.naive import NaiveMatcher
from repro.db.database import GraphDatabase
from repro.db.persist import load_database, save_database
from repro.graph.generators import figure1_graph, random_digraph
from repro.query.engine import GraphEngine
from repro.query.parser import parse_pattern
from repro.storage.snapshot import SNAPSHOT_MAGIC, SnapshotError


class TestRoundTrip:
    def test_graph_and_labeling_survive(self, tmp_path):
        db = GraphDatabase(figure1_graph())
        path = str(tmp_path / "fig1.snap")
        save_database(db, path)
        loaded = load_database(path)
        assert loaded.graph.node_count == db.graph.node_count
        assert loaded.graph.edge_count == db.graph.edge_count
        assert list(loaded.graph.labels()) == list(db.graph.labels())
        assert loaded.labeling.in_codes == db.labeling.in_codes
        assert loaded.labeling.out_codes == db.labeling.out_codes

    def test_loaded_database_answers_queries(self, tmp_path):
        g = random_digraph(25, 0.1, seed=13)
        db = GraphDatabase(g)
        path = str(tmp_path / "rand.snap")
        save_database(db, path)
        loaded = load_database(path)

        pattern = parse_pattern("A -> B, B -> C")
        naive = NaiveMatcher(g).match_set(pattern)
        engine = GraphEngine.from_database(loaded)
        assert engine.match(pattern).as_set() == naive

    def test_reaches_identical_after_reload(self, tmp_path):
        g = random_digraph(20, 0.15, seed=4)
        db = GraphDatabase(g)
        path = str(tmp_path / "r.snap")
        save_database(db, path)
        loaded = load_database(path)
        for u in g.nodes():
            for v in g.nodes():
                assert db.reaches(u, v) == loaded.reaches(u, v)


@pytest.mark.parametrize("suffix", ["json", "snap"])
def test_atomic_write(tmp_path, monkeypatch, suffix):
    """Whatever the file's suffix (a ``.json`` name of the retired format
    too), a snapshot is written; no temp file is left; the temp file is
    fsynced before the replace and the directory after it; a failed fsync
    or replace keeps the old file and removes the temp file."""
    path = tmp_path / f"x.{suffix}"
    tmp = tmp_path / f"x.{suffix}.tmp"
    save_database(GraphDatabase(figure1_graph()), str(path))
    assert path.exists() and not tmp.exists()
    assert path.read_bytes()[:8] == SNAPSHOT_MAGIC
    before = path.read_bytes()

    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        calls.append("fsync dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
        real_fsync(fd)

    def replace(src, dst):
        calls.append("replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    db = GraphDatabase(random_digraph(12, 0.2, seed=1))
    save_database(db, str(path))
    assert calls == ["fsync file", "replace", "fsync dir"]
    after = path.read_bytes()
    assert after != before

    def failing_replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="replace failed"):
        save_database(GraphDatabase(figure1_graph()), str(path))
    assert path.read_bytes() == after
    assert not tmp.exists()

    def failing_fsync(fd):
        raise OSError("fsync failed")

    monkeypatch.setattr(os, "replace", real_replace)
    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(OSError, match="fsync failed"):
        save_database(GraphDatabase(figure1_graph()), str(path))
    assert path.read_bytes() == after
    assert not tmp.exists()


class TestVersioning:
    def test_wrong_version_rejected(self, tmp_path):
        path = tmp_path / "v.snap"
        save_database(GraphDatabase(figure1_graph()), str(path))
        payload = bytearray(path.read_bytes())
        payload[8] += 1  # the header's version field
        path.write_bytes(bytes(payload))
        with pytest.raises(SnapshotError, match="version"):
            load_database(str(path))

    def test_missing_version_rejected(self, tmp_path):
        """A file without the snapshot header — here a leftover database
        of the retired JSON format — is refused at the magic, before any
        version is read; it is not converted."""
        path = tmp_path / "old.db.json"
        path.write_text(json.dumps({
            "format_version": 1,
            "graph": {"labels": ["A", "B"], "edges": [[0, 1]]},
            "labeling": {"in_codes": [[0], [0, 1]], "out_codes": [[0], [1]]},
        }))
        with pytest.raises(SnapshotError, match="does not start with snapshot magic"):
            load_database(str(path))
