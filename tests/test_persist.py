"""Tests for database save/load."""

import json

import pytest

from repro.baselines.naive import NaiveMatcher
from repro.db.database import GraphDatabase
from repro.db.persist import FORMAT_VERSION, load_database, save_database
from repro.graph.generators import figure1_graph, random_digraph
from repro.query.engine import GraphEngine
from repro.query.parser import parse_pattern


class TestRoundTrip:
    def test_graph_and_labeling_survive(self, tmp_path):
        db = GraphDatabase(figure1_graph())
        path = str(tmp_path / "fig1.db.json")
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
        path = str(tmp_path / "rand.db.json")
        save_database(db, path)
        loaded = load_database(path)

        pattern = parse_pattern("A -> B, B -> C")
        naive = NaiveMatcher(g).match_set(pattern)
        engine = GraphEngine.from_database(loaded)
        assert engine.match(pattern).as_set() == naive

    def test_reaches_identical_after_reload(self, tmp_path):
        g = random_digraph(20, 0.15, seed=4)
        db = GraphDatabase(g)
        path = str(tmp_path / "r.db.json")
        save_database(db, path)
        loaded = load_database(path)
        for u in g.nodes():
            for v in g.nodes():
                assert db.reaches(u, v) == loaded.reaches(u, v)

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        db = GraphDatabase(figure1_graph())
        path = tmp_path / "x.json"
        save_database(db, str(path))
        assert path.exists()
        assert not (tmp_path / "x.json.tmp").exists()


class TestVersioning:
    def test_wrong_version_rejected(self, tmp_path):
        db = GraphDatabase(figure1_graph())
        path = tmp_path / "v.json"
        save_database(db, str(path))
        payload = json.loads(path.read_text())
        payload["format_version"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            load_database(str(path))

    def test_missing_version_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"graph": {}}))
        with pytest.raises(ValueError):
            load_database(str(path))
