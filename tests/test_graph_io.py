"""Tests for graph file I/O and the custom-graph CLI path."""

import pytest

from repro.cli import main
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_digraph
from repro.graph.io import (
    GraphFormatError,
    load_edge_list,
    save_edge_list,
)


@pytest.fixture
def sample_files(tmp_path):
    nodes = tmp_path / "nodes.tsv"
    edges = tmp_path / "edges.tsv"
    nodes.write_text("# comment\n0\tperson\n1\twatch\n2\tauction\n")
    edges.write_text("0\t1\n1\t2\n\n# trailing comment\n")
    return str(nodes), str(edges)


class TestEdgeList:
    def test_load(self, sample_files):
        nodes, edges = sample_files
        g = load_edge_list(nodes, edges)
        assert g.node_count == 3
        assert g.label(0) == "person"
        assert sorted(g.edges()) == [(0, 1), (1, 2)]

    def test_space_separated_also_accepted(self, tmp_path):
        nodes = tmp_path / "n.txt"
        edges = tmp_path / "e.txt"
        nodes.write_text("0 A\n1 B\n")
        edges.write_text("0 1\n")
        g = load_edge_list(str(nodes), str(edges))
        assert g.label(1) == "B"
        assert list(g.edges()) == [(0, 1)]

    def test_gap_ids_get_default_label(self, tmp_path):
        nodes = tmp_path / "n.tsv"
        edges = tmp_path / "e.tsv"
        nodes.write_text("0\tA\n5\tB\n")
        edges.write_text("0\t5\n")
        g = load_edge_list(str(nodes), str(edges))
        assert g.node_count == 6
        assert g.label(3) == DiGraph.DEFAULT_LABEL

    def test_roundtrip(self, tmp_path):
        g = random_digraph(20, 0.1, seed=3)
        nodes, edges = str(tmp_path / "n.tsv"), str(tmp_path / "e.tsv")
        save_edge_list(g, nodes, edges)
        back = load_edge_list(nodes, edges)
        assert list(back.labels()) == list(g.labels())
        assert sorted(back.edges()) == sorted(g.edges())

    @pytest.mark.parametrize(
        "nodes_text,edges_text",
        [
            ("0\tA\textra\n", "0\t0\n"),        # wrong arity in nodes
            ("x\tA\n", "0\t0\n"),               # non-integer node id
            ("-1\tA\n", ""),                    # negative node id
            ("0\tA\n0\tB\n", ""),               # duplicate node
            ("0\tA\n", "0\tb\n"),               # non-integer edge endpoint
            ("0\tA\n", "0\t-2\n"),              # negative endpoint
        ],
    )
    def test_malformed_rejected(self, tmp_path, nodes_text, edges_text):
        nodes = tmp_path / "n.tsv"
        edges = tmp_path / "e.tsv"
        nodes.write_text(nodes_text)
        edges.write_text(edges_text)
        with pytest.raises(GraphFormatError):
            load_edge_list(str(nodes), str(edges))


class TestCliCustomGraph:
    def test_build_from_edge_list_and_query(self, sample_files, tmp_path, capsys):
        nodes, edges = sample_files
        out = str(tmp_path / "custom.snap")
        assert main(["build", "--nodes", nodes, "--edges", edges,
                     "--out", out]) == 0
        capsys.readouterr()
        assert main(["query", out, "person -> auction"]) == 0
        captured = capsys.readouterr()
        assert "0\t2" in captured.out  # person 0 reaches auction 2 via watch

    def test_build_requires_both_files(self, sample_files, tmp_path, capsys):
        nodes, _ = sample_files
        rc = main(["build", "--nodes", nodes, "--out",
                   str(tmp_path / "x.snap")])
        assert rc == 2
