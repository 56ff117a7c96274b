"""Graph I/O: load and save labeled digraphs in simple text formats.

Users of the library bring their own graphs, not just XMark, in the
edge-list + labels format (two files) every graph dataset dump can be
massaged into::

    # nodes.tsv: one "node_id<TAB>label" per line
    0	person
    1	watch

    # edges.tsv: one "src<TAB>dst" per line
    0	1

Node ids must be non-negative integers; gaps are allowed (missing ids get
the default label ``"?"``, so sparse exports still load).

Comment lines (``#``) and blank lines are ignored.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from .digraph import DiGraph


class GraphFormatError(ValueError):
    """Raised on malformed graph input files."""


def _parse_lines(lines: Iterable[str], path: str, arity: int) -> List[Tuple[str, ...]]:
    rows = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t") if "\t" in line else line.split()
        if len(parts) != arity:
            raise GraphFormatError(
                f"{path}:{lineno}: expected {arity} fields, got {len(parts)}: {line!r}"
            )
        rows.append(tuple(parts))
    return rows


def load_edge_list(nodes_path: str, edges_path: str) -> DiGraph:
    """Load a labeled digraph from a nodes TSV and an edges TSV."""
    with open(nodes_path) as f:
        node_rows = _parse_lines(f, nodes_path, arity=2)
    with open(edges_path) as f:
        edge_rows = _parse_lines(f, edges_path, arity=2)

    labels = {}
    max_id = -1
    for node_text, label in node_rows:
        try:
            node = int(node_text)
        except ValueError:
            raise GraphFormatError(
                f"{nodes_path}: node id {node_text!r} is not an integer"
            ) from None
        if node < 0:
            raise GraphFormatError(f"{nodes_path}: negative node id {node}")
        if node in labels:
            raise GraphFormatError(f"{nodes_path}: duplicate node id {node}")
        labels[node] = label
        max_id = max(max_id, node)

    edges = []
    for src_text, dst_text in edge_rows:
        try:
            src, dst = int(src_text), int(dst_text)
        except ValueError:
            raise GraphFormatError(
                f"{edges_path}: non-integer edge endpoint in "
                f"({src_text!r}, {dst_text!r})"
            ) from None
        if src < 0 or dst < 0:
            raise GraphFormatError(f"{edges_path}: negative endpoint ({src}, {dst})")
        max_id = max(max_id, src, dst)
        edges.append((src, dst))

    graph = DiGraph(max_id + 1)
    for node, label in labels.items():
        graph.set_label(node, label)
    graph.add_edges(edges)
    return graph


def save_edge_list(graph: DiGraph, nodes_path: str, edges_path: str) -> None:
    """Write a digraph back out in the nodes/edges TSV format."""
    with open(nodes_path, "w") as f:
        f.write("# node_id\tlabel\n")
        for node in graph.nodes():
            f.write(f"{node}\t{graph.label(node)}\n")
    with open(edges_path, "w") as f:
        f.write("# src\tdst\n")
        for src, dst in graph.edges():
            f.write(f"{src}\t{dst}\n")
