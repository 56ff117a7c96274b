"""Graph substrate: labeled digraphs, traversals, SCCs, and generators."""

from .digraph import DiGraph, GraphError
from .condensation import Condensation, condense, strongly_connected_components
from .io import (
    GraphFormatError,
    load_edge_list,
    save_edge_list,
)
from .traversal import (
    TransitiveClosure,
    bfs_order,
    is_dag,
    is_reachable,
    reachable_set,
    topological_sort,
)

__all__ = [
    "DiGraph",
    "GraphError",
    "Condensation",
    "GraphFormatError",
    "load_edge_list",
    "save_edge_list",
    "condense",
    "strongly_connected_components",
    "TransitiveClosure",
    "bfs_order",
    "is_dag",
    "is_reachable",
    "reachable_set",
    "topological_sort",
]
