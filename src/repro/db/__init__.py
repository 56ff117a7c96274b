"""The graph database: base tables, cluster-based R-join index, catalog."""

from .catalog import Catalog, PairStats
from .database import CodeCache, GraphDatabase, SnapshotDatabase
from .join_index import ClusterRJoinIndex
from .persist import load_database, save_database

__all__ = [
    "Catalog",
    "PairStats",
    "CodeCache",
    "GraphDatabase",
    "SnapshotDatabase",
    "ClusterRJoinIndex",
    "load_database",
    "save_database",
]
