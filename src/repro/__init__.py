"""repro — Fast Graph Pattern Matching (Cheng, Yu, Ding, Yu, Wang; ICDE 2008).

A from-scratch reproduction of the paper's R-join/R-semijoin graph pattern
matching system:

* 2-hop reachability *graph codes* over arbitrary directed node-labeled
  graphs (:mod:`repro.labeling`);
* a relational graph database with per-label base tables, a cluster-based
  R-join index and a W-table on a simulated paged storage engine
  (:mod:`repro.db`, :mod:`repro.storage`);
* the HPSJ and HPSJ+ (Filter/Fetch) R-join algorithms, R-semijoins with
  shared scans, and the DP / DPS cost-based optimizers
  (:mod:`repro.query`);
* the paper's baselines — TwigStackD (TSD) and IGMJ (INT-DP) — plus a
  naive ground-truth matcher (:mod:`repro.baselines`);
* XMark-like data generation and the Figure 4 query workloads
  (:mod:`repro.graph.xmark`, :mod:`repro.workloads`).

Quick start::

    from repro import GraphEngine, xmark

    data = xmark.generate(factor=0.2, seed=7)
    engine = GraphEngine(data.graph)
    result = engine.match("person -> watch, watch -> open_auction")
    print(len(result), "matches")
"""

from .graph import DiGraph, condense, is_reachable
from .graph import generators, xmark
from .labeling import TwoHopLabeling, build_two_hop
from .db import GraphDatabase, load_database, save_database
from .query import (
    GraphEngine,
    GraphPattern,
    QueryResult,
    parse_pattern,
)
from .baselines import IGMJEngine, NaiveMatcher, TwigStackD
from .workloads import PatternFactory

__version__ = "1.0.0"

__all__ = [
    "DiGraph",
    "condense",
    "is_reachable",
    "generators",
    "xmark",
    "TwoHopLabeling",
    "build_two_hop",
    "GraphDatabase",
    "load_database",
    "save_database",
    "GraphEngine",
    "GraphPattern",
    "QueryResult",
    "parse_pattern",
    "IGMJEngine",
    "NaiveMatcher",
    "TwigStackD",
    "PatternFactory",
    "__version__",
]
