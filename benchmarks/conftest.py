"""Shared fixtures for the benchmark harness.

Scale policy (DESIGN.md Section 5): the paper's datasets are 0.3M-1.7M
nodes on 2006 C++/Minibase; we rerun the identical experimental design at
a Python-feasible scale.  ``BENCH_BUDGET`` controls the XMark entity
budget (~1500 gives a 1.3k..6.5k-node ladder); set the environment
variable ``REPRO_BENCH_BUDGET`` to rescale every benchmark at once.

All engines for a dataset are built once per session and reused; the
benchmarked callables are queries, not index builds (index construction
has its own benchmark in bench_table2_datasets.py).
"""

from __future__ import annotations

import os
from typing import Dict

import pytest

from repro import GraphEngine
from repro.baselines.igmj import IGMJEngine
from repro.baselines.twigstackd import TwigStackD
from repro.graph import xmark
from repro.graph.traversal import is_dag
from repro.workloads.patterns import PatternFactory
from repro.workloads.runner import row_limit_validator

BENCH_BUDGET = int(os.environ.get("REPRO_BENCH_BUDGET", "1500"))
BENCH_SEED = 7
DATASETS = ("XS", "S", "M", "L", "XL")

# The paper pairs 0.3M-1.7M-node graphs with a 1 MiB buffer — the buffer
# holds a few percent of the database.  Our ladder is ~100x smaller, so we
# scale the buffer to 128 KiB to stay in the same buffer-pressure regime
# (override with REPRO_BENCH_BUFFER, in bytes).
BENCH_BUFFER = int(os.environ.get("REPRO_BENCH_BUFFER", str(128 * 1024)))


@pytest.fixture(scope="session")
def graphs() -> Dict[str, xmark.XMarkGraph]:
    """The five-dataset XMark ladder (paper Table 2's 20M..100M)."""
    return {
        name: xmark.dataset(name, entity_budget=BENCH_BUDGET, seed=BENCH_SEED)
        for name in DATASETS
    }


@pytest.fixture(scope="session")
def engines(graphs) -> Dict[str, GraphEngine]:
    return {
        name: GraphEngine(data.graph, buffer_bytes=BENCH_BUFFER)
        for name, data in graphs.items()
    }


@pytest.fixture(scope="session")
def dag_data() -> xmark.XMarkGraph:
    """A DAG dataset for the TSD comparison (paper Section 6.1 uses the
    0.01-factor XMark graph because TSD only supports DAGs).

    Disabling the two cycle-creating IDREF families (catgraph edges and
    person watches) makes the generated graph acyclic.
    """
    data = xmark.generate(
        factor=0.3,
        entity_budget=BENCH_BUDGET,
        seed=BENCH_SEED,
        watches_per_person=0.0,
        catgraph_edges_per_category=0.0,
    )
    assert is_dag(data.graph), "TSD comparison dataset must be a DAG"
    return data


@pytest.fixture(scope="session")
def dag_engine(dag_data) -> GraphEngine:
    return GraphEngine(dag_data.graph, buffer_bytes=BENCH_BUFFER)


@pytest.fixture(scope="session")
def dag_tsd(dag_data) -> TwigStackD:
    return TwigStackD(dag_data.graph)


@pytest.fixture(scope="session")
def dag_igmj(dag_data) -> IGMJEngine:
    return IGMJEngine(dag_data.graph, buffer_bytes=BENCH_BUFFER)


# Workload patterns are execute-validated under a row-limit guard so a
# skew-driven estimation miss can never hang a benchmark session.
WORKLOAD_ROW_LIMIT = 150_000


@pytest.fixture(scope="session")
def dag_factory(dag_engine) -> PatternFactory:
    return PatternFactory(
        dag_engine.db.catalog,
        seed=11,
        validator=row_limit_validator(dag_engine, WORKLOAD_ROW_LIMIT),
    )
