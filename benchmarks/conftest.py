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

import json
import os
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional

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


# ----------------------------------------------------------------------
# BENCH_<name>.json recording
# ----------------------------------------------------------------------
#: where every bench module's measurement file lands; one file per module
RESULTS_DIR = Path(__file__).parent / "results"


class BenchRecorder:
    """Collects measurements; writes one ``BENCH_<name>.json`` per module.

    Every figure bench records what it measured through the
    :func:`bench_record` fixture; at session end each module's entries are
    written to ``benchmarks/results/BENCH_<name>.json`` (``name`` is the
    module name minus the ``bench_`` prefix).
    """

    def __init__(self) -> None:
        self._entries: Dict[str, List[Dict[str, Any]]] = defaultdict(list)

    def add(
        self,
        module: str,
        *,
        query: str,
        optimizer: str,
        wall_ms: float,
        rows: Optional[int] = None,
        operators: Optional[List[Dict[str, int]]] = None,
        cache_hit_rate: Optional[float] = None,
        **extra: Any,
    ) -> None:
        entry: Dict[str, Any] = {
            "query": query,
            "optimizer": optimizer,
            "wall_ms": round(wall_ms, 4),
            "rows": rows,
            "operators": operators or [],
            "cache_hit_rate": cache_hit_rate,
        }
        entry.update(extra)
        self._entries[module].append(entry)

    def add_result(
        self, module: str, result: Any, *, query: str, optimizer: str, **extra: Any
    ) -> None:
        """Record one engine :class:`~repro.query.QueryResult` wholesale."""
        metrics = result.metrics
        cache = metrics.center_cache
        self.add(
            module,
            query=query,
            optimizer=optimizer,
            wall_ms=metrics.elapsed_seconds * 1000.0,
            rows=len(result.rows),
            operators=[
                {
                    "operator": op.operator,
                    "rows_in": op.rows_in,
                    "rows_out": op.rows_out,
                    "centers_probed": op.centers_probed,
                    "nodes_fetched": op.nodes_fetched,
                }
                for op in metrics.operators
            ],
            cache_hit_rate=cache.hit_rate if cache is not None else None,
            **extra,
        )

    def flush(self) -> List[Path]:
        written = []
        for module, entries in sorted(self._entries.items()):
            name = module[len("bench_"):] if module.startswith("bench_") else module
            RESULTS_DIR.mkdir(parents=True, exist_ok=True)
            path = RESULTS_DIR / f"BENCH_{name}.json"
            payload = {
                "bench": name,
                "budget": BENCH_BUDGET,
                "entries": entries,
            }
            path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
            written.append(path)
        return written


_RECORDER = BenchRecorder()


class _BoundRecorder:
    """The :class:`BenchRecorder` API bound to one bench module."""

    def __init__(self, recorder: BenchRecorder, module: str) -> None:
        self._recorder = recorder
        self._module = module

    def add(self, **fields: Any) -> None:
        self._recorder.add(self._module, **fields)

    def add_result(self, result: Any, **fields: Any) -> None:
        self._recorder.add_result(self._module, result, **fields)


@pytest.fixture
def bench_record(request) -> _BoundRecorder:
    """Record a measurement into this module's ``BENCH_<name>.json``."""
    return _BoundRecorder(_RECORDER, request.module.__name__.rpartition(".")[2])


def pytest_sessionfinish(session, exitstatus):
    for path in _RECORDER.flush():
        print(f"\n[bench] wrote {path}")
