"""WCOJ multiway plans vs left-deep binary plans on cyclic patterns.

The headline gate of the worst-case-optimal join PR: on the engineered
diamond workload (:func:`repro.graph.generators.diamond_blowup`, where
every left-deep order must expand a ``branch_fanout``-sized C-branch
before the closing condition can filter it) the ``wcoj`` plan must
produce **>= 5x fewer intermediate rows** (summed per-operator
``rows_out`` before the projection) and **>= 2x lower median wall time**
than the best left-deep DP plan, with row sets identical to the
left-deep oracle.

The triangle is benchmarked alongside as the degenerate control: under
R-join (reachability) semantics ``A ~> B`` and ``B ~> C`` imply the
closing edge ``A ~> C`` by transitivity, so a triangle's cycle never
filters and binary plans are already near-optimal there — the diamond is
the smallest cycle whose closing condition is independent of its paths.
A realistic leg iterates the XMark cyclic workload
(:meth:`PatternFactory.cyclic_patterns`) purely as an agreement gate.

Run with: pytest benchmarks/bench_wcoj_cyclic.py -q -s --benchmark-disable
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, Tuple

import pytest

from repro import GraphEngine
from repro.graph import xmark
from repro.graph.generators import diamond_blowup
from repro.workloads.patterns import PatternFactory

OPTIMIZERS = ("dp", "dps", "wcoj")
ROUNDS = 5

#: the two gated shapes on the engineered graph
SHAPES = {
    "triangle": "A -> B, A -> C, B -> C",
    "diamond": "A -> B, A -> C, B -> D, C -> D",
}

#: the acceptance thresholds (ISSUE 8): intermediate-row and wall-time
#: advantage of the wcoj plan over the best left-deep DP plan on the
#: diamond instance
MIN_INTERMEDIATE_RATIO = 5.0
MIN_WALL_RATIO = 2.0


def intermediate_rows(result) -> int:
    """Summed per-operator ``rows_out``."""
    return sum(op.rows_out for op in result.metrics.operators)


@pytest.fixture(scope="module")
def blowup_engine() -> GraphEngine:
    return GraphEngine(diamond_blowup(n_anchor=300, branch_fanout=80, closers=2, seed=7))


@pytest.fixture(scope="module")
def measurements(blowup_engine) -> Dict[Tuple[str, str], dict]:
    """Median-of-ROUNDS wall time per (shape, optimizer), measured once."""
    out: Dict[Tuple[str, str], dict] = {}
    for shape, pattern in SHAPES.items():
        for optimizer in OPTIMIZERS:
            walls = []
            for _ in range(ROUNDS):
                start = time.perf_counter()
                result = blowup_engine.match(pattern, optimizer=optimizer)
                walls.append((time.perf_counter() - start) * 1000.0)
            out[shape, optimizer] = {
                "rows": tuple(sorted(result.rows)),
                "intermediate_rows": intermediate_rows(result),
                "wall_ms": statistics.median(walls),
                "result": result,
            }
    return out


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
@pytest.mark.parametrize("shape", tuple(SHAPES))
def test_blowup_agreement_and_record(measurements, bench_record, shape, optimizer):
    """Every optimizer returns the left-deep oracle's exact row set."""
    entry = measurements[shape, optimizer]
    oracle = measurements[shape, "dp"]
    assert entry["rows"] == oracle["rows"], f"{shape}/{optimizer} diverges from DP"
    metrics = entry["result"].metrics
    cache = metrics.center_cache
    bench_record.add(
        query=shape,
        optimizer=optimizer,
        variant="blowup",
        wall_ms=entry["wall_ms"],
        rows=len(entry["rows"]),
        intermediate_rows=entry["intermediate_rows"],
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
    )
    print(
        f"\n[wcoj-cyclic] {shape:9s} {optimizer:6s}: rows={len(entry['rows'])} "
        f"intermediate={entry['intermediate_rows']} wall={entry['wall_ms']:.2f}ms"
    )


def test_diamond_intermediate_rows_gate(measurements):
    """wcoj materializes >= 5x fewer intermediate rows than left-deep DP."""
    dp = measurements["diamond", "dp"]
    wcoj = measurements["diamond", "wcoj"]
    assert wcoj["rows"] == dp["rows"]
    ratio = dp["intermediate_rows"] / max(wcoj["intermediate_rows"], 1)
    print(
        f"\n[wcoj-cyclic] diamond intermediate rows: dp={dp['intermediate_rows']} "
        f"wcoj={wcoj['intermediate_rows']} ({ratio:.1f}x, gate >= "
        f"{MIN_INTERMEDIATE_RATIO}x)"
    )
    assert ratio >= MIN_INTERMEDIATE_RATIO


def test_diamond_wall_time_gate(measurements):
    """wcoj runs the diamond >= 2x faster (median wall) than left-deep DP."""
    dp = measurements["diamond", "dp"]
    wcoj = measurements["diamond", "wcoj"]
    ratio = dp["wall_ms"] / wcoj["wall_ms"]
    print(
        f"\n[wcoj-cyclic] diamond median wall: dp={dp['wall_ms']:.2f}ms "
        f"wcoj={wcoj['wall_ms']:.2f}ms ({ratio:.1f}x, gate >= {MIN_WALL_RATIO}x)"
    )
    assert ratio >= MIN_WALL_RATIO


def test_triangle_is_transitivity_degenerate(measurements):
    """The control: the triangle's closing edge filters nothing.

    ``A ~> B, B ~> C`` implies ``A ~> C``, so every (a, b, c) surviving
    the two path conditions already satisfies the cycle — binary plans
    have nothing to lose here and the bench records, rather than gates,
    the shape.
    """
    dp = measurements["triangle", "dp"]
    wcoj = measurements["triangle", "wcoj"]
    assert wcoj["rows"] == dp["rows"]
    assert len(dp["rows"]) > 0  # non-empty control, not a vacuous pass


def test_xmark_cyclic_agreement(bench_record):
    """Realistic leg: the XMark cyclic workload agrees across optimizers."""
    data = xmark.generate(factor=0.1, entity_budget=600, seed=7)
    engine = GraphEngine(data.graph)
    factory = PatternFactory(engine.db.catalog, seed=11)
    patterns = factory.cyclic_patterns(("triangle", "diamond", "cycle-tail"))
    for name, pattern in patterns.items():
        oracle = None
        for optimizer in OPTIMIZERS:
            start = time.perf_counter()
            result = engine.match(pattern, optimizer=optimizer)
            wall_ms = (time.perf_counter() - start) * 1000.0
            rows = tuple(sorted(result.rows))
            if oracle is None:
                oracle = rows
            assert rows == oracle, f"xmark {name}/{optimizer} diverges"
            if optimizer in ("dp", "wcoj"):
                bench_record.add(
                    query=name,
                    optimizer=optimizer,
                    variant="xmark",
                    wall_ms=wall_ms,
                    rows=len(rows),
                    intermediate_rows=intermediate_rows(result),
                )
