"""Figure 6 mechanism check — the regime where DPS beats DP many-fold.

Our XMark-derived workloads mostly have per-condition survival near 1, so
semijoins have little to prune and DP ≈ DPS (see bench_fig6_dp_vs_dps).
The paper's "DP spends over five times of I/O" lives in a different
regime: conditions that are *individually* unselective but *conjunctively*
selective.  There, DP's mandatory first move — a full two-table HPSJ —
materializes a fat intermediate that interleaved R-semijoins (DPS's
seed-scan + shared Filter) never build.

This benchmark constructs that regime explicitly with the
``anti_correlated_star`` generator: every hub node reaches exactly one of
the two branch pools (survival ≈ 0.5 per condition) except a 0.2% overlap
that reaches both (conjunction ≈ 0.002).  Expected shape: DPS beats DP by
roughly ``fanout/2`` in physical I/O — 5-10x at the default parameters,
matching the paper's claim.

Run with: pytest benchmarks/bench_fig6_mechanism.py --benchmark-only -s
"""

import pytest

from repro import GraphEngine
from repro.graph.generators import anti_correlated_star
from repro.workloads.runner import accounting_run

QUERY = "a:A -> b:B, a -> c:C"


@pytest.fixture(scope="module")
def star_engine():
    graph = anti_correlated_star(
        n_hub=12_000,
        fanout=20,
        overlap=0.002,
        branch_labels=("B", "C"),
        pool_per_branch=600,
        seed=5,
    )
    return GraphEngine(graph, buffer_bytes=128 * 1024)


@pytest.fixture(scope="module")
def reference(star_engine):
    return accounting_run(star_engine, QUERY, "dps").as_set()


@pytest.mark.parametrize("optimizer", ("dp", "dps"))
@pytest.mark.benchmark(min_rounds=2, max_time=2.0)
def test_fig6_mechanism_anti_correlated(
    benchmark, star_engine, reference, optimizer, bench_record
):
    result = benchmark(lambda: accounting_run(star_engine, QUERY, optimizer))
    assert result.as_set() == reference
    bench_record.add_result(result, query="anti-correlated-star", optimizer=optimizer)
    benchmark.extra_info.update(
        {
            "figure": "6-mechanism",
            "engine": optimizer.upper(),
            "rows": len(result),
            "physical_io": result.metrics.physical_io,
            "logical_io": result.metrics.logical_io,
            "peak_temporal_rows": result.metrics.peak_temporal_rows,
        }
    )
    print(
        f"\n[Fig 6 mechanism] {optimizer.upper():>3}: rows={len(result)} "
        f"physIO={result.metrics.physical_io} "
        f"logIO={result.metrics.logical_io} "
        f"peak={result.metrics.peak_temporal_rows}"
    )


def test_fig6_mechanism_io_ratio(star_engine, reference):
    """The headline assertion: DPS needs several-fold less I/O than DP."""
    dps = accounting_run(star_engine, QUERY, "dps")
    dp = accounting_run(star_engine, QUERY, "dp")
    assert dps.as_set() == dp.as_set() == reference
    assert dp.metrics.physical_io >= 3 * dps.metrics.physical_io, (
        f"expected a multi-fold I/O gap, got DP={dp.metrics.physical_io} "
        f"vs DPS={dps.metrics.physical_io}"
    )
    assert dp.metrics.peak_temporal_rows >= 5 * dps.metrics.peak_temporal_rows
