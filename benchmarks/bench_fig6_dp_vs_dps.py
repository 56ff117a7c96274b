"""Figure 6 — DP vs DPS on Q1-Q5 graph patterns (|V_q| = 4 and 5).

The paper's Figure 6 runs five graph-pattern queries at two pattern sizes
on the largest dataset and shows DPS (interleaved R-semijoins)
significantly outperforming DP (R-joins only).  Section 6.2 also notes
"for most queries, DP spends over five times of I/O cost than what DPS
spends" — so this benchmark records the physical-I/O ratio alongside the
timing series.

Run with: pytest benchmarks/bench_fig6_dp_vs_dps.py --benchmark-only -s
"""

import pytest

from repro.workloads.runner import accounting_run

QUERIES = tuple(f"Q{i}" for i in range(1, 6))
SIZES = (4, 5)


@pytest.fixture(scope="module")
def query_patterns(engines):
    from repro.workloads.patterns import PatternFactory
    from repro.workloads.runner import row_limit_validator

    # Figure 6 is precisely about the heavy-intermediate regime (that is
    # where semijoin interleaving pays off), so its cap only excludes
    # catastrophic runaways, not merely-expensive queries.
    workload_row_limit = 600_000
    factory = PatternFactory(
        engines["XL"].db.catalog,
        seed=11,
        validator=row_limit_validator(engines["XL"], workload_row_limit),
    )
    return {size: factory.figure4_queries(size) for size in SIZES}


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("optimizer", ("dp", "dps"))
@pytest.mark.benchmark(min_rounds=2, max_time=2.0)
def test_fig6_dp_vs_dps(
    benchmark, engines, query_patterns, optimizer, query, size, bench_record
):
    engine = engines["XL"]
    pattern = query_patterns[size][query]

    result = benchmark(lambda: accounting_run(engine, pattern, optimizer))
    bench_record.add_result(result, query=f"{query}-v{size}", optimizer=optimizer)
    benchmark.extra_info.update(
        {
            "figure": f"6 (|Vq|={size})",
            "query": query,
            "engine": optimizer.upper(),
            "rows": len(result),
            "physical_io": result.metrics.physical_io,
            "logical_io": result.metrics.logical_io,
            "peak_temporal_rows": result.metrics.peak_temporal_rows,
        }
    )
    print(
        f"\n[Fig 6 |Vq|={size}] {query} {optimizer.upper():>3}: "
        f"rows={len(result)} physIO={result.metrics.physical_io} "
        f"logIO={result.metrics.logical_io} "
        f"peak={result.metrics.peak_temporal_rows}"
    )


@pytest.mark.parametrize("size", SIZES)
def test_fig6_result_agreement(engines, query_patterns, size):
    """DP and DPS must return identical match sets on every query."""
    engine = engines["XL"]
    for query, pattern in query_patterns[size].items():
        dp = accounting_run(engine, pattern, "dp").as_set()
        dps = accounting_run(engine, pattern, "dps").as_set()
        assert dp == dps, f"{query} (|Vq|={size}): DP and DPS disagree"
