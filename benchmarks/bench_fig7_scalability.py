"""Figure 7 — scalability of DP vs DPS over the five-dataset ladder.

The paper's Figure 7 runs three pattern shapes — the Figure 4(a) path,
the 4(d) tree and the 4(i) 5-node graph — across the 20M..100M datasets
and shows DPS beating DP by a growing margin ("at least one order of
magnitude" at their scale) because "when the scale of the data sets
increases the I/O cost of DP increases much faster than DPS does".

We rerun the same design across the XS..XL ladder.  Patterns are labeled
once (on the XL catalog) and reused on every dataset so the curves are
comparable point-to-point.

Run with: pytest benchmarks/bench_fig7_scalability.py --benchmark-only -s
"""

import pytest

from repro.workloads.runner import accounting_run

DATASETS = ("XS", "S", "M", "L", "XL")
SHAPES = ("fig4a-path", "fig4d-tree", "fig4i-graph")


@pytest.fixture(scope="module")
def scalability_patterns(engines):
    from repro.workloads.patterns import PatternFactory
    from repro.workloads.runner import row_limit_validator

    workload_row_limit = 400_000  # exclude runaways only; scale curves need real work
    factory = PatternFactory(
        engines["XL"].db.catalog,
        seed=11,
        validator=row_limit_validator(engines["XL"], workload_row_limit),
    )
    return factory.scalability_patterns()


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("optimizer", ("dp", "dps"))
@pytest.mark.benchmark(min_rounds=2, max_time=2.0)
def test_fig7_scalability(
    benchmark, engines, scalability_patterns, optimizer, shape, dataset
):
    engine = engines[dataset]
    pattern = scalability_patterns[shape]

    result = benchmark(lambda: accounting_run(engine, pattern, optimizer))
    benchmark.extra_info.update(
        {
            "figure": "7",
            "shape": shape,
            "dataset": dataset,
            "engine": optimizer.upper(),
            "rows": len(result),
            "physical_io": result.metrics.physical_io,
        }
    )
    print(
        f"\n[Fig 7] {shape} {dataset:>3} {optimizer.upper():>3}: "
        f"rows={len(result)} physIO={result.metrics.physical_io}"
    )
