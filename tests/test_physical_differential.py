"""Properties of the operator layer under the stream and the accounting run.

Rows and per-operator counters of both are pinned against the reference
executor in ``tests/test_differential.py``; this file holds what that
equality does not say: the metric invariants every operator keeps, that
the accounting run (``execute_plan``) charges temporal tables per page
on top of exactly the stream's I/O, and that the ``row_limit`` guard
behaves alike under both.
"""

import pytest

from repro import GraphEngine
from repro.graph import xmark
from repro.query import execute_plan, execute_plan_streaming
from repro.workloads.patterns import PatternFactory

OPTIMIZERS = ("dp", "dps")


@pytest.fixture(scope="module")
def engine():
    data = xmark.generate(factor=0.1, entity_budget=600, seed=7)
    return GraphEngine(data.graph)


@pytest.fixture(scope="module")
def workload(engine):
    """Every Figure 4 family: 9 paths, 9 trees, 5 four-variable graphs."""
    factory = PatternFactory(engine.db.catalog, seed=11)
    patterns = {}
    patterns.update(factory.figure4_paths())
    patterns.update(factory.figure4_trees())
    patterns.update(factory.figure4_queries(4))
    return patterns


def op_counters(metrics):
    return [
        (op.operator, op.rows_in, op.rows_out, op.centers_probed, op.nodes_fetched)
        for op in metrics.operators
    ]


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_metrics_invariants_hold_under_both_drivers(engine, workload, optimizer):
    """rows_out <= rows_in on every operator, one entry per plan step."""
    for name, pattern in workload.items():
        optimized = engine.plan(pattern, optimizer=optimizer)
        result = execute_plan(engine.db, optimized.plan)
        assert len(result.metrics.operators) == len(optimized.plan.steps)
        for op in result.metrics.operators:
            assert op.rows_in >= 0 and op.rows_out >= 0
            if op.operator.startswith("fetch"):
                # Fetch is the one expanding operator: each input row may
                # produce many partners, but never more than it examined
                assert op.rows_out <= op.nodes_fetched, (
                    f"{name} [{optimizer}] {op.operator}: emitted more rows "
                    "than subcluster nodes examined"
                )
            else:
                # scans, HPSJ, Filter and Selection only ever prune/dedup
                assert op.rows_out <= op.rows_in, (
                    f"{name} [{optimizer}] {op.operator}: "
                    f"rows_out {op.rows_out} > rows_in {op.rows_in}"
                )


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_temporal_tables_are_charged_per_page(engine, workload, optimizer, monkeypatch):
    """Guard against per-row spill charging: the materializing driver's
    logical reads are the streaming driver's (index and base-table
    probes only) plus one per temporal-table page, each page being
    scanned once and nothing being charged per appended row."""
    from repro.query.algebra import TemporalTable

    pages = []
    drop = TemporalTable.drop
    monkeypatch.setattr(
        TemporalTable, "drop", lambda t: (pages.append(t.page_count), drop(t))
    )
    spilled_rows = spilled_pages = 0
    for name, pattern in workload.items():
        optimized = engine.plan(pattern, optimizer=optimizer)
        del pages[:]
        engine.db.reset_counters()
        materialized = execute_plan(engine.db, optimized.plan)
        engine.db.reset_counters()
        stream = execute_plan_streaming(engine.db, optimized.plan)
        list(stream)
        assert len(pages) == len(optimized.plan.steps)
        assert (
            materialized.metrics.io.logical_reads
            == stream.metrics.io.logical_reads + sum(pages)
        ), f"{name} [{optimizer}]: temporal tables not charged per page"
        spilled_rows += sum(op.rows_out for op in materialized.metrics.operators)
        spilled_pages += sum(pages)
    # the guard has teeth: a charge per row would not pass for a charge per page
    assert spilled_pages < spilled_rows


def test_streaming_supports_row_limit(engine, workload):
    """The streaming driver enforces the same execution guard."""
    from repro.query.algebra import RowLimitExceeded

    # pick the workload pattern with the largest peak intermediate
    def peak(pattern):
        optimized = engine.plan(pattern, optimizer="dps")
        return execute_plan(engine.db, optimized.plan).metrics.peak_temporal_rows

    name, pattern = max(workload.items(), key=lambda kv: peak(kv[1]))
    optimized = engine.plan(pattern, optimizer="dps")
    biggest = peak(pattern)
    assert biggest > 1, f"workload pattern {name} too small to guard"
    with pytest.raises(RowLimitExceeded):
        list(execute_plan_streaming(engine.db, optimized.plan, row_limit=biggest - 1))
    with pytest.raises(RowLimitExceeded):
        execute_plan(engine.db, optimized.plan, row_limit=biggest - 1)
