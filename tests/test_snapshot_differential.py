"""Differential property test: built database vs snapshot-loaded database.

The acceptance contract of the snapshot subsystem: for every workload
pattern shape (paths, trees, graph queries) under both paper optimizers
(``dp``, ``dps``) and both drivers (materializing, streaming), a database
loaded from a binary snapshot must produce the *identical result set*
and *identical per-operator metrics* (``rows_in``/``rows_out``/
``centers_probed``/``nodes_fetched``) as the database that wrote it —
the lazy mmap-backed read path is invisible to the query layer.
"""

import pytest

from repro.query import execute_plan, execute_plan_streaming

from reference_executor import op_counters

OPTIMIZERS = ("dp", "dps")


@pytest.fixture(scope="module")
def engine(xmark_engine):
    return xmark_engine


@pytest.fixture(scope="module")
def snapshot_engine(xmark_snapshot_engine):
    return xmark_snapshot_engine


@pytest.fixture(scope="module")
def workload(figure4_workload):
    return figure4_workload


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_snapshot_db_matches_built_db_everywhere(
    engine, snapshot_engine, workload, optimizer
):
    for name, pattern in workload.items():
        built_plan = engine.plan(pattern, optimizer=optimizer)
        snap_plan = snapshot_engine.plan(pattern, optimizer=optimizer)
        # identical catalog statistics => identical chosen plans
        assert snap_plan.plan.describe() == built_plan.plan.describe(), (
            f"{name} [{optimizer}]: optimizer chose a different plan on "
            "the snapshot-loaded database"
        )

        built = execute_plan(engine.db, built_plan.plan)
        snapped = execute_plan(snapshot_engine.db, snap_plan.plan)
        assert snapped.rows == built.rows, (
            f"{name} [{optimizer}]: materializing rows diverge on snapshot"
        )
        assert op_counters(snapped.metrics) == op_counters(built.metrics), (
            f"{name} [{optimizer}]: materializing per-op metrics diverge"
        )

        built_stream = execute_plan_streaming(engine.db, built_plan.plan)
        built_rows = list(built_stream)
        snap_stream = execute_plan_streaming(snapshot_engine.db, snap_plan.plan)
        snap_rows = list(snap_stream)
        assert snap_rows == built_rows, (
            f"{name} [{optimizer}]: streamed rows diverge on snapshot"
        )
        assert op_counters(snap_stream.metrics) == op_counters(
            built_stream.metrics
        ), f"{name} [{optimizer}]: streaming per-op metrics diverge"


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_snapshot_db_matches_in_batch_mode(
    engine, snapshot_engine, workload, optimizer
):
    """Warm engine-level runs (working cache and CenterCache in play
    on both tiers) agree as well."""
    for name, pattern in workload.items():
        built = engine.match(pattern, optimizer=optimizer)
        snapped = snapshot_engine.match(pattern, optimizer=optimizer)
        assert snapped.rows == built.rows, (
            f"{name} [{optimizer}]: warm rows diverge on snapshot"
        )
        assert op_counters(snapped.metrics) == op_counters(built.metrics), (
            f"{name} [{optimizer}]: warm per-op metrics diverge"
        )
