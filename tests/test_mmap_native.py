"""Snapshot-tier execution.

**Tier invisibility**: a snapshot-loaded engine (each run copied out of
the mapping per call) must produce rows and per-operator counters
identical to the database that wrote the file and to the frozenset
reference executor, across every Figure 4 pattern family, both paper
optimizers and both drivers.  That the snapshot tier keeps no copy is
``tests/test_snapshot.py::TestLaziness``'s to check.
"""

import pytest

from repro.query import execute_plan, execute_plan_streaming

from reference_executor import assert_matches_reference, op_counters

OPTIMIZERS = ("dp", "dps")


# ----------------------------------------------------------------------
# the snapshot tier vs the built database vs the reference
# ----------------------------------------------------------------------
@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_native_batch_matches_oracle_and_built(
    xmark_engine, xmark_snapshot_engine, reference_index, figure4_workload,
    optimizer,
):
    for name, pattern in figure4_workload.items():
        built = xmark_engine.match(pattern, optimizer=optimizer)
        snapped = xmark_snapshot_engine.match(pattern, optimizer=optimizer)
        assert snapped.rows == built.rows, (
            f"{name} [{optimizer}]: snapshot-tier rows diverge"
        )
        assert_matches_reference(
            reference_index, snapped.plan, snapped.rows, snapped.metrics,
            f"{name} [{optimizer}]",
        )


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_native_drivers_match_oracle(
    xmark_engine, xmark_snapshot_engine, reference_index, figure4_workload,
    optimizer,
):
    """Materializing and streaming drivers on the snapshot engine."""
    db = xmark_snapshot_engine.db
    for name, pattern in figure4_workload.items():
        plan = xmark_snapshot_engine.plan(pattern, optimizer=optimizer).plan
        built_plan = xmark_engine.plan(pattern, optimizer=optimizer).plan
        # identical catalog statistics => identical chosen plans
        assert plan.describe() == built_plan.describe()
        result = execute_plan(db, plan)
        assert_matches_reference(
            reference_index, plan, result.rows, result.metrics, name
        )
        stream = execute_plan_streaming(db, plan)
        assert list(stream) == result.rows, (
            f"{name} [{optimizer}]: streamed rows diverge"
        )
        assert op_counters(stream.metrics) == op_counters(result.metrics)
