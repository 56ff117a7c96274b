"""The one differential: every execution configuration vs the reference.

One operator body runs under two drivers (materializing, streaming), on
two storage tiers (live B+-tree database, snapshot-loaded database) and
on four schedulers (sequential, thread / process / spawn morsel pools).
For every Figure-4 pattern and every ``CYCLIC_SHAPES`` entry under every
optimizer, each configuration must return the rows the frozenset
reference executor (``tests/reference_executor.py``) returns for the
same plan, and report the same per-operator ``rows_in`` / ``rows_out`` /
``centers_probed`` / ``nodes_fetched``.  A sanitizer leg re-runs the
matrix's busiest slice with the runtime tripwires armed.
"""

import pytest

from repro.query import (
    CenterCache,
    WorkerPool,
    execute_plan,
    execute_plan_streaming,
    fork_available,
)

from reference_executor import assert_matches_reference

TIERS = ("live", "snapshot")
#: wcoj only differs from dps on cyclic join graphs, so the acyclic
#: Figure-4 families run the three left-deep optimizers
OPTIMIZERS = ("dp", "dps", "greedy", "wcoj")
#: spawn re-opens the snapshot by path, so it exists on that tier only
POOLS = [
    (tier, backend)
    for tier in TIERS
    for backend in ("thread", "process", "spawn")
    if (backend != "spawn" or tier == "snapshot")
    and (backend != "process" or fork_available())
]
MORSEL = 16


@pytest.fixture(scope="module")
def engines(xmark_engine, xmark_snapshot_engine):
    return {"live": xmark_engine, "snapshot": xmark_snapshot_engine}


def workload_for(optimizer, figure4_workload, cyclic_workload):
    patterns = dict(cyclic_workload)
    if optimizer != "wcoj":
        patterns.update(figure4_workload)
    return patterns


def check_both_drivers(engine, index, pattern, optimizer, label, **execution):
    """Materializing and streaming runs of one plan vs the reference."""
    plan = engine.plan(pattern, optimizer=optimizer).plan
    result = execute_plan(engine.db, plan, **execution)
    assert_matches_reference(
        index, plan, result.rows, result.metrics, f"{label}/materializing"
    )
    stream = execute_plan_streaming(engine.db, plan, **execution)
    assert_matches_reference(
        index, plan, list(stream), stream.metrics, f"{label}/streaming"
    )


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
@pytest.mark.parametrize("tier", TIERS)
def test_sequential_matches_reference(
    engines, reference_index, figure4_workload, cyclic_workload, tier, optimizer
):
    cache = CenterCache()  # shared across the loop: warm hits change nothing
    patterns = workload_for(optimizer, figure4_workload, cyclic_workload)
    for name, pattern in patterns.items():
        check_both_drivers(
            engines[tier], reference_index, pattern, optimizer,
            f"{name}/{optimizer}/{tier}", center_cache=cache,
        )


@pytest.mark.parametrize("optimizer", ("dps", "wcoj"))
@pytest.mark.parametrize("tier,backend", POOLS)
def test_worker_pools_match_reference(
    engines, reference_index, figure4_workload, cyclic_workload,
    tier, backend, optimizer,
):
    engine = engines[tier]
    pool = WorkerPool(engine.db, 2, backend)
    try:
        patterns = workload_for(optimizer, figure4_workload, cyclic_workload)
        for name, pattern in patterns.items():
            check_both_drivers(
                engine, reference_index, pattern, optimizer,
                f"{name}/{optimizer}/{tier}/{backend}",
                worker_pool=pool, morsel_size=MORSEL, center_cache=CenterCache(),
            )
    finally:
        pool.shutdown()


@pytest.mark.parametrize("tier", TIERS)
def test_sanitizer_leg(
    engines, reference_index, figure4_workload, cyclic_workload, tier
):
    """The tripwires (shared-state freeze, cache-generation freshness,
    shard isolation) stay silent on the sequential and thread-pool runs."""
    engine = engines[tier]
    pool = WorkerPool(engine.db, 2, "thread")
    try:
        for name, pattern in workload_for(
            "dps", figure4_workload, cyclic_workload
        ).items():
            check_both_drivers(
                engine, reference_index, pattern, "dps", f"{name}/{tier}/sanitize",
                center_cache=CenterCache(shards=4), sanitize=True,
            )
            check_both_drivers(
                engine, reference_index, pattern, "dps",
                f"{name}/{tier}/sanitize/thread",
                worker_pool=pool, morsel_size=MORSEL, sanitize=True,
            )
    finally:
        pool.shutdown()
