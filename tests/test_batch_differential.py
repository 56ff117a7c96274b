"""Differential test: the set-semantics oracle vs the kernel operators.

The scalar frozenset bodies the operators once carried live on as
``tests/reference_executor.py``; the sorted-run kernel path (per-operator
memo → CenterCache → kernels) is the one body left in ``src/``.  For
every Figure-4 pattern shape under every left-deep optimizer and under
*both* drivers, the kernel body — with a shared CenterCache, without
one, cold and warm — must produce the reference's rows and identical
per-operator logical counters (``rows_in``/``rows_out``/
``centers_probed``/``nodes_fetched``).  The counters are the stronger
claim: the body memoizes work per distinct node and per distinct centers
tuple, but it must still *charge* that work per row exactly as
Algorithm 2 does.
"""

import pytest

from repro.query import CenterCache, execute_plan, execute_plan_streaming

from reference_executor import assert_matches_reference, op_counters

OPTIMIZERS = ("dp", "dps", "greedy")


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_materializing_driver_scalar_vs_batch(
    xmark_engine, reference_index, figure4_workload, optimizer
):
    cache = CenterCache()
    for name, pattern in figure4_workload.items():
        plan = xmark_engine.plan(pattern, optimizer=optimizer).plan
        result = execute_plan(xmark_engine.db, plan, center_cache=cache)
        assert_matches_reference(
            reference_index, plan, result.rows, result.metrics,
            f"{name}/{optimizer}",
        )


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_streaming_driver_scalar_vs_batch(
    xmark_engine, reference_index, figure4_workload, optimizer
):
    cache = CenterCache()
    for name, pattern in figure4_workload.items():
        plan = xmark_engine.plan(pattern, optimizer=optimizer).plan
        stream = execute_plan_streaming(xmark_engine.db, plan, center_cache=cache)
        assert_matches_reference(
            reference_index, plan, list(stream), stream.metrics,
            f"{name}/{optimizer}",
        )


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_batch_without_cache_still_agrees(
    xmark_engine, reference_index, figure4_workload, optimizer
):
    """The kernels alone (no CenterCache) are already exact."""
    for name, pattern in list(figure4_workload.items())[:6]:
        plan = xmark_engine.plan(pattern, optimizer=optimizer).plan
        result = execute_plan(xmark_engine.db, plan)
        assert result.metrics.center_cache is None
        assert_matches_reference(
            reference_index, plan, result.rows, result.metrics,
            f"{name}/{optimizer}",
        )


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_warm_cache_changes_nothing_but_speed(
    xmark_engine, figure4_workload, optimizer
):
    """Counters and rows are cache-oblivious: a warm cache only turns
    misses into hits."""
    cache = CenterCache()
    pattern = next(iter(figure4_workload.values()))
    plan = xmark_engine.plan(pattern, optimizer=optimizer).plan
    cold = execute_plan(xmark_engine.db, plan, center_cache=cache)
    warm = execute_plan(xmark_engine.db, plan, center_cache=cache)
    assert cold.rows == warm.rows
    assert op_counters(cold.metrics) == op_counters(warm.metrics)
    assert warm.metrics.center_cache.hits >= cold.metrics.center_cache.hits
    assert warm.metrics.center_cache.misses == 0
