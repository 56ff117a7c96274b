"""The one differential: every execution configuration vs the reference.

One operator body runs under one driver (the stream; ``engine.match`` is
that stream collected, pinned by ``test_match_equals_stream.py``), on
two storage tiers (live B+-tree database, snapshot-loaded database),
with and without a :class:`CenterCache`, cold and warm — plus
the accounting run (``execute_plan``: the same operators drained into
temporal tables).  For every Figure-4 pattern and every
``CYCLIC_SHAPES`` entry under every optimizer, each configuration must
return the rows the frozenset reference executor
(``tests/reference_executor.py``) returns for the same plan, and report
the same per-operator ``rows_in`` / ``rows_out`` / ``centers_probed`` /
``nodes_fetched``.  The counters are the stronger claim: the body
memoizes work per distinct node and per distinct centers tuple, but it
must still *charge* that work per row exactly as Algorithm 2 does.  A
sanitizer leg re-runs the matrix's busiest slice with the runtime
tripwires armed.
"""

import pytest

from repro.query import CenterCache, execute_plan, execute_plan_streaming

from reference_executor import op_counters, reference_execute

TIERS = ("live", "snapshot")
#: every optimizer runs the cyclic shapes and the Figure-4 families
OPTIMIZERS = ("dp", "dps", "wcoj")
#: a CenterCache budget far below the wcoj workload's working set, so
#: the sanitizer leg runs under constant eviction
SMALL_CACHE_BYTES = 8 << 10


@pytest.fixture(scope="module")
def engines(xmark_engine, xmark_snapshot_engine):
    return {"live": xmark_engine, "snapshot": xmark_snapshot_engine}


def workload_for(figure4_workload, cyclic_workload):
    return {**cyclic_workload, **figure4_workload}


def check_streams(engine, index, pattern, optimizer, label, *configurations):
    """One plan streamed under each configuration (keyword arguments of
    ``execute_plan_streaming``) vs one run of the reference; returns the
    plan, the reference's (sorted rows, counters) and each run's metrics."""
    plan = engine.plan(pattern, optimizer=optimizer).plan
    rows, counters = reference_execute(index, plan)
    expected = sorted(rows), counters
    ran = []
    for number, execution in enumerate(configurations):
        stream = execute_plan_streaming(engine.db, plan, **execution)
        got = sorted(stream), op_counters(stream.metrics)
        assert got == expected, f"{label}/configuration {number} differs"
        ran.append(stream.metrics)
    return plan, expected, ran


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
@pytest.mark.parametrize("tier", TIERS)
def test_sequential_matches_reference(
    engines, reference_index, figure4_workload, cyclic_workload, tier, optimizer
):
    engine = engines[tier]
    cache = CenterCache()  # shared across the loop: warm hits change nothing
    patterns = workload_for(figure4_workload, cyclic_workload)
    for name, pattern in patterns.items():
        label = f"{name}/{optimizer}/{tier}"
        # the kernels alone (no CenterCache) are already exact; a warm
        # cache changes nothing but speed — it only turns misses into hits
        plan, expected, (bare, _, warm) = check_streams(
            engine, reference_index, pattern, optimizer, label,
            {}, {"center_cache": cache}, {"center_cache": cache},
        )
        assert bare.center_cache is None
        assert warm.center_cache.misses == 0, label
        # the accounting run drains the same operators into temporal tables
        result = execute_plan(engine.db, plan)
        assert result.metrics.center_cache is None
        got = sorted(result.rows), op_counters(result.metrics)
        assert got == expected, f"{label}/accounting run differs"
        assert (result.metrics.peak_temporal_rows, result.metrics.result_rows) == (
            warm.peak_temporal_rows, warm.result_rows
        ), label


@pytest.mark.parametrize("tier", TIERS)
def test_sanitizer_leg(
    engines, reference_index, figure4_workload, cyclic_workload, tier, monkeypatch
):
    """The tripwires (the CenterCache byte-ledger audit) stay silent on
    the sequential multiway runs, with a cache small enough to keep
    evicting."""
    engine = engines[tier]
    cache = CenterCache(capacity_bytes=SMALL_CACHE_BYTES)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    for name, pattern in workload_for(figure4_workload, cyclic_workload).items():
        check_streams(
            engine, reference_index, pattern, "wcoj", f"{name}/{tier}/sanitize",
            {"center_cache": cache},
        )
    assert cache.evictions > 0
    assert cache.check_ledger() == []
