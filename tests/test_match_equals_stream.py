"""``GraphEngine.match`` is ``GraphEngine.match_iter``, collected.

There is one driver.  For every Figure-4 pattern and every
``CYCLIC_SHAPES`` entry, on both storage tiers and under every option
``match_iter`` takes, ``engine.match(p, **kw)`` must equal
``list(engine.match_iter(p, **kw))`` on the rows *in order*, the
columns, all four per-operator counters and the truncation verdict —
and raise the same ``RowLimitExceeded`` when the guard is tight.
"""

import pytest

from repro.query import RowLimitExceeded

from reference_executor import op_counters

OPTIONS = {
    "full": {},
    "limit=1": {"limit": 1},
    "limit=0": {"limit": 0},
    "timeout=0": {"timeout": 0},
}


@pytest.fixture(scope="module")
def engines(xmark_engine, xmark_snapshot_engine):
    return {"live": xmark_engine, "snapshot": xmark_snapshot_engine}


@pytest.fixture(scope="module")
def patterns(figure4_workload, cyclic_workload):
    return {**figure4_workload, **cyclic_workload}


def observed(columns, rows, metrics):
    return (
        columns, rows, op_counters(metrics), metrics.result_rows,
        metrics.peak_temporal_rows, metrics.truncated, metrics.stop_reason,
    )


@pytest.mark.parametrize("options", OPTIONS.values(), ids=OPTIONS.keys())
@pytest.mark.parametrize("tier", ("live", "snapshot"))
def test_match_is_the_stream_collected(engines, patterns, tier, options):
    engine = engines[tier]
    for name, pattern in patterns.items():
        result = engine.match(pattern, optimizer="auto", **options)
        stream = engine.match_iter(pattern, optimizer="auto", **options)
        rows = list(stream)
        assert observed(result.columns, result.rows, result.metrics) == observed(
            stream.columns, rows, stream.metrics
        ), name
        assert result.plan is stream.plan
        assert result.metrics.io.logical_reads >= 0
        if options.get("limit") == 0 or "timeout" in options:
            assert result.rows == [] and result.metrics.truncated


@pytest.mark.parametrize("tier", ("live", "snapshot"))
def test_tight_row_limit_raises_the_same_error(engines, patterns, tier):
    engine = engines[tier]
    for name, pattern in patterns.items():
        biggest = engine.match(pattern, optimizer="auto").metrics.peak_temporal_rows
        if not biggest:
            continue
        with pytest.raises(RowLimitExceeded) as collected:
            engine.match(pattern, optimizer="auto", row_limit=biggest - 1)
        with pytest.raises(RowLimitExceeded) as streamed:
            list(engine.match_iter(pattern, optimizer="auto", row_limit=biggest - 1))
        assert str(collected.value) == str(streamed.value), name
