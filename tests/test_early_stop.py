"""Per-operator counters under early stop.

Every operator keeps its four counters in locals inside ``_produce`` and
publishes them when its generator finishes.  These tests pin what that
must mean whenever a stream does *not* run dry: ``rows_out`` is what the
consumer received, ``rows_in`` what was pulled from the source, and the
counters of every operator in the chain are final the moment the stream
stopped — at a limit, at a deadline, at ``close()`` in the middle of an
expansion, or at a ``RowLimitExceeded`` raised in the middle of one.

An expanding operator (Fetch, the multiway join) does not count per row:
it books a whole expansion before handing it over and takes back what
``operator.length_hint`` says is left of it when it finishes.  The sweep
at the bottom stops at every offset around an expansion boundary.
"""

import gc
import operator

import pytest

from repro import GraphEngine
from repro.query import execute_plan_streaming
from repro.query.algebra import (
    FetchStep,
    FilterStep,
    MultiwaySeed,
    MultiwayStep,
    Plan,
    RowLimitExceeded,
    SeedJoin,
    SeedScan,
    SelectionStep,
    Side,
)
from repro.query.parser import parse_pattern
from repro.query.physical import drivers

from reference_executor import ReferenceIndex, assert_matches_reference

FAN = 4   # c-children per b: the width of a Fetch expansion
SIDE = 6  # a-nodes and b-nodes: the width of the wcoj plan's last mjoin
TAKE = 7  # rows consumed before an early stop: one expansion and a bit


@pytest.fixture(scope="module")
def engine(hub_graph):
    return GraphEngine(hub_graph(SIDE, C=FAN))


PATH = parse_pattern("a:A -> b:B, b -> c:C")
TRIANGLE = parse_pattern("a:A -> b:B, a -> c:C, b -> c")
EXPAND_C = [
    SeedJoin(("a", "b")),
    FilterStep(((("b", "c"), Side.OUT),)),
    FetchStep(("b", "c"), Side.OUT),
]


@pytest.fixture(scope="module")
def plans(engine):
    return {
        "scan": Plan(parse_pattern("c:C"), [SeedScan("c")]),
        "hpsj+": Plan(PATH, EXPAND_C),
        "select": Plan(TRIANGLE, EXPAND_C + [SelectionStep(("a", "c"))]),
        "wcoj": engine.plan(TRIANGLE, optimizer="wcoj").plan,
    }


@pytest.fixture(scope="module")
def one_row(hub_graph):
    """An engine and plans whose last operator expands every source row
    exactly one way: each b has one c-child, and the wcoj order binds c
    last, from two constraints that meet in that one child."""
    bind_c_last = [
        MultiwaySeed("a", ((("a", "b"), Side.IN), (("a", "c"), Side.IN))),
        MultiwayStep("b", ((("a", "b"), Side.OUT),)),
        MultiwayStep("c", ((("a", "c"), Side.OUT), (("b", "c"), Side.OUT))),
    ]
    return GraphEngine(hub_graph(SIDE, C=1)), {
        "hpsj+": Plan(PATH, EXPAND_C),
        "wcoj": Plan(TRIANGLE, bind_c_last),
    }


# operator kind -> (the plan it is exercised in, its metrics-name prefix)
KINDS = {
    "scan": ("scan", "scan("),
    "hpsj": ("hpsj+", "hpsj("),
    "filter": ("hpsj+", "filter["),
    "fetch": ("hpsj+", "fetch("),
    "select": ("select", "select("),
    "mseed": ("wcoj", "mseed("),
    "mjoin": ("wcoj", "mjoin["),
}
MODES = ("limit", "close", "row_limit", "timeout")


def counters(chain):
    return [
        (m.operator, m.rows_in, m.rows_out, m.centers_probed, m.nodes_fetched)
        for m in chain
    ]


def run_stopped(monkeypatch, db, plan, mode, take=TAKE):
    """Run *plan* through the streaming driver, stopped early by *mode*
    after *take* rows.

    Returns (rows received, the metrics of every operator, their
    counters read the moment the stream had stopped,
    the RowLimitExceeded message or None)."""
    built = {}
    build = drivers.build_pipeline

    def spy(ctx, plan):
        operators = build(ctx, plan)
        built["chain"] = [op.metrics for op in operators]
        return operators

    monkeypatch.setattr(drivers, "build_pipeline", spy)
    raised = None
    if mode == "limit":
        stream = execute_plan_streaming(db, plan, limit=take)
        rows = list(stream)
        at_stop = counters(built["chain"])
        assert stream.metrics.stop_reason == "limit"
    elif mode == "timeout":
        stream = execute_plan_streaming(db, plan, timeout=0)
        rows = list(stream)
        at_stop = counters(built["chain"])
        assert stream.metrics.stop_reason == "timeout"
    elif mode == "close":
        stream = execute_plan_streaming(db, plan)
        rows = [next(stream) for _ in range(take)]
        stream.close()
        at_stop = counters(built["chain"])
        assert stream.metrics.stop_reason == "closed"
    else:
        stream = execute_plan_streaming(db, plan, row_limit=take)
        rows = []
        with pytest.raises(RowLimitExceeded) as caught:
            for row in stream:
                rows.append(row)
        # read while `caught` still holds the traceback, and with it the
        # frames of every generator the exception passed through
        at_stop = counters(built["chain"])
        raised = str(caught.value)
    # a prefix is flagged as one; an aborted run delivered no result
    assert stream.metrics.truncated == (mode != "row_limit")
    assert stream.metrics.result_rows == len(rows)
    return rows, built["chain"], at_stop, raised


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", KINDS)
def test_counters_are_exact_and_final_under_early_stop(
    monkeypatch, engine, plans, kind, mode
):
    plan_name, prefix = KINDS[kind]
    rows, chain, at_stop, raised = run_stopped(
        monkeypatch, engine.db, plans[plan_name], mode,
        take=1 if mode == "limit" else TAKE,
    )
    # final means final: nothing was left suspended that could still flush
    gc.collect()
    assert counters(chain) == at_stop

    expected_rows = {"limit": 1, "close": TAKE, "row_limit": TAKE, "timeout": 0}
    assert len(rows) == expected_rows[mode]
    assert len(set(rows)) == len(rows)

    # what each operator's consumer received: the next operator's
    # rows_in, and for the last one the rows in the caller's hands
    received = [m.rows_in for m in chain[1:]] + [len(rows)]
    thrower = None
    for metrics, got in zip(chain, received):
        if raised is not None and metrics.rows_out == TAKE + 1:
            # the guard fires on the row that crosses the budget, at the
            # statement that counts it: that row reached nobody
            assert thrower is None, "two operators crossed the budget"
            thrower = metrics
            assert metrics.rows_out == got + 1
        else:
            assert metrics.rows_out == got, (metrics, got)
    if mode == "row_limit":
        assert thrower is not None
        assert raised == f"operator {thrower.operator} exceeded {TAKE} rows"
    if mode == "timeout":
        # the deadline fires before the first pull: nothing ever opened
        assert all(c[1:] == (0, 0, 0, 0) for c in at_stop)

    target = [m for m in chain if m.operator.startswith(prefix)][-1]
    if mode in ("close", "row_limit") and kind in ("fetch", "mjoin"):
        # the plan's last expanding operator: stopped inside its second
        # expansion, with the first one's work already on the books
        assert target.rows_in == 2
        assert target.rows_out in (TAKE, TAKE + 1)
        assert target.centers_probed >= 2 and target.nodes_fetched >= 2 * FAN


@pytest.mark.parametrize("plan_name", ["scan", "hpsj+", "select", "wcoj"])
def test_full_drain_still_equals_the_reference(engine, plans, plan_name):
    plan = plans[plan_name]
    index = ReferenceIndex(engine.db.graph, engine.db.labeling)
    stream = execute_plan_streaming(engine.db, plan)
    rows = list(stream)
    # close() after natural exhaustion must not relabel the run
    stream.close()
    assert not stream.metrics.truncated
    assert stream.metrics.stop_reason is None
    assert_matches_reference(index, plan, rows, stream.metrics, plan_name)


@pytest.mark.parametrize("k", range(2 * FAN + 2))
@pytest.mark.parametrize("mode", ("limit", "close", "row_limit"))
@pytest.mark.parametrize(
    "plan_name, width", [("hpsj+", FAN), ("wcoj", SIDE), ("hpsj+", 1), ("wcoj", 1)]
)
def test_every_stop_offset(
    monkeypatch, engine, plans, one_row, plan_name, width, mode, k
):
    """Stop after every k around an expansion boundary: the plan's last
    operator (a Fetch, an mjoin) expands each source row *width* ways.
    Width 1 takes the operators' one-row path, which yields a built row
    instead of a ``zip`` and must leave nothing pending behind it."""
    db, plan = engine.db, plans[plan_name]
    if width == 1:
        db, plan = one_row[0].db, one_row[1][plan_name]
    rows, chain, at_stop, raised = run_stopped(monkeypatch, db, plan, mode, take=k)
    gc.collect()
    assert counters(chain) == at_stop
    assert len(rows) == k and len(set(rows)) == k

    received = [m.rows_in for m in chain[1:]] + [k]
    throwers = [m for m, got in zip(chain, received) if m.rows_out != got]
    if mode == "row_limit":
        (thrower,) = throwers
        assert thrower.rows_out == k + 1
        assert raised == f"operator {thrower.operator} exceeded {k} rows"
        # a budget of 0 is already crossed by the seed's first row; any
        # other by the last operator, one row into the next expansion —
        # unless that is one row wide: then the source row that would
        # feed it crossed the budget upstream and never arrived
        last_crosses = k > 0 and width > 1
        if last_crosses or k == 0:
            assert thrower is (chain[-1] if last_crosses else chain[0])
        else:
            assert thrower is not chain[-1]
        needed = k + 1 if last_crosses else k
    else:
        assert throwers == [] and raised is None
        needed = k
    # stopping on an expansion boundary has not pulled the next source row
    assert chain[-1].rows_in == -(-needed // width)


def test_length_hint_is_exact_for_tuple_iterators():
    """What the expanding operators' ``rows_out`` rests on."""
    for size in range(6):
        pending = iter(tuple(range(size)))
        for taken in range(size + 1):
            assert operator.length_hint(pending) == size - taken
            next(pending, None)
        assert operator.length_hint(pending) == 0
