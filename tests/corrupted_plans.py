"""Hand-built broken plans, one per plan invariant, shared by the
plan-checker tests (``test_plancheck.py``, ``test_wcoj.py``).

``CORRUPTED[name]`` is ``(plan, rules)``: *plan* breaks at least the
invariants the ``plan/*`` rule ids in *rules* name, the first being the
one it was built for.  Every label is one of the paper's Figure 1 graph,
so any driver over that graph can be handed any of these plans.
"""

from repro.query import parse_pattern
from repro.query.algebra import (
    FetchStep,
    FilterStep,
    MultiwaySeed,
    MultiwayStep,
    Plan,
    SeedJoin,
    SeedScan,
    SelectionStep,
    Side,
)
from repro.query.pattern import GraphPattern

IN, OUT = Side.IN, Side.OUT

FORK = GraphPattern.build({"A": "A", "B": "B", "C": "C"}, [("A", "C"), ("B", "C")])
CHAIN = GraphPattern.build({"A": "A", "C": "C", "D": "D"}, [("A", "C"), ("C", "D")])
CLOSED_CHAIN = GraphPattern.build(
    {"A": "A", "C": "C", "D": "D"}, [("A", "C"), ("C", "D"), ("A", "D")]
)
TRIANGLE = parse_pattern("A -> B, B -> C, A -> C")

CORRUPTED = {
    "unbound_filter_variable": (Plan(FORK, [
        SeedScan("A"),
        FilterStep(((("B", "C"), OUT),)),  # scans B, never bound
        FetchStep(("B", "C"), OUT),
        FilterStep(((("A", "C"), OUT),)),
        FetchStep(("A", "C"), OUT),
    ]), ("plan/unbound-variable",)),
    "double_covered_condition": (Plan(FORK, [
        SeedJoin(("A", "C")),
        FilterStep(((("B", "C"), IN),)),
        FetchStep(("B", "C"), IN),
        SelectionStep(("A", "C")),  # already evaluated by the seed
    ]), ("plan/double-covered",)),
    "duplicate_filter": (Plan(FORK, [
        SeedJoin(("A", "C")),
        FilterStep(((("B", "C"), IN),)),
        FilterStep(((("B", "C"), IN),)),
    ]), ("plan/double-covered",)),
    "side_mismatch": (Plan(FORK, [
        SeedJoin(("A", "C")),
        FilterStep(((("B", "C"), IN),)),  # the filter scans C (the target)
        FetchStep(("B", "C"), OUT),  # the fetch pretends the source side
    ]), ("plan/side-mismatch",)),
    "fetch_without_filter": (Plan(FORK, [
        SeedJoin(("A", "C")),
        FetchStep(("B", "C"), IN),
    ]), ("plan/fetch-without-filter",)),
    "uncovered_condition": (Plan(FORK, [
        SeedJoin(("A", "C")),  # never touches B -> C
    ]), ("plan/uncovered-condition", "plan/never-bound")),
    "no_seed": (Plan(FORK, [
        SelectionStep(("A", "C")),
    ]), ("plan/no-seed",)),
    "second_seed": (Plan(FORK, [
        SeedJoin(("A", "C")),
        SeedJoin(("B", "C")),
    ]), ("plan/not-left-deep",)),
    "unfetched_filter": (Plan(FORK, [
        SeedJoin(("A", "C")),
        FilterStep(((("B", "C"), IN),)),  # filtered, never fetched
    ]), ("plan/unfetched-filter",)),
    "foreign_condition": (Plan(FORK, [
        SeedJoin(("A", "C")),
        FilterStep(((("B", "C"), IN),)),
        FetchStep(("B", "C"), IN),
        SelectionStep(("A", "B")),  # not a pattern condition
    ]), ("plan/foreign-condition",)),
    "rebinding_fetch": (Plan(CHAIN, [
        SeedJoin(("A", "C")),
        FilterStep(((("C", "D"), IN),)),  # would re-bind C
        FetchStep(("C", "D"), IN),
        SelectionStep(("C", "D")),
    ]), ("plan/rebind",)),
    "rebinding_filter": (Plan(CLOSED_CHAIN, [
        SeedJoin(("A", "C")),
        FilterStep(((("C", "D"), OUT),)),
        FetchStep(("C", "D"), OUT),
        FilterStep(((("A", "D"), OUT),)),  # scans bound A, targets bound D
        FetchStep(("A", "D"), OUT),
    ]), ("plan/rebind",)),
    "empty": (Plan(FORK, []), ("plan/empty",)),
    # multiway (generic-join) plans over the triangle
    "mixed_paradigm": (Plan(TRIANGLE, [
        MultiwaySeed("A", ((("A", "B"), IN), (("A", "C"), IN))),
        SeedJoin(("B", "C")),
    ]), ("plan/mixed-paradigm",)),
    "multiway_unbound_scan": (Plan(TRIANGLE, [
        MultiwaySeed("A"),
        MultiwayStep("C", ((("B", "C"), OUT),)),  # binds C from B, not bound yet
        MultiwayStep("B", ((("A", "B"), OUT),)),
    ]), ("plan/unbound-variable",)),
    "multiway_uncovered_condition": (Plan(TRIANGLE, [
        MultiwaySeed("A"),
        MultiwayStep("B", ((("A", "B"), OUT),)),
        MultiwayStep("C", ((("A", "C"), OUT),)),  # drops B -> C entirely
    ]), ("plan/uncovered-condition",)),
    "multiway_rebind": (Plan(TRIANGLE, [
        MultiwaySeed("A"),
        MultiwayStep("B", ((("A", "B"), OUT),)),
        MultiwayStep("C", ((("A", "C"), OUT), (("B", "C"), OUT))),
        MultiwayStep("B", ((("A", "B"), OUT),)),
    ]), ("plan/rebind", "plan/double-covered")),
}
