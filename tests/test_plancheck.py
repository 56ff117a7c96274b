"""plancheck: the static plan verifier accepts every optimizer-produced
plan and flags every deliberately corrupted one."""

from __future__ import annotations

import pytest

from repro.analysis import (
    PlanVerificationError,
    Severity,
    check_plan,
    has_errors,
)
from repro.graph import generators
from repro.query.algebra import (
    FetchStep,
    FilterStep,
    Plan,
    SeedJoin,
    SeedScan,
    SelectionStep,
    Side,
)
from repro.query.engine import GraphEngine
from repro.query import execute_plan
from repro.query.pattern import GraphPattern, PatternError
from repro.workloads.patterns import PatternFactory


@pytest.fixture(scope="module")
def engine():
    return GraphEngine(generators.figure1_graph())


@pytest.fixture()
def pattern():
    return GraphPattern.build(
        {"A": "A", "B": "B", "C": "C"}, [("A", "C"), ("B", "C")]
    )


def rules(diagnostics):
    return {d.rule for d in diagnostics}


# ----------------------------------------------------------------------
# clean plans pass
# ----------------------------------------------------------------------
class TestAcceptsOptimizerPlans:
    PATTERNS = [
        "A -> C",
        "A -> C, B -> C",
        "A -> C, B -> C, C -> D",
        "A -> C, C -> D, D -> E",
        "A -> C, B -> C, C -> D, D -> E",
    ]

    @pytest.mark.parametrize("text", PATTERNS)
    @pytest.mark.parametrize("optimizer", ["dp", "dps", "greedy"])
    def test_workload_plans_are_clean(self, engine, text, optimizer):
        plan = engine.plan(text, optimizer=optimizer).plan
        assert check_plan(plan, db=engine.db) == []

    @pytest.mark.parametrize("optimizer", ["dp", "dps"])
    def test_figure4_workload_suite_is_clean(self, optimizer):
        from repro import xmark

        data = xmark.generate(factor=0.2, entity_budget=500, seed=7)
        engine = GraphEngine(data.graph)
        factory = PatternFactory(engine.db.catalog, seed=11)
        suite = {}
        suite.update(factory.figure4_paths())
        suite.update(factory.figure4_trees())
        assert suite, "workload factory produced no patterns?"
        for name, pattern in suite.items():
            plan = engine.plan(pattern, optimizer=optimizer).plan
            diags = check_plan(plan, db=engine.db)
            assert not has_errors(diags), (name, [d.format() for d in diags])

    def test_single_variable_plan(self, engine):
        plan = engine.plan("A", optimizer="dp").plan
        assert check_plan(plan, db=engine.db) == []


# ----------------------------------------------------------------------
# corrupted plans are flagged (each fixture targets one rule)
# ----------------------------------------------------------------------
class TestCorruptedPlans:
    def test_unbound_filter_variable(self, pattern):
        plan = Plan(pattern, [
            SeedScan("A"),
            FilterStep(((("B", "C"), Side.OUT),)),  # scans B, never bound
            FetchStep(("B", "C"), Side.OUT),
            FilterStep(((("A", "C"), Side.OUT),)),
            FetchStep(("A", "C"), Side.OUT),
        ])
        diags = check_plan(plan)
        assert "plan/unbound-variable" in rules(diags)

    def test_double_covered_condition(self, pattern):
        plan = Plan(pattern, [
            SeedJoin(("A", "C")),
            FilterStep(((("B", "C"), Side.IN),)),
            FetchStep(("B", "C"), Side.IN),
            SelectionStep(("A", "C")),  # already evaluated by the seed
        ])
        diags = check_plan(plan)
        assert "plan/double-covered" in rules(diags)

    def test_side_mismatch_between_filter_and_fetch(self, pattern):
        plan = Plan(pattern, [
            SeedJoin(("A", "C")),
            FilterStep(((("B", "C"), Side.IN),)),   # filter scans C (target)
            FetchStep(("B", "C"), Side.OUT),        # fetch pretends source side
        ])
        diags = check_plan(plan)
        assert "plan/side-mismatch" in rules(diags)

    def test_fetch_without_filter(self, pattern):
        plan = Plan(pattern, [
            SeedJoin(("A", "C")),
            FetchStep(("B", "C"), Side.IN),
        ])
        diags = check_plan(plan)
        assert "plan/fetch-without-filter" in rules(diags)

    def test_uncovered_condition_and_unbound_variable(self, pattern):
        plan = Plan(pattern, [SeedJoin(("A", "C"))])  # never touches B -> C
        diags = check_plan(plan)
        assert "plan/uncovered-condition" in rules(diags)
        assert "plan/never-bound" in rules(diags)

    def test_second_seed_is_not_left_deep(self, pattern):
        plan = Plan(pattern, [
            SeedJoin(("A", "C")),
            SeedJoin(("B", "C")),
        ])
        diags = check_plan(plan)
        assert "plan/not-left-deep" in rules(diags)

    def test_unfetched_filter(self, pattern):
        plan = Plan(pattern, [
            SeedJoin(("A", "C")),
            FilterStep(((("B", "C"), Side.IN),)),  # filtered, never fetched
        ])
        diags = check_plan(plan)
        assert "plan/unfetched-filter" in rules(diags)

    def test_rebinding_fetch(self):
        chain = GraphPattern.build(
            {"A": "A", "C": "C", "D": "D"}, [("A", "C"), ("C", "D")]
        )
        plan = Plan(chain, [
            SeedJoin(("A", "C")),
            FilterStep(((("C", "D"), Side.IN),)),  # would re-bind C
            FetchStep(("C", "D"), Side.IN),
            SelectionStep(("C", "D")),
        ])
        diags = check_plan(plan)
        assert "plan/rebind" in rules(diags)

    def test_foreign_condition(self, pattern):
        plan = Plan(pattern, [
            SeedJoin(("A", "C")),
            FilterStep(((("B", "C"), Side.IN),)),
            FetchStep(("B", "C"), Side.IN),
            SelectionStep(("A", "B")),  # not a pattern condition
        ])
        diags = check_plan(plan)
        assert "plan/foreign-condition" in rules(diags)

    def test_empty_plan(self, pattern):
        diags = check_plan(Plan(pattern, []))
        assert "plan/empty" in rules(diags)


# ----------------------------------------------------------------------
# catalog checks (need the database)
# ----------------------------------------------------------------------
class TestCatalogChecks:
    def test_unknown_label(self, engine):
        ghost = GraphPattern.build({"x": "Z"}, [])
        plan = Plan(ghost, [SeedScan("x")])
        diags = check_plan(plan, db=engine.db)
        assert "plan/unknown-label" in rules(diags)

    def test_empty_wtable_entry_is_warning(self, engine):
        # find a label pair with no centers (reverse direction of the DAG)
        labels = engine.db.labels()
        empty_pair = next(
            (x, y)
            for x in labels
            for y in labels
            if x != y and not engine.db.join_index.centers(x, y)
        )
        x_label, y_label = empty_pair
        ghost = GraphPattern.build({"s": x_label, "t": y_label}, [("s", "t")])
        plan = Plan(ghost, [SeedJoin(("s", "t"))])
        diags = check_plan(plan, db=engine.db)
        warning_rules = {
            d.rule for d in diags if d.severity is Severity.WARNING
        }
        assert "plan/empty-wtable-entry" in warning_rules
        assert not has_errors(diags)


# ----------------------------------------------------------------------
# verify=True execution mode
# ----------------------------------------------------------------------
class TestVerifyMode:
    def test_clean_plan_executes(self, engine):
        result = engine.match("A -> C, B -> C", verify=True)
        baseline = engine.match("A -> C, B -> C")
        assert result.as_set() == baseline.as_set()

    def test_corrupt_plan_raises_before_execution(self, engine, pattern):
        plan = Plan(pattern, [
            SeedJoin(("A", "C")),
            FetchStep(("B", "C"), Side.IN),  # fetch without filter
        ])
        with pytest.raises(PlanVerificationError) as excinfo:
            execute_plan(engine.db, plan, verify=True)
        assert any(
            d.rule == "plan/fetch-without-filter"
            for d in excinfo.value.diagnostics
        )


# ----------------------------------------------------------------------
# Plan.validate() extensions (the runtime gate mirrors the static one)
# ----------------------------------------------------------------------
class TestValidateExtensions:
    def test_validate_rejects_side_mismatch(self, pattern):
        plan = Plan(pattern, [
            SeedJoin(("A", "C")),
            FilterStep(((("B", "C"), Side.IN),)),
            FetchStep(("B", "C"), Side.OUT),
        ])
        with pytest.raises(PatternError, match="side"):
            plan.validate()

    def test_validate_rejects_fetch_without_filter(self, pattern):
        plan = Plan(pattern, [
            SeedJoin(("A", "C")),
            FetchStep(("B", "C"), Side.IN),
        ])
        with pytest.raises(PatternError, match="no preceding filter"):
            plan.validate()

    def test_validate_rejects_rebinding_filter(self):
        triangle = GraphPattern.build(
            {"A": "A", "C": "C", "D": "D"},
            [("A", "C"), ("C", "D"), ("A", "D")],
        )
        plan = Plan(triangle, [
            SeedJoin(("A", "C")),
            FilterStep(((("C", "D"), Side.OUT),)),
            FetchStep(("C", "D"), Side.OUT),
            # filter scans bound A, but its fetch would re-bind bound D
            FilterStep(((("A", "D"), Side.OUT),)),
            FetchStep(("A", "D"), Side.OUT),
        ])
        with pytest.raises(PatternError, match="already-bound"):
            plan.validate()

    def test_validate_rejects_duplicate_filter(self, pattern):
        plan = Plan(pattern, [
            SeedJoin(("A", "C")),
            FilterStep(((("B", "C"), Side.IN),)),
            FilterStep(((("B", "C"), Side.IN),)),
        ])
        with pytest.raises(PatternError, match="duplicate filter"):
            plan.validate()
