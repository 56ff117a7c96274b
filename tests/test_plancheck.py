"""plancheck: the static plan verifier accepts every optimizer-produced
plan, flags every deliberately corrupted one, and agrees with the runtime
gate: ``Plan.validate()`` raises exactly when ``check_plan`` reports an
error, both reading the one binding simulation ``Plan.violations()``."""

from __future__ import annotations

import pytest

from repro.analysis import Severity, check_plan, errors, has_errors
from repro.graph import generators
from repro.query import execute_plan, execute_plan_streaming
from repro.query.algebra import Plan, SeedJoin, SeedScan
from repro.query.engine import GraphEngine
from repro.query.pattern import GraphPattern, PatternError
from repro.workloads.patterns import PatternFactory

from corrupted_plans import CORRUPTED


@pytest.fixture(scope="module")
def engine():
    return GraphEngine(generators.figure1_graph())


def rules(diagnostics):
    return {d.rule for d in diagnostics}


def flags(name):
    """check_plan reports every rule the fixture *name* was built to trip."""
    plan, expected = CORRUPTED[name]
    return set(expected) <= rules(check_plan(plan))


def validate_raises(plan) -> bool:
    try:
        plan.validate()
    except PatternError:
        return True
    return False


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
    @pytest.mark.parametrize("optimizer", ["dp", "dps"])
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
    def test_unbound_filter_variable(self):
        assert flags("unbound_filter_variable")

    def test_double_covered_condition(self):
        assert flags("double_covered_condition")

    def test_side_mismatch_between_filter_and_fetch(self):
        assert flags("side_mismatch")

    def test_fetch_without_filter(self):
        assert flags("fetch_without_filter")

    def test_uncovered_condition_and_unbound_variable(self):
        assert flags("uncovered_condition")

    def test_second_seed_is_not_left_deep(self):
        assert flags("second_seed")

    def test_unfetched_filter(self):
        assert flags("unfetched_filter")

    def test_rebinding_fetch(self):
        assert flags("rebinding_fetch")

    def test_foreign_condition(self):
        assert flags("foreign_condition")

    def test_empty_plan(self):
        assert flags("empty")


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
# the runtime gate names the broken invariant
# ----------------------------------------------------------------------
class TestValidateExtensions:
    def test_validate_rejects_side_mismatch(self):
        with pytest.raises(PatternError, match="side"):
            CORRUPTED["side_mismatch"][0].validate()

    def test_validate_rejects_fetch_without_filter(self):
        with pytest.raises(PatternError, match="no preceding filter"):
            CORRUPTED["fetch_without_filter"][0].validate()

    def test_validate_rejects_rebinding_filter(self):
        with pytest.raises(PatternError, match="already-bound"):
            CORRUPTED["rebinding_filter"][0].validate()

    def test_validate_rejects_duplicate_filter(self):
        with pytest.raises(PatternError, match="duplicate filter"):
            CORRUPTED["duplicate_filter"][0].validate()


# ----------------------------------------------------------------------
# one simulation: the runtime gate, the static checker and the drivers
# ----------------------------------------------------------------------
OPTIMIZERS = ("dp", "dps", "wcoj", "auto")


@pytest.mark.parametrize(
    "case", [*CORRUPTED, *(f"optimizer={name}" for name in OPTIMIZERS)]
)
def test_validate_raises_exactly_when_check_plan_errs(case, engine, request):
    """Every corrupted fixture and every optimizer plan of the Figure-4 +
    cyclic workloads: ``validate()`` raises exactly when ``check_plan``
    reports an error, and every driver refuses a broken plan with the
    fixture's rule before any row."""
    broken = case in CORRUPTED
    if broken:
        plans = [CORRUPTED[case][0]]
    else:
        xmark_engine = request.getfixturevalue("xmark_engine")
        workload = {
            **request.getfixturevalue("figure4_workload"),
            **request.getfixturevalue("cyclic_workload"),
        }
        optimizer = case.removeprefix("optimizer=")
        plans = [
            xmark_engine.plan(pattern, optimizer=optimizer).plan
            for pattern in workload.values()
        ]
    for plan in plans:
        assert validate_raises(plan) == bool(errors(check_plan(plan))) == broken
    if broken:
        rule = CORRUPTED[case][1][0]
        for run in (execute_plan, execute_plan_streaming):
            with pytest.raises(PatternError, match=rule):
                run(engine.db, plans[0])
