"""WCOJ differential and structural tests (multiway R-joins).

The acceptance contract of the worst-case-optimal path: on cyclic
patterns every optimizer — left-deep ``dp``/``dps`` and the
multiway ``wcoj`` — produces the identical row set under both drivers
and live/snapshot databases; per-op counters of the multiway operators match the scalar
sequential oracle everywhere.  Acyclic patterns must keep today's plans,
rows and counters bit for bit (``auto``/``wcoj`` route them to DPS).

Structural coverage: routing on join-graph shape, ``Plan.validate`` on
multiway step sequences, and the plancheck diagnostics for malformed
multiway plans.
"""

import pytest

from repro.query import (
    GraphEngine,
    MultiwaySeed,
    MultiwayStep,
    Side,
    optimize_dps,
    execute_plan,
    execute_plan_streaming,
    optimize_wcoj,
    parse_pattern,
)
from repro.graph.generators import figure1_graph
from repro.query.pattern import PatternError
from repro.analysis import check_plan
from repro.workloads.patterns import PatternFactory

from corrupted_plans import CORRUPTED
from reference_executor import assert_matches_reference, op_counters

OPTIMIZERS = ("dp", "dps", "wcoj")


@pytest.fixture(scope="module")
def engine(xmark_engine):
    return xmark_engine


@pytest.fixture(scope="module")
def snapshot_engine(xmark_snapshot_engine):
    return xmark_snapshot_engine


# ----------------------------------------------------------------------
# routing on join-graph shape
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def figure1_engine():
    return GraphEngine(figure1_graph())


@pytest.mark.parametrize("text, cyclic", [
    ("A -> B -> C", False),                      # path
    ("A -> B, A -> C, B -> D", False),           # tree
    ("A -> B, B -> C, A -> C", True),            # triangle
    ("A -> B, A -> C, B -> D, C -> D", True),    # diamond
    ("x:A -> y:B, y:B -> x:A", True),            # two-cycle
    ("A -> B, A -> C, B -> C, C -> D", True),    # cycle with a tail
])
def test_wcoj_routes_on_cyclicity(figure1_engine, text, cyclic):
    """A multiway plan exactly for cyclic shapes; acyclic ones get DPS's plan."""
    steps = figure1_engine.plan(text, "wcoj").plan.steps
    assert isinstance(steps[0], MultiwaySeed) == cyclic
    if not cyclic:
        assert steps == figure1_engine.plan(text, "dps").plan.steps


# ----------------------------------------------------------------------
# algebra validation + plancheck
# ----------------------------------------------------------------------
def rules(name):
    """The rule ids check_plan reports for the corrupted plan *name*."""
    return {d.rule for d in check_plan(CORRUPTED[name][0])}


class TestMultiwayValidation:
    def test_wcoj_plan_validates_and_passes_plancheck(
        self, engine, cyclic_workload
    ):
        for name, pattern in cyclic_workload.items():
            optimized = engine.plan(pattern, optimizer="wcoj")
            steps = optimized.plan.steps
            assert isinstance(steps[0], MultiwaySeed), name
            assert all(isinstance(s, MultiwayStep) for s in steps[1:]), name
            errors = [
                d for d in check_plan(optimized.plan, db=engine.db)
                if d.severity.value == "error"
            ]
            assert errors == [], name

    def test_mixed_paradigm_rejected_by_validate(self):
        with pytest.raises(PatternError):
            CORRUPTED["mixed_paradigm"][0].validate()

    def test_mixed_paradigm_reported_by_plancheck(self):
        assert "plan/mixed-paradigm" in rules("mixed_paradigm")

    def test_constraint_must_bind_the_step_variable(self):
        with pytest.raises(PatternError):
            MultiwayStep("B", ((("A", "C"), Side.OUT),))
        with pytest.raises(PatternError):
            MultiwaySeed("B", ((("A", "C"), Side.OUT),))

    def test_step_requires_constraints(self):
        with pytest.raises(PatternError):
            MultiwayStep("B", ())

    def test_unbound_scan_rejected(self):
        with pytest.raises(PatternError):
            CORRUPTED["multiway_unbound_scan"][0].validate()

    def test_uncovered_condition_rejected(self):
        with pytest.raises(PatternError):
            CORRUPTED["multiway_uncovered_condition"][0].validate()
        assert "plan/uncovered-condition" in rules("multiway_uncovered_condition")

    def test_rebind_reported(self):
        assert {"plan/rebind", "plan/double-covered"} <= rules("multiway_rebind")

    def test_describe_renders_multiway_steps(self, engine, cyclic_workload):
        pattern = cyclic_workload["triangle"]
        text = engine.explain(pattern, optimizer="wcoj")
        assert "MSEED" in text and "MJOIN" in text


# ----------------------------------------------------------------------
# optimizer routing
# ----------------------------------------------------------------------
class TestRouting:
    def test_acyclic_patterns_keep_identical_dps_plans(self, engine):
        factory = PatternFactory(engine.db.catalog, seed=11)
        model_patterns = {}
        model_patterns.update(factory.figure4_paths())
        model_patterns.update(factory.figure4_trees())
        from repro.query import CostModel

        for name, pattern in model_patterns.items():
            model = CostModel(engine.db.catalog, pattern, engine.cost_params)
            baseline = optimize_dps(pattern, model)
            routed = optimize_wcoj(pattern, model)
            assert routed.plan.steps == baseline.plan.steps, name
            assert routed.estimated_cost == baseline.estimated_cost, name
            auto = engine.plan(pattern, optimizer="auto")
            assert auto.plan.steps == baseline.plan.steps, name

    def test_cyclic_patterns_get_multiway_plans(self, engine, cyclic_workload):
        for name, pattern in cyclic_workload.items():
            plan = engine.plan(pattern, optimizer="wcoj").plan
            assert isinstance(plan.steps[0], MultiwaySeed), name
            assert len(plan.steps) == len(pattern.variables), name

    def test_acyclic_rows_and_counters_unchanged(self, engine):
        factory = PatternFactory(engine.db.catalog, seed=11)
        pattern = factory.figure4_paths()["P1"]
        via_dps = engine.match(pattern, optimizer="dps")
        via_auto = engine.match(pattern, optimizer="auto")
        assert sorted(via_auto.rows) == sorted(via_dps.rows)
        assert op_counters(via_auto.metrics) == op_counters(via_dps.metrics)


# ----------------------------------------------------------------------
# the differential suite: cyclic x optimizers x drivers x substrates
# ----------------------------------------------------------------------
class TestCyclicDifferential:
    def test_all_optimizers_agree_under_both_drivers(
        self, engine, cyclic_workload
    ):
        for name, pattern in cyclic_workload.items():
            oracle = None
            for optimizer in OPTIMIZERS:
                optimized = engine.plan(pattern, optimizer=optimizer)
                materialized = execute_plan(engine.db, optimized.plan)
                streamed = set(execute_plan_streaming(engine.db, optimized.plan))
                assert streamed == materialized.as_set(), (name, optimizer)
                if oracle is None:
                    oracle = materialized.as_set()
                else:
                    assert materialized.as_set() == oracle, (name, optimizer)

    def test_batched_counters_match_scalar_oracle(
        self, engine, reference_index, cyclic_workload
    ):
        """The multiway operators vs the frozenset reference executor."""
        for name, pattern in cyclic_workload.items():
            result = engine.match(pattern, optimizer="wcoj")
            assert_matches_reference(
                reference_index, result.plan, result.rows, result.metrics, name
            )

    def test_snapshot_native_counters_match_live(
        self, engine, snapshot_engine, cyclic_workload
    ):
        for name, pattern in cyclic_workload.items():
            live = engine.match(pattern, optimizer="wcoj")
            native = snapshot_engine.match(pattern, optimizer="wcoj")
            assert sorted(native.rows) == sorted(live.rows), name
            assert op_counters(native.metrics) == op_counters(live.metrics), name

    def test_wcoj_verifies_and_streams(self, engine, cyclic_workload):
        for name, pattern in cyclic_workload.items():
            full = engine.match(pattern, optimizer="wcoj")
            streamed = sorted(engine.match_iter(pattern, optimizer="wcoj"))
            assert streamed == sorted(full.rows), name

    def test_metrics_invariants_hold(self, engine, cyclic_workload):
        for name, pattern in cyclic_workload.items():
            result = engine.match(pattern, optimizer="wcoj")
            for op in result.metrics.operators:
                assert op.rows_out >= 0 and op.rows_in >= 0, (name, op)
            seed = result.metrics.operators[0]
            assert seed.rows_out <= seed.rows_in, (name, seed)
