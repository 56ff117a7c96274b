"""WCOJ differential and structural tests (multiway R-joins).

The acceptance contract of the worst-case-optimal path: on cyclic
patterns every optimizer — left-deep ``dp``/``dps`` and the
multiway ``wcoj`` — produces the identical row set under both drivers
and live/snapshot databases; per-op counters of the multiway operators match the scalar
sequential oracle everywhere.  ``wcoj`` plans acyclic patterns too:
there its multiway plan returns ``dps``'s rows and the naive matcher's,
on both tiers.

Structural coverage: ``auto`` is ``wcoj`` on every shape and at every
limit, ``Plan.validate`` on multiway step sequences, and the plancheck
diagnostics for malformed multiway plans.
"""

import hashlib
import random

import pytest

from repro import NaiveMatcher
from repro.query import (
    GraphEngine,
    MultiwaySeed,
    MultiwayStep,
    Side,
    execute_plan,
    execute_plan_streaming,
    optimize_wcoj,
    parse_pattern,
)
from repro.graph.generators import figure1_graph
from repro.query.pattern import GraphPattern, PatternError
from repro.analysis import check_plan, has_errors
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
    """``wcoj`` plans every shape multiway, and ``auto`` runs that very
    plan at every limit: the route no longer depends on cyclicity."""
    assert parse_pattern(text).is_cyclic() is cyclic
    optimized = figure1_engine.plan(text, "wcoj")
    steps = optimized.plan.steps
    assert isinstance(steps[0], MultiwaySeed)
    assert all(isinstance(step, MultiwayStep) for step in steps[1:])
    for limit in (0, 1, 20, 100, 101, None):
        stream = figure1_engine.match_iter(text, "auto", limit=limit)
        assert stream.plan is optimized.plan, limit


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
def acyclic_pool(catalog):
    """Every acyclic Figure-4 text, 30 seeded random trees over 2-6
    slots, a single-variable pattern and a label pair with no W entry
    (join size 0), by name."""
    factory = PatternFactory(catalog, seed=11)
    figure4 = {**factory.figure4_paths(), **factory.figure4_trees()}
    for size in (4, 5):  # both are named Q1-Q5
        for name, pattern in factory.figure4_queries(size).items():
            figure4[f"{name}/{size}"] = pattern
    patterns = {n: p for n, p in figure4.items() if not p.is_cyclic()}
    rng = random.Random(20261019)
    factory = PatternFactory(catalog, seed=29, attempts=60)
    for index in range(30):
        edges = []
        for node in range(1, rng.randint(2, 6)):
            other = rng.randrange(node)
            edges.append((other, node) if rng.random() < 0.7 else (node, other))
        patterns[f"r{index:02d}"] = factory.instantiate(tuple(edges))

    labels = factory.labels
    patterns["single"] = GraphPattern.build({"x": labels[0]}, [])
    x, y = next(
        (x, y) for x in labels for y in labels
        if x != y and catalog.join_size(x, y) == 0 and factory.predecessors[x]
    )
    patterns["no-w"] = GraphPattern.build(
        {"p": factory.predecessors[x][0], "x": x, "y": y},
        [("p", "x"), ("x", "y")],
    )
    assert not any(p.is_cyclic() for p in patterns.values())
    return patterns


class TestRouting:
    @pytest.fixture(scope="class")
    def acyclic(self, engine):
        return acyclic_pool(engine.db.catalog)

    def test_acyclic_patterns_get_multiway_plans(
        self, engine, snapshot_engine, acyclic
    ):
        """On trees ``wcoj`` builds an all-multiway plan that passes
        check_plan and returns dps's rows and the naive matcher's, on
        both tiers."""
        naive = NaiveMatcher(engine.db.graph)
        for name, pattern in acyclic.items():
            expected = naive.match_set(pattern)
            for tier, routed in (("live", engine), ("snapshot", snapshot_engine)):
                plan = routed.plan(pattern, optimizer="wcoj").plan
                assert isinstance(plan.steps[0], MultiwaySeed), name
                assert all(
                    isinstance(s, MultiwayStep) for s in plan.steps[1:]
                ), name
                assert len(plan.steps) == len(pattern.variables), name
                # the catalog pass objects to an empty W entry, the point
                # of "no-w"
                db = None if name == "no-w" else routed.db
                assert not has_errors(check_plan(plan, db)), (name, tier)
                rows = routed.match(pattern, optimizer="wcoj").as_set()
                dps = routed.match(pattern, optimizer="dps").as_set()
                assert rows == dps == expected, (name, tier)

    def test_cyclic_patterns_get_multiway_plans(self, engine, cyclic_workload):
        for name, pattern in cyclic_workload.items():
            plan = engine.plan(pattern, optimizer="wcoj").plan
            assert isinstance(plan.steps[0], MultiwaySeed), name
            assert len(plan.steps) == len(pattern.variables), name

    #: sha256 of explicit ``dp``'s rows, in order, and per-operator
    #: counters on :func:`acyclic_pool` at LIMIT 1 / 20 / 100 and in
    #: full, the same on both tiers: DP's search and plans do not move
    #: with ``auto``'s route
    DP_DIGEST = "725920b56d1423f685b22046f3cfb420946af7f48aa7b394fe091ef054b30e48"

    def test_acyclic_rows_and_counters_unchanged(
        self, engine, snapshot_engine, acyclic
    ):
        """Explicit ``dp`` keeps its rows, their order and its counters,
        on both tiers, now that ``auto`` never names it."""
        for tier, shared in (("live", engine), ("snapshot", snapshot_engine)):
            fresh = GraphEngine.from_database(shared.db)
            digest = hashlib.sha256()
            for name, pattern in acyclic.items():
                for limit in (1, 20, 100, None):
                    result = fresh.match(pattern, optimizer="dp", limit=limit)
                    digest.update(repr((
                        name, limit, result.rows, op_counters(result.metrics),
                    )).encode())
            assert digest.hexdigest() == self.DP_DIGEST, tier


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
