"""Tests for plan algebra validation and the DP / DPS / WCOJ optimizers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.naive import NaiveMatcher
from repro.db.database import GraphDatabase
from repro.graph.generators import figure1_graph, random_digraph
from repro.query.algebra import (
    FetchStep,
    FilterStep,
    Plan,
    SeedJoin,
    SeedScan,
    SelectionStep,
    Side,
)
from repro.query.costmodel import CostModel, CostParams
from repro.query import execute_plan
from repro.query.optimizer_dp import optimize_dp
from repro.query.optimizer_dps import optimize_dps
from repro.query.optimizer_wcoj import optimize_wcoj
from repro.query.parser import parse_pattern
from repro.query.pattern import GraphPattern, PatternError


@pytest.fixture(scope="module")
def db():
    return GraphDatabase(figure1_graph())


def model_for(db, pattern):
    return CostModel(db.catalog, pattern, CostParams())


PAPER_PATTERN = "A -> C, B -> C, C -> D, D -> E"


class TestPlanValidation:
    def test_fetch_without_filter_rejected(self):
        pattern = parse_pattern("A -> C, C -> D")
        plan = Plan(pattern, [SeedJoin(("A", "C")), FetchStep(("C", "D"), Side.OUT)])
        with pytest.raises(PatternError):
            plan.validate()

    def test_unconsumed_filter_rejected(self):
        pattern = parse_pattern("A -> C, C -> D")
        plan = Plan(
            pattern,
            [
                SeedJoin(("A", "C")),
                FilterStep(((("C", "D"), Side.OUT),)),
                SelectionStep(("C", "D")),
            ],
        )
        with pytest.raises(PatternError):
            plan.validate()

    def test_missing_condition_rejected(self):
        pattern = parse_pattern("A -> C, C -> D")
        plan = Plan(pattern, [SeedJoin(("A", "C"))])
        with pytest.raises(PatternError):
            plan.validate()

    def test_selection_on_unbound_var_rejected(self):
        pattern = parse_pattern("A -> C, C -> D")
        plan = Plan(pattern, [SeedJoin(("A", "C")), SelectionStep(("C", "D"))])
        with pytest.raises(PatternError):
            plan.validate()

    def test_seed_must_come_first(self):
        pattern = parse_pattern("A -> C")
        plan = Plan(pattern, [SelectionStep(("A", "C"))])
        with pytest.raises(PatternError):
            plan.validate()

    def test_filter_step_requires_single_scanned_var(self):
        with pytest.raises(PatternError):
            FilterStep(((("A", "C"), Side.OUT), (("C", "D"), Side.OUT)))

    def test_describe_covers_all_step_kinds(self):
        pattern = parse_pattern("A -> C, C -> D")
        plan = Plan(
            pattern,
            [
                SeedJoin(("A", "C")),
                FilterStep(((("C", "D"), Side.OUT),)),
                FetchStep(("C", "D"), Side.OUT),
            ],
        )
        text = plan.describe()
        assert "HPSJ" in text and "FILTER" in text and "FETCH" in text


class TestOptimizers:
    @pytest.mark.parametrize("optimize", [optimize_dp, optimize_dps, optimize_wcoj])
    def test_plan_is_valid_and_costed(self, db, optimize):
        pattern = parse_pattern(PAPER_PATTERN)
        optimized = optimize(pattern, model_for(db, pattern))
        optimized.plan.validate()
        assert optimized.estimated_cost > 0
        assert optimized.estimated_rows >= 0

    @pytest.mark.parametrize("optimize", [optimize_dp, optimize_dps, optimize_wcoj])
    def test_all_optimizers_same_results(self, db, optimize):
        pattern = parse_pattern(PAPER_PATTERN)
        naive = NaiveMatcher(db.graph).match_set(pattern)
        optimized = optimize(pattern, model_for(db, pattern))
        result = execute_plan(db, optimized.plan)
        assert result.as_set() == naive

    def test_dps_cost_never_worse_than_dp(self, db):
        """DPS's move space strictly contains DP's plans, so its chosen
        estimate can't exceed DP's (both use the same cost model)."""
        for text in (
            PAPER_PATTERN,
            "A -> C, C -> D",
            "B -> C, C -> D, C -> E",
            "A -> B, A -> C, B -> D, C -> D",
        ):
            pattern = parse_pattern(text)
            model = model_for(db, pattern)
            dp = optimize_dp(pattern, model)
            dps = optimize_dps(pattern, model)
            assert dps.estimated_cost <= dp.estimated_cost * 1.0001

    def test_dps_uses_semijoins_on_paper_pattern(self, db):
        pattern = parse_pattern(PAPER_PATTERN)
        optimized = optimize_dps(pattern, model_for(db, pattern))
        kinds = {type(s).__name__ for s in optimized.plan.steps}
        assert "FilterStep" in kinds

    def test_single_variable_pattern(self, db):
        pattern = parse_pattern("x:B")
        for optimize in (optimize_dp, optimize_dps, optimize_wcoj):
            optimized = optimize(pattern, model_for(db, pattern))
            result = execute_plan(db, optimized.plan)
            assert {r[0] for r in result.rows} == set(db.graph.extent("B"))

    def test_single_condition_pattern(self, db):
        pattern = parse_pattern("B -> E")
        naive = NaiveMatcher(db.graph).match_set(pattern)
        for optimize in (optimize_dp, optimize_dps):
            result = execute_plan(db, optimize(pattern, model_for(db, pattern)).plan)
            assert result.as_set() == naive

    def test_cyclic_condition_pattern(self, db):
        """A pattern whose condition graph has a diamond + chord."""
        pattern = parse_pattern("A -> C, A -> D, C -> D, D -> E, C -> E")
        naive = NaiveMatcher(db.graph).match_set(pattern)
        for optimize in (optimize_dp, optimize_dps, optimize_wcoj):
            result = execute_plan(db, optimize(pattern, model_for(db, pattern)).plan)
            assert result.as_set() == naive


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=20),
    density=st.floats(min_value=0.05, max_value=0.3),
    seed=st.integers(min_value=0, max_value=10_000),
    shape=st.sampled_from(
        [
            [("A", "B"), ("B", "C")],
            [("A", "B"), ("A", "C")],
            [("A", "B"), ("B", "C"), ("A", "C")],
            [("A", "B"), ("B", "C"), ("C", "D")],
            [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")],
        ]
    ),
)
def test_property_optimized_plans_match_naive(n, density, seed, shape):
    """On random graphs, every optimizer's plan computes the true match set."""
    from hypothesis import assume

    g = random_digraph(n, density, seed=seed, alphabet="ABCD")
    labels = {v for edge in shape for v in edge}
    assume(all(g.extent(label) for label in labels))
    db = GraphDatabase(g)
    pattern = GraphPattern.build({v: v for v in sorted(labels)}, shape)
    naive = NaiveMatcher(g).match_set(pattern)
    model = CostModel(db.catalog, pattern, CostParams())
    for optimize in (optimize_dp, optimize_dps, optimize_wcoj):
        result = execute_plan(db, optimize(pattern, model).plan)
        assert result.as_set() == naive


class TestMechanism:
    """DPS's structural edge: seed-scan + shared semijoins (paper §4.2)."""

    @pytest.fixture(scope="class")
    def star_engine(self):
        from repro import GraphEngine
        from repro.graph.generators import anti_correlated_star

        graph = anti_correlated_star(
            n_hub=1500, fanout=10, overlap=0.02,
            branch_labels=("B", "C"), pool_per_branch=150, seed=5,
        )
        return GraphEngine(graph)

    def test_dps_seeds_with_filtered_scan(self, star_engine):
        """On anti-correlated data DPS must choose Figure 3's S1-style
        opening: a base-table scan reduced by a shared R-semijoin."""
        optimized = star_engine.plan("a:A -> b:B, a -> c:C", optimizer="dps")
        first, second = optimized.plan.steps[:2]
        assert isinstance(first, SeedScan)
        assert isinstance(second, FilterStep)
        assert len(second.keys) == 2  # both conditions share one scan

    def test_dp_cannot_and_pays_for_it(self, star_engine):
        """DP's forced HPSJ seed materializes the fat intermediate, and
        once that outgrows the buffer it pays for it in physical I/O
        (the paper's claim; logical reads are per page and favour
        whoever probes less, so they are not the measure here)."""
        from repro import GraphEngine
        from repro.workloads.runner import accounting_run

        engine = GraphEngine(
            star_engine.db.graph, labeling=star_engine.db.labeling,
            buffer_bytes=1 << 17,
        )
        pattern = "a:A -> b:B, a -> c:C"
        dps = accounting_run(engine, pattern, "dps")
        dp = accounting_run(engine, pattern, "dp")
        assert dps.as_set() == dp.as_set()
        assert dp.metrics.peak_temporal_rows > 2 * dps.metrics.peak_temporal_rows
        assert dp.metrics.io.total_io() > dps.metrics.io.total_io()
