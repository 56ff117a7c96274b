"""Focused tests on DPS's move machinery (paper Section 4.2 semantics)."""

import pytest

from repro.db.database import GraphDatabase
from repro.graph.generators import anti_correlated_star, figure1_graph
from repro.query.algebra import (
    FetchStep,
    FilterStep,
    SeedJoin,
    SeedScan,
    SelectionStep,
    Side,
)
from repro.query.costmodel import CostModel, CostParams
from repro.query import execute_plan
from repro.query.optimizer_dps import (
    _applicable_filters,
    _filter_candidates,
    optimize_dps,
)
from repro.query.parser import parse_pattern


@pytest.fixture(scope="module")
def db():
    return GraphDatabase(figure1_graph())


def model_for(db, pattern):
    return CostModel(db.catalog, pattern, CostParams())


def filters(pattern, var, side, done=(), filtered=(), bound=()):
    """The Filter-move batch on (var, side) as (condition, Side) keys,
    computed the way the search does: the pattern's candidate table
    masked with the busy conditions and the bound variables."""
    conditions, variables = pattern.conditions, pattern.variables
    busy = sum(1 << conditions.index(c) for c in (*done, *filtered))
    bound_mask = sum(1 << variables.index(v) for v in bound)
    candidates = _filter_candidates(pattern)
    which = 0 if side is Side.OUT else 1
    mask = _applicable_filters(candidates, busy, bound_mask)[which]
    mask &= candidates[which][variables.index(var)]
    return {(c, side) for i, c in enumerate(conditions) if mask >> i & 1}


class TestApplicableFilters:
    def test_groups_same_source_conditions(self):
        pattern = parse_pattern("C -> D, C -> E, B -> C")
        keys = filters(pattern, "C", Side.OUT, bound={"C"})
        assert keys == {(("C", "D"), Side.OUT), (("C", "E"), Side.OUT)}
        assert _filter_candidates(pattern)[0][pattern.variables.index("C")] == 0b011

    def test_in_side_groups_same_target(self):
        pattern = parse_pattern("A -> C, B -> C, C -> D")
        keys = filters(pattern, "C", Side.IN, bound={"C"})
        assert keys == {(("A", "C"), Side.IN), (("B", "C"), Side.IN)}
        assert _filter_candidates(pattern)[1][pattern.variables.index("C")] == 0b011

    def test_skips_done_and_filtered(self):
        """A condition already evaluated, or already filtered — on this
        side or from its other endpoint — is not filtered again."""
        pattern = parse_pattern("C -> D, C -> E")
        keys = filters(
            pattern, "C", Side.OUT,
            done=[("C", "D")], filtered=[("C", "E")], bound={"C", "D"},
        )
        assert keys == set()
        # C -> E was filtered from E's side (Side.IN): still busy for C
        assert filters(pattern, "C", Side.OUT, filtered=[("C", "E")], bound={"C"}) == {
            (("C", "D"), Side.OUT)
        }

    def test_skips_conditions_to_bound_vars(self):
        """Both-endpoints-bound conditions go through Selection-moves."""
        pattern = parse_pattern("C -> D, C -> E")
        keys = filters(pattern, "C", Side.OUT, bound={"C", "D"})
        assert keys == {(("C", "E"), Side.OUT)}
        # and an unbound scanned endpoint offers nothing at all
        assert filters(pattern, "D", Side.IN, bound={"C"}) == set()


class TestDPSPlans:
    def test_every_fetch_has_a_matching_filter(self, db):
        """HPSJ+ invariant: Fetch is always the second half of a Filter."""
        for text in (
            "A -> C, B -> C, C -> D, D -> E",
            "B -> C, C -> D, C -> E",
            "A -> C, A -> D, C -> D",
        ):
            pattern = parse_pattern(text)
            plan = optimize_dps(pattern, model_for(db, pattern)).plan
            pending = set()
            for step in plan.steps:
                if isinstance(step, FilterStep):
                    pending.update(step.keys)
                elif isinstance(step, FetchStep):
                    assert (step.condition, step.side) in pending
                    pending.discard((step.condition, step.side))
            assert not pending

    def test_seed_filter_path_used_when_profitable(self):
        """On the anti-correlated star the optimal opening is Figure 3's
        S_1: SeedScan + one shared multi-condition Filter."""
        graph = anti_correlated_star(
            n_hub=800, fanout=8, overlap=0.02,
            branch_labels=("B", "C"), pool_per_branch=100, seed=2,
        )
        db = GraphDatabase(graph)
        pattern = parse_pattern("a:A -> b:B, a -> c:C")
        plan = optimize_dps(pattern, model_for(db, pattern)).plan
        assert isinstance(plan.steps[0], SeedScan)
        assert isinstance(plan.steps[1], FilterStep)
        assert len(plan.steps[1].keys) == 2

    def test_hpsj_seed_used_when_cheap(self, db):
        """Tiny base joins make the R-join-move opening optimal."""
        pattern = parse_pattern("A -> C")
        plan = optimize_dps(pattern, model_for(db, pattern)).plan
        assert isinstance(plan.steps[0], (SeedJoin, SeedScan))

    def test_selection_handles_closing_edges(self, db):
        pattern = parse_pattern("A -> C, A -> D, C -> D")
        plan = optimize_dps(pattern, model_for(db, pattern)).plan
        kinds = [type(s).__name__ for s in plan.steps]
        # three conditions, at most two fetches: one edge must close as a
        # selection or be a seeded join
        result = execute_plan(db, plan)
        from repro.baselines.naive import NaiveMatcher

        assert result.as_set() == NaiveMatcher(db.graph).match_set(pattern)

    def test_status_space_handles_seven_edges(self, db):
        """A dense 5-variable pattern (7 edges) must optimize quickly."""
        pattern = parse_pattern(
            "A -> B, A -> C, B -> D, C -> D, A -> D, B -> E, D -> E"
        )
        optimized = optimize_dps(pattern, model_for(db, pattern))
        optimized.plan.validate()
        assert optimized.estimated_cost >= 0
