"""Tests for the Section 4 cost model (Table 1 parameters, Eqs. 10-12)."""

import pytest

from repro.db.database import GraphDatabase
from repro.graph.generators import figure1_graph
from repro.query.costmodel import CostModel, CostParams
from repro.query.parser import parse_pattern


@pytest.fixture(scope="module")
def db():
    return GraphDatabase(figure1_graph())


@pytest.fixture(scope="module")
def model(db):
    pattern = parse_pattern("A -> C, B -> C, C -> D, D -> E, B -> E")
    return CostModel(db.catalog, pattern, CostParams())


class TestSizes:
    def test_base_join_size_equals_catalog(self, db, model):
        assert model.base_join_size(("B", "C")) == db.catalog.join_size("B", "C")

    def test_eq10_selectivity_in_unit_range(self, model):
        s = model.selection_selectivity(("B", "E"))
        assert 0.0 <= s <= 1.0

    def test_eq11_eq12_fanouts_consistent(self, db, model):
        """|T_R| * fanout must equal Eq. 11/12's |T_RS| estimate."""
        join = db.catalog.join_size("C", "D")
        fwd = model.join_fanout(("C", "D"), temporal_holds_source=True)
        rev = model.join_fanout(("C", "D"), temporal_holds_source=False)
        assert fwd == pytest.approx(join / db.catalog.extent_size("C"))
        assert rev == pytest.approx(join / db.catalog.extent_size("D"))

    def test_filter_survival_at_most_one(self, model):
        for condition in model.pattern.conditions:
            for direction in (True, False):
                assert 0.0 <= model.filter_survival(condition, direction) <= 1.0

    def test_zero_extent_handled(self, db):
        # a condition onto an empty label: every ratio is 0, none divides
        assert db.catalog.reduction_factor("Z", "C") == 0.0
        assert db.catalog.join_selectivity("Z", "C") == 0.0
        for text in ("Z -> C", "C -> Z"):
            model = CostModel(db.catalog, parse_pattern(text), CostParams())
            assert set(model.stats[model.pattern.conditions[0]]) == {0.0}

    def test_table_equals_the_catalog_ratios(self, db, model):
        """The per-condition table is the catalog's own arithmetic, done
        once: equal as floats, not approximately."""
        catalog = db.catalog
        for condition in model.pattern.conditions:
            x, y = model.pattern.condition_labels(condition)
            join, y_size = catalog.join_size(x, y), catalog.extent_size(y)
            assert model.base_join_size(condition) == float(join)
            assert model.selection_selectivity(condition) == catalog.join_selectivity(x, y)
            assert model.join_fanout(condition, True) == catalog.reduction_factor(x, y)
            assert model.join_fanout(condition, False) == join / y_size
            assert model.filter_survival(condition, True) == catalog.semijoin_survival(x, y)
            assert model.filter_survival(condition, False) == min(1.0, join / y_size)
            for is_source in (True, False):
                assert model.projection_selectivity(
                    condition, is_source
                ) == model.filter_survival(condition, is_source)


class TestCosts:
    def test_costs_monotone_in_rows(self, model):
        assert model.scan_cost(10_000) > model.scan_cost(10)
        assert model.filter_cost(1000, 1, False) > model.filter_cost(10, 1, False)
        assert model.fetch_cost(100, 1000) > model.fetch_cost(100, 10)
        assert model.selection_cost(1000, False, False) > model.selection_cost(
            10, False, False
        )

    def test_cached_codes_are_cheaper(self, model):
        assert model.filter_cost(100, 1, code_cached=True) < model.filter_cost(
            100, 1, code_cached=False
        )
        assert model.selection_cost(100, True, True) < model.selection_cost(
            100, False, False
        )

    def test_shared_filter_cheaper_than_two_scans(self, model):
        """One shared 2-condition scan < two independent 1-condition scans."""
        shared = model.filter_cost(1000, 2, code_cached=False)
        separate = 2 * model.filter_cost(1000, 1, code_cached=False)
        assert shared < separate

    def test_all_costs_nonnegative(self, model):
        assert model.hpsj_cost(("B", "C")) > 0
        assert model.materialize_cost(0) >= 0
        assert model.scan_cost(0) > 0  # at least one page
