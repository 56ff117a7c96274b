"""Cost model for R-join / R-semijoin order selection (paper Section 4).

Table 1 of the paper defines four I/O cost parameters:

=========  ==================================================================
``IO_B``   search cost over a B+-tree (one root-to-leaf descent)
``IO_D``   disk access cost for one page scan of a file
``IO_F``   avg cost of using the R-join index to find an X-labeled node of
           ``π_X(T_X ⋈ T_Y)``  (the paper's ``IO^F_{X->Y}``)
``IO_T``   avg cost for a Y-labeled node of ``π_Y(T_X ⋈ T_Y)``
=========  ==================================================================

and three size estimates:

* Eq. (10) — self R-join (selection):
  ``|T_RS| = |T_R| * |T_X ⋈ T_Y| / (|T_X| * |T_Y|)``
* Eq. (11) — R-join, temporal holds X:
  ``|T_RS| = |T_R| * |T_X ⋈ T_Y| / |T_X|``
* Eq. (12) — temporal holds Y:  divide by ``|T_Y|``

with costs

* selection:  ``2 * (IO_B + IO_X) * |T_R|``  (two code retrievals/row)
* R-join:     ``(IO_B + IO_D) * |T_R| + IO_rji * |T_RS|``
  (Filter = per-row getCenters; Fetch = per-output-node index access).

The model is deliberately coarse — the paper notes "our approaches is not
independent [sic: dependent] on a cost model" — what matters is consistent
relative ordering, which these formulas give both DP and DPS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Sequence

from ..db.catalog import Catalog
from .algebra import FilterKey, Side
from .pattern import Condition, GraphPattern


@dataclass(frozen=True)
class CostParams:
    """Table 1's I/O parameters, in abstract page-access units."""

    io_btree: float = 3.0       # IO_B: one B+-tree descent (~tree height)
    io_page: float = 1.0        # IO_D: one page access
    io_index_node: float = 0.05 # IO_rji: per node pulled from a subcluster
    rows_per_page: float = 100.0  # temporal-table packing, for scan costs
    cached_code_discount: float = 0.25
    """Relative cost of a code retrieval when the variable's codes were
    already cached by an earlier filter on the same column (B_in/B_out in
    Section 4.2) — sharing per Remark 3.1 makes repeats much cheaper."""


class ConditionStats(NamedTuple):
    """One condition's catalog-derived estimates (Section 4's Eq. 10-12)."""

    join_size: float      # |T_X ⋈ T_Y| between the base tables
    selectivity: float    # Eq. (10): join_size / (|T_X| * |T_Y|)
    fanout_out: float     # Eq. (11): rows per temporal row holding X
    fanout_in: float      # Eq. (12): rows per temporal row holding Y
    survival_out: float   # share of X rows surviving ⋉_{X->Y}
    survival_in: float    # share of Y rows surviving the mirror semijoin


class CostModel:
    """Size and cost estimation bound to one database's catalog.

    The catalog is read once, here: one extent size per variable and one
    ``pair_stats`` per condition, folded into :attr:`stats` with the
    arithmetic of :class:`~repro.db.catalog.Catalog`'s derived ratios.
    Every size method below is a table read, and the optimizers index
    :attr:`stats` directly in their inner loops.
    """

    def __init__(self, catalog: Catalog, pattern: GraphPattern,
                 params: CostParams | None = None) -> None:
        self.catalog = catalog
        self.pattern = pattern
        self.params = params or CostParams()
        self.extents: Dict[str, int] = {
            var: catalog.extent_size(pattern.label(var))
            for var in pattern.variables
        }
        self.stats: Dict[Condition, ConditionStats] = {}
        for condition in pattern.conditions:
            x_label, y_label = pattern.condition_labels(condition)
            join = catalog.pair_stats(x_label, y_label).pair_estimate
            x_size, y_size = self.extents[condition[0]], self.extents[condition[1]]
            pairs = x_size * y_size
            fanout_out = join / x_size if x_size else 0.0
            fanout_in = join / y_size if y_size else 0.0
            self.stats[condition] = ConditionStats(
                float(join), join / pairs if pairs else 0.0, fanout_out, fanout_in,
                min(1.0, fanout_out), min(1.0, fanout_in),
            )

    # ------------------------------------------------------------------
    # sizes
    # ------------------------------------------------------------------
    def extent_size(self, var: str) -> int:
        return self.extents[var]

    def base_join_size(self, condition: Condition) -> float:
        """``|T_X ⋈_{X->Y} T_Y|`` between base tables (HPSJ output)."""
        return self.stats[condition].join_size

    def selection_selectivity(self, condition: Condition) -> float:
        """Eq. (10): fraction of rows surviving a self R-join."""
        return self.stats[condition].selectivity

    def join_fanout(self, condition: Condition, temporal_holds_source: bool) -> float:
        """Eq. (11)/(12): output rows per temporal row for a full R-join."""
        stats = self.stats[condition]
        return stats.fanout_out if temporal_holds_source else stats.fanout_in

    def filter_survival(self, condition: Condition, temporal_holds_source: bool) -> float:
        """Fraction of temporal rows surviving the condition's R-semijoin."""
        stats = self.stats[condition]
        return stats.survival_out if temporal_holds_source else stats.survival_in

    # ------------------------------------------------------------------
    # costs
    # ------------------------------------------------------------------
    def scan_cost(self, rows: float) -> float:
        """IO_D per page of a temporal-table scan."""
        pages = max(1.0, rows / self.params.rows_per_page)
        return self.params.io_page * pages

    def hpsj_cost(self, condition: Condition) -> float:
        """Algorithm 1: one W-table probe + per-output index node costs."""
        output = self.base_join_size(condition)
        return self.params.io_btree + self.params.io_index_node * max(output, 1.0)

    def filter_cost(self, rows: float, conditions: int, code_cached: bool) -> float:
        """Filter: scan + per-row getCenters; shared scan costs one pass.

        ``conditions`` semijoins on the same scanned column share the code
        retrieval (Remark 3.1), so only the W-table intersections multiply.
        """
        code = self.params.io_btree + self.params.io_page
        if code_cached:
            code *= self.params.cached_code_discount
        probe = 0.25 * self.params.io_btree * conditions  # W-table lookups amortize
        return self.scan_cost(rows) + rows * (code + probe)

    def fetch_cost(self, rows_in: float, rows_out: float) -> float:
        """Fetch: scan the filtered table + IO_rji per retrieved node."""
        return self.scan_cost(rows_in) + self.params.io_index_node * max(rows_out, 1.0) \
            + self.params.io_btree * max(rows_in, 1.0) * 0.1

    def selection_cost(self, rows: float, src_cached: bool, dst_cached: bool) -> float:
        """Self R-join: 2 * (IO_B + IO_X) * |T_R|, discounted per cached side."""
        code = self.params.io_btree + self.params.io_page
        src_code = code * (self.params.cached_code_discount if src_cached else 1.0)
        dst_code = code * (self.params.cached_code_discount if dst_cached else 1.0)
        return self.scan_cost(rows) + rows * (src_code + dst_code)

    def materialize_cost(self, rows: float) -> float:
        """Writing a temporal table back out, page by page."""
        return self.scan_cost(rows)

    # ------------------------------------------------------------------
    # multiway (generic-join) estimates — the WCOJ plan family; its
    # search inlines the two step rules, and tests hold it to them
    # ------------------------------------------------------------------
    def projection_selectivity(self, condition: Condition, var_is_source: bool) -> float:
        """Fraction of a variable's extent inside one condition's
        W-projection (the multiway seed's per-condition domain) — the
        same ratio as the semijoin survival on that side."""
        return self.filter_survival(condition, var_is_source)

    def multiway_domain_size(
        self, var: str, constraints: Sequence[FilterKey]
    ) -> float:
        """Estimated seed-domain size: extent × per-condition projection
        selectivities, treated as independent (the usual AGM-style
        independence coarseness — consistent relative ordering is what
        the enumerator needs, not absolute accuracy)."""
        size = float(self.extent_size(var))
        for condition, side in constraints:
            # the seed variable is the condition's *fetched* endpoint:
            # Side.IN keys it as the source, Side.OUT as the target
            size *= self.projection_selectivity(condition, side is Side.IN)
        return size

    def multiway_seed_cost(
        self, var: str, constraints: Sequence[FilterKey], domain_rows: float
    ) -> float:
        """MultiwaySeed: per condition one W-sweep expanding every
        center's subcluster (IO_B to land on W, IO_rji per projected
        node), then materialize the intersected domain."""
        cost = 0.0
        for condition, _side in constraints:
            cost += self.params.io_btree
            cost += self.params.io_index_node * max(self.base_join_size(condition), 1.0)
        if not constraints:
            cost = self.scan_cost(float(self.extent_size(var)))
        return cost + self.materialize_cost(domain_rows)

    def multiway_step_rows(
        self, rows: float, constraints: Sequence[FilterKey]
    ) -> float:
        """Output estimate for one variable elimination: the *smallest*
        per-condition fanout bounds the intersection, and every other
        condition further thins it like a selection (Eq. 10)."""
        if not constraints:
            return rows
        fanouts = [
            self.join_fanout(condition, side is Side.OUT)
            for condition, side in constraints
        ]
        tightest = min(range(len(fanouts)), key=fanouts.__getitem__)
        out = rows * fanouts[tightest]
        for index, (condition, _side) in enumerate(constraints):
            if index != tightest:
                out *= self.selection_selectivity(condition)
        return out

    def multiway_step_cost(
        self, rows: float, constraints: Sequence[FilterKey], rows_out: float
    ) -> float:
        """MultiwayIntersectOp: scan the input, per row and condition one
        code retrieval (getCenters, W-probe amortized like Filter) plus
        IO_rji per extension-set node examined before intersection."""
        k = max(1, len(constraints))
        code = self.params.io_btree + self.params.io_page
        probe = 0.25 * self.params.io_btree
        per_row = k * (code * self.params.cached_code_discount + probe)
        expanded = 0.0
        for condition, side in constraints:
            expanded += rows * self.join_fanout(condition, side is Side.OUT)
        return (
            self.scan_cost(rows)
            + rows * per_row
            + self.params.io_index_node * max(expanded, 1.0)
            + self.materialize_cost(rows_out)
        )
