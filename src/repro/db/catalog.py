"""Statistics catalog for cost-based R-join ordering.

Paper Section 4: "We maintain the join sizes and the processing costs for
all R-joins between two base tables in a graph database."  The catalog
precomputes, per label pair (X, Y):

* the estimated R-join output size ``|T_X ⋈_{X->Y} T_Y|`` — the sum over
  centers in W(X, Y) of |F_X(w)| * |T_Y(w)|, capped by |ext(X)|*|ext(Y)|
  (the sum double-counts pairs covered by several centers, so it is an
  upper bound; capping keeps selectivities sane);
* the number of centers |W(X, Y)| and the total fetched-node volume,
  which feed the IO_rji terms of the cost model.

These are *estimates* by design — the optimizer needs relative ordering,
not exact counts; the paper adopts "similar techniques to estimate
joins/semijoins used in relational database systems".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class PairStats:
    """Per-(X, Y) statistics for the R-join between two base tables."""

    pair_estimate: int     # estimated |T_X ⋈ T_Y|
    center_count: int      # |W(X, Y)|
    fetch_volume: int      # Σ_w |T_Y(w)| — nodes touched by Fetch from X side


_NO_PAIR = PairStats(0, 0, 0)  # label pairs with no W(X, Y) entry


class Catalog:
    """Extent sizes and pairwise R-join statistics for one data graph."""

    extent_sizes: Dict[str, int]
    _pairs: Dict[Tuple[str, str], PairStats]

    @classmethod
    def from_stats(
        cls,
        extent_sizes: Dict[str, int],
        pairs: Dict[Tuple[str, str], PairStats],
    ) -> "Catalog":
        """A catalog over finished statistics: the cluster R-join index
        computes them while it builds (``ClusterRJoinIndex.pair_stats``),
        and a snapshot stores them, so neither build nor load walks the
        clusters again."""
        catalog = cls.__new__(cls)
        catalog.extent_sizes = dict(extent_sizes)
        catalog._pairs = dict(pairs)
        return catalog

    # ------------------------------------------------------------------
    def extent_size(self, label: str) -> int:
        return self.extent_sizes.get(label, 0)

    def pair_stats(self, x_label: str, y_label: str) -> PairStats:
        return self._pairs.get((x_label, y_label), _NO_PAIR)

    def join_size(self, x_label: str, y_label: str) -> int:
        """Estimated ``|T_X ⋈_{X->Y} T_Y|`` between two base tables."""
        return self.pair_stats(x_label, y_label).pair_estimate

    def join_selectivity(self, x_label: str, y_label: str) -> float:
        """``|T_X ⋈ T_Y| / (|T_X| * |T_Y|)`` — the Eq. (10) ratio."""
        denom = self.extent_size(x_label) * self.extent_size(y_label)
        if denom == 0:
            return 0.0
        return self.join_size(x_label, y_label) / denom

    def reduction_factor(self, x_label: str, y_label: str) -> float:
        """``|T_X ⋈ T_Y| / |T_X|`` — the Eq. (11) per-X-tuple fan-out.

        Used to estimate how a temporal table holding an X column grows
        when it R-joins a new base table T_Y.
        """
        size = self.extent_size(x_label)
        if size == 0:
            return 0.0
        return self.join_size(x_label, y_label) / size

    def semijoin_survival(self, x_label: str, y_label: str) -> float:
        """Fraction of X tuples that survive the semijoin ``⋉_{X->Y}``.

        Estimated as min(1, join_size / |T_X|) — every surviving tuple
        contributes at least one join pair.
        """
        return min(1.0, self.reduction_factor(x_label, y_label))

    def all_pairs(self) -> Dict[Tuple[str, str], PairStats]:
        return dict(self._pairs)
