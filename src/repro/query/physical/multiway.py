"""Generic-join physical operators for cyclic patterns (multiway R-joins).

Left-deep plans eliminate one *condition* per step and must materialize
every binary R-join's intermediate; on cyclic patterns (triangles,
diamonds, cliques) those intermediates can be asymptotically larger than
the final output.  The worst-case-optimal alternative eliminates one
*variable* per step: for each candidate row, the new variable's value
set is the **intersection of its extension sets across every condition
touching it** — computed with the same sorted-run merge/gallop kernels
Filter and Fetch use, never materializing a binary join.

Two operators implement one variable-elimination order:

* :class:`MultiwaySeedOp` — binds the first variable.  Its domain is the
  intersection, over the seed's incident conditions, of each condition's
  W-projection onto the variable (the union over ``w ∈ W(X, Y)`` of the
  center's labeled subcluster).  This is sound pruning — every value
  that can appear in any result survives — but enforces nothing by
  itself; each condition is *enforced* exactly once, at the step that
  eliminates its later endpoint.
* :class:`MultiwayIntersectOp` — binds one more variable ``v``.  Per
  input row, for every condition between ``v`` and an already-bound
  variable, the bound endpoint's centers (Eq. 6, ``code ∩ W``) are
  expanded to the union of their labeled subclusters (Eqs. 7-9); the
  row's extensions are the k-way intersection of those per-condition
  sets (:func:`~repro.query.physical.kernels.intersect_many` — the
  leapfrog core, folding smallest-first).

Both operators are single bodies over the sorted-run kernels and the
database's four-call run surface, like every other physical operator
(see :mod:`repro.query.physical.operators`): W-runs, code runs and
subcluster runs come from whichever storage tier the database sits on,
memoized per operator and through the shared
:class:`~repro.query.physical.cache.CenterCache`.  The expansions
themselves are memoized across queries in that same cache: a seed's
per-condition W-projection keyed ``((X, Y), side)``, a step's
per-condition extension set keyed ``(node, (X, Y), side)`` — both pure
functions of the built database, stored as ``(nodes, centers, volume)``.

Counter semantics (matching Filter/Fetch conventions):

* ``centers_probed`` — one per (row, condition, center) whose subcluster
  is expanded, memo hits included;
* ``nodes_fetched`` — pre-dedup subcluster volume examined, ditto;
* ``rows_in`` — candidate values examined before pruning: for the seed,
  the smallest per-condition projection (or the base extent when the
  seed has no constraints); for an intersect step, the input rows;
* ``rows_out`` — emitted rows, so ``rows_out`` summed over a plan's
  operators is exactly the "intermediate rows" quantity the bench
  gates compare against left-deep plans.

Per-row extension sets are memoized on the tuple of scanned values (many
rows share bound prefixes on cyclic cores), which saves the k-way
intersection too.  Counters are replayed on both memo layers: a hit in
the per-execution memo or in the CenterCache charges the
``centers_probed`` / ``nodes_fetched`` of the expansion it skips, per
row and per condition, with the same early exits — so memo state can
never change the reported work, the same replay discipline Fetch uses.
"""

from __future__ import annotations

from itertools import repeat
from operator import length_hint
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..algebra import FilterKey, Side
from . import kernels
from .cache import Expansion
from .context import ExecutionContext, RowLayout
from .operators import Expansions, PhysicalOperator, Row, declared


def _describe(constraints: Sequence[FilterKey]) -> str:
    return ",".join(f"{c[0]}->{c[1]}" for c, _ in constraints)


class _MultiwayBase(PhysicalOperator):
    """Constraint resolution shared by the two multiway operators."""

    def __init__(
        self,
        ctx: ExecutionContext,
        name: str,
        layout: RowLayout,
        var: str,
        constraints: Tuple[FilterKey, ...],
    ) -> None:
        super().__init__(ctx, name, layout)
        self.var = var
        self.constraints = constraints
        # (x_label, y_label, side, fetch_label) per constraint; the
        # fetched endpoint of every constraint is ``var``
        self._plans: List[Tuple[str, str, Side, str]] = []
        for condition, side in constraints:
            x_label, y_label = ctx.pattern.condition_labels(condition)
            fetch_label = y_label if side is Side.OUT else x_label
            self._plans.append((x_label, y_label, side, fetch_label))

    def _expand(
        self, centers: Sequence[int], fetch_label: str, side: Side
    ) -> Expansion:
        """Eqs. 7-9: sorted union of the centers' labeled subclusters,
        plus the two counts it charges (centers, pre-dedup volume)."""
        union, volume = kernels.union_sorted(
            [self._subcluster(center, fetch_label, side) for center in centers]
        )
        return tuple(union), len(centers), volume


class MultiwaySeedOp(_MultiwayBase):
    """Bind the elimination order's first variable from the join index.

    The variable's domain is the intersection over its constraints of
    each condition's W-projection onto it: for ``(condition, Side.OUT)``
    the union of ``getT(w, Y)`` over ``w ∈ W(X, Y)``, for ``Side.IN``
    the union of ``getF(w, X)``.  With no constraints (a degenerate
    single-variable core) it falls back to the base-table extent, like
    :class:`~repro.query.physical.operators.SeedScanOp`.

    Values are emitted in ascending node order — the deterministic
    enumeration the differential suites rely on.
    """

    def __init__(
        self,
        ctx: ExecutionContext,
        var: str,
        constraints: Tuple[FilterKey, ...] = (),
    ) -> None:
        super().__init__(ctx, f"mseed({var})", RowLayout((var,)), var, constraints)
        self.label = ctx.pattern.label(var)

    def _produce(self, source: Optional[Iterable[Row]]) -> Iterator[Row]:
        db = self.ctx.db
        limit = self._limit()
        rows_in = rows_out = centers_probed = nodes_fetched = 0
        try:
            if not self.constraints:
                # degenerate core: full extent, identical to SeedScanOp
                for node in db.extent_run(self.label):
                    rows_in += 1
                    rows_out += 1
                    if rows_out > limit:
                        raise self._exceeded(limit)
                    yield (node,)
                return
            # one W-projection onto the seed variable per condition
            cache, stats = self.ctx.center_cache, self.ctx.cache_stats
            domains: List[Tuple[int, ...]] = []
            for x_label, y_label, side, fetch_label in self._plans:
                pair = (x_label, y_label)
                entry = None if cache is None else cache.get_projection(pair, side, stats)
                if entry is None:
                    entry = self._expand(db.w_run(*pair), fetch_label, side)
                    if cache is not None:
                        cache.put_projection(pair, side, entry, stats)
                domain, probes, volume = entry
                centers_probed += probes
                nodes_fetched += volume
                if not domain:
                    return  # one empty projection proves an empty result
                domains.append(domain)
            # candidates examined = the smallest projection (intersect_many
            # folds smallest-first, so these are the values actually probed)
            rows_in = min(len(d) for d in domains)
            for node in kernels.intersect_many(domains):
                rows_out += 1
                if rows_out > limit:
                    raise self._exceeded(limit)
                yield (node,)
        finally:
            self._flush(rows_in, rows_out, centers_probed, nodes_fetched)


class MultiwayIntersectOp(_MultiwayBase):
    """Eliminate one variable by k-way intersection of extension sets.

    Per input row, each constraint expands its bound endpoint through
    Eq. 6 (``centers = code ∩ W(X, Y)``) and Eqs. 7-9 (the union of the
    centers' labeled subclusters); the row's extensions are the
    intersection across all constraints, emitted in ascending order.  A
    row with an empty center set or an empty intersection is pruned —
    the condition is thereby *enforced*, not merely projected.

    Extension sets depend only on the tuple of scanned values, which is
    memoized; counters are charged per row even on memo hits.
    """

    def __init__(
        self,
        ctx: ExecutionContext,
        input_layout: RowLayout,
        var: str,
        constraints: Tuple[FilterKey, ...],
    ) -> None:
        if not constraints:
            raise ValueError(f"multiway step for {var!r} needs >= 1 constraint")
        variables = declared(ctx, input_layout.variables + (var,))
        super().__init__(
            ctx,
            f"mjoin[{var}]({_describe(constraints)})",
            RowLayout(variables, input_layout.pending),
            var,
            constraints,
        )
        #: the eliminated variable's column in the output rows
        self.position = self.layout.var_position(var)
        # position of each constraint's bound (scanned) endpoint
        self.scan_positions = [
            input_layout.var_position(side.scanned_var(condition))
            for condition, side in constraints
        ]

    def _extensions(
        self,
        scanned: Tuple[int, ...],
        w_keys: Sequence[Tuple[Sequence[int], Tuple[str, str]]],
    ) -> Tuple[Optional[Tuple[int, ...]], int, int]:
        """(extensions | None, centers probed, subcluster volume)."""
        cache, stats = self.ctx.center_cache, self.ctx.cache_stats
        probes = 0
        volume = 0
        per_condition: List[Sequence[int]] = []
        for node, (w_run, pair), plan in zip(scanned, w_keys, self._plans):
            _x, _y, side, fetch_label = plan
            entry = None if cache is None else cache.get_extensions(node, pair, side, stats)
            if entry is None:
                centers = self._centers(node, w_run, pair, side)
                entry = self._expand(centers, fetch_label, side)
                if cache is not None:
                    cache.put_extensions(node, pair, side, entry, stats)
            # no centers expands to ((), 0, 0): both early exits charge
            # exactly what a fresh expansion would
            extensions, centers_seen, vol = entry
            probes += centers_seen
            volume += vol
            if not extensions:
                return None, probes, volume
            per_condition.append(extensions)
        return tuple(kernels.intersect_many(per_condition)), probes, volume

    def rows(self, source: Optional[Iterable[Row]] = None) -> Iterable[Row]:
        return Expansions(super().rows(source))

    def _produce(self, source: Optional[Iterable[Row]]) -> Iterator[Iterable[Row]]:
        db = self.ctx.db
        # W(X, Y) is read once per constraint per execution
        w_keys = [
            (db.w_run(x, y), (x, y)) for x, y, _side, _fetch in self._plans
        ]
        # scanned-values tuple -> (extensions | None, probes, volume); the
        # extensions are a tuple of bare ints, consumed by ``zip``
        memo: Dict[Tuple[int, ...], Tuple[Optional[Tuple[int, ...]], int, int]] = {}
        positions, position = self.scan_positions, self.position
        limit = self._limit()
        pending: Iterator[int] = iter(())
        rows_in = rows_out = centers_probed = nodes_fetched = 0
        try:
            for row in self._input(source):
                rows_in += 1
                scanned = tuple(row[p] for p in positions)
                entry = memo.get(scanned)
                if entry is None:
                    entry = memo[scanned] = self._extensions(scanned, w_keys)
                extensions, probes, volume = entry
                # replay the counters on memo hits too: they describe the
                # algorithm's work per row, not the memoization shortcut
                centers_probed += probes
                nodes_fetched += volume
                if not extensions:
                    continue
                rows_out += len(extensions)
                over = rows_out - limit
                if over > 0:  # the budget ends inside this expansion
                    extensions, rows_out = extensions[:-over], limit
                pending = iter(extensions)
                columns = list(map(repeat, row))
                columns.insert(position, pending)
                yield zip(*columns)
                if over > 0:  # drained: count the row that crossed, as a loop would
                    rows_out += 1
                    raise self._exceeded(limit)
        finally:
            rows_out -= length_hint(pending)
            self._flush(rows_in, rows_out, centers_probed, nodes_fetched)


__all__ = ["MultiwayIntersectOp", "MultiwaySeedOp"]
