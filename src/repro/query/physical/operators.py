"""The Volcano-style physical operators — Algorithms 1 and 2, once.

Every operator is a class with the classic ``open()/rows()/close()``
lifecycle over a shared :class:`~repro.query.physical.context.ExecutionContext`:

* :class:`SeedScanOp` — materialize one variable column from its label
  extent (single-variable patterns).
* :class:`SeedJoinOp` — HPSJ, Algorithm 1: R-join two *base* tables
  entirely from the cluster-based R-join index (per center
  ``w ∈ W(X,Y)``, the Cartesian product ``getF(w,X) × getT(w,Y)``,
  unioned).  "There is no need to access base tables."
* :class:`SharedFilterOp` — the Filter procedure of Algorithm 2 = an
  R-semijoin: for each temporal tuple, ``X_i = getCenters(x_i, X, Y)``
  (Eq. 6); tuples with ``X_i = ∅`` are pruned, survivors carry their
  center sets forward.  One scan serves several conditions on the same
  scanned variable (Remark 3.1), and repeated node values hit a
  per-operator memo instead of re-probing.
* :class:`FetchOp` — the Fetch procedure: per surviving tuple, the
  deduplicated union over its centers of the center's labeled
  T-subcluster (or F-subcluster for the mirrored direction).
* :class:`SelectionOp` — the self R-join (Eq. 5): test
  ``out(x) ∩ in(y) ≠ ∅`` between two already-bound columns.

Rows travel in **pattern declaration order** (:func:`declared`), so the
last operator's rows are the result rows — there is no projection stage.

There is **one body per operator**, and it counts and guards the rows it
emits itself (see :class:`PhysicalOperator`).  Each pulls its input a row
at a time (so a ``LIMIT`` stops all upstream work at once), computes with the
sorted-run kernels (:mod:`repro.query.physical.kernels`), and reads the
database only through its four-call run surface (``w_run``/``code_run``/
``subcluster_run``/``extent_run``) — whether those runs come from the
B+-tree tier (charged I/O) or a snapshot (copied per call) is the
database's business, never an operator's.  ``W(X, Y)`` is read once per
operator execution, a center set is ``code ∩ W`` computed where it is
needed, and each subcluster is read once per operator execution
(per-operator memo, then the run surface); HPSJ's getF and getT of one
center share one index probe (the paper's "leaf stays pinned" average
``IO_rji``).  So a streamed left-deep plan reads exactly what its
accounting run reads.  Only the multiway operators
(:mod:`repro.query.physical.multiway`) consult the cross-query
:class:`~repro.query.physical.cache.CenterCache`, for their expansions.

The driver in :mod:`repro.query.physical.drivers` chains these
generators; the paper's accounting run (``execute_plan``) drains each
``rows()`` into a temporal table instead.  Deduplication sets, the
Remark 3.1 shared scan, the memos and all metric counting live here and
nowhere else, so the two cannot drift apart;
``tests/reference_executor.py`` is the frozenset oracle both must match
row for row and counter for counter.
"""

from __future__ import annotations

import sys
from itertools import chain, repeat
from operator import itemgetter, length_hint
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..algebra import (
    FetchStep,
    FilterKey,
    FilterStep,
    MultiwaySeed,
    MultiwayStep,
    Plan,
    RowLimitExceeded,
    SeedJoin,
    SeedScan,
    SelectionStep,
    Side,
)
from ..pattern import Condition
from . import kernels
from .context import ExecutionContext, OperatorMetrics, RowLayout

Row = Tuple[int, ...]


def declared(ctx: ExecutionContext, variables: Sequence[str]) -> Tuple[str, ...]:
    """*variables* in the pattern's declaration order: the column order."""
    return tuple(v for v in ctx.pattern.variables if v in variables)


def one_row_builder(
    layout: RowLayout, position: int, consumed: Optional[int] = None
) -> "itemgetter[Row]":
    """``row + (value,)`` -> the expanded row: *value* at *position*, the
    *consumed* centers column dropped.  A one-row expansion needs no zip."""
    width = len(layout.variables) + len(layout.pending)
    columns = [column for column in range(width) if column != consumed]
    columns.insert(position, width)
    return itemgetter(*columns)


class Expansions:
    """An expanding operator's stream: the ``zip``s its generator yields,
    chained in C, closable like that generator."""

    def __init__(self, expansions: Iterator[Iterable[Row]]) -> None:
        self._rows = chain.from_iterable(expansions)
        self.close = expansions.close

    def __iter__(self) -> Iterator[Row]:
        return self._rows


class PhysicalOperator:
    """Base class: lifecycle, the counter flush, the row-limit guard's
    parts, and the two memoized index reads every R-join operator shares.

    Subclasses implement :meth:`_produce`, the operator's one body: it
    keeps its four counters in locals, guards ``row_limit`` where it
    counts ``rows_out`` (:meth:`_limit` / :meth:`_exceeded`) and hands
    them to :meth:`_flush` in a ``finally`` — so :class:`OperatorMetrics`
    is written once per execution, when the generator finishes
    (exhausted, closed early, or raising), and is final from then on.
    An *expanding* operator yields one ``zip`` per source row (one built
    row when it has one partner), chained in C by its ``rows()``, and
    counts by arithmetic: ``+= len(partners)`` before the yield,
    ``-= length_hint(pending)`` in the ``finally`` — exact for tuple
    iterators (DESIGN.md §2.1).

    **An operator pulls its source from its own frame; it never yields
    an iterable that wraps its source**: an upstream exception travels
    through C iterators *past* a suspended generator that merely handed
    a wrapper on, leaving its ``finally`` to the garbage collector.

    :meth:`rows` adds only the lifecycle: ``open()`` (reset memos and
    counters: an instance is reusable), then ``_produce`` with no loop of
    its own, then — however it ends — ``close()`` and closing the input
    stream, so everything upstream has flushed before the consumer
    regains control.
    """

    def __init__(self, ctx: ExecutionContext, name: str, layout: RowLayout):
        self.ctx = ctx
        self.name = name
        #: schema of the rows this operator emits
        self.layout = layout
        self.metrics = OperatorMetrics(operator=name)
        # per-execution memo of subcluster contents: the paper's IO_rji is
        # an *average per retrieved node* precisely because a center's
        # leaf stays pinned while its subcluster is consumed
        self._subclusters: Dict[Tuple[int, str, Side], Sequence[int]] = {}

    # -- lifecycle -----------------------------------------------------
    def open(self) -> None:
        """Reset per-execution state; called when ``rows()`` starts."""
        self._flush(0, 0)
        self._subclusters = {}

    def rows(self, source: Optional[Iterable[Row]] = None) -> Iterator[Row]:
        """The operator's output stream (opens on first pull)."""
        self.open()
        try:
            yield from self._produce(source)
        finally:
            self.close()
            # Volcano close(): a suspended child would sit on unflushed
            # counters until the garbage collector reached it — and an
            # in-flight exception's traceback keeps it alive
            close_source = getattr(source, "close", None)
            if close_source is not None:
                close_source()

    def close(self) -> None:
        """Release per-execution state; called when the stream ends."""
        self._subclusters = {}

    # -- helpers -------------------------------------------------------
    def _input(self, source: Optional[Iterable[Row]]) -> Iterable[Row]:
        """The child's stream (row-consuming operators need one)."""
        if source is None:
            raise TypeError(f"operator {self.name} requires an input stream")
        return source

    def _limit(self) -> int:
        """The ``row_limit`` budget as an always-comparable int."""
        limit = self.ctx.row_limit
        return sys.maxsize if limit is None else limit

    def _exceeded(self, limit: int) -> RowLimitExceeded:
        return RowLimitExceeded(f"operator {self.name} exceeded {limit} rows")

    def _flush(
        self,
        rows_in: int,
        rows_out: int,
        centers_probed: int = 0,
        nodes_fetched: int = 0,
    ) -> None:
        """Publish one execution's counters (``_produce``'s ``finally``)."""
        metrics = self.metrics
        metrics.rows_in = rows_in
        metrics.rows_out = rows_out
        metrics.centers_probed = centers_probed
        metrics.nodes_fetched = nodes_fetched

    def _centers(self, node: int, w_run: Sequence[int], side: Side) -> Tuple[int, ...]:
        """Eq. 6: ``getCenters`` = the node's code run galloped into the
        operator's ``W(X, Y)`` run, sorted."""
        if not w_run:
            return ()
        return tuple(kernels.intersect(self.ctx.db.code_run(node, side.value), w_run))

    def _subcluster(
        self, center: int, label: str, side: Side, pinned: bool = False
    ) -> Sequence[int]:
        """One center's labeled subcluster — ``getT(w, label)`` for
        ``Side.OUT``, ``getF(w, label)`` for ``Side.IN``: per-operator
        memo, then one index probe.  Only a *pinned* read (HPSJ's getT
        right after its getF) may reuse the leaf the previous probe
        pinned, so a streamed plan probes exactly what its accounting run
        probes."""
        key = (center, label, side)
        partners = self._subclusters.get(key)
        if partners is None:
            partners = self._subclusters[key] = self.ctx.db.subcluster_run(
                center, label, side.value, pinned
            )
        return partners

    def _produce(self, source: Optional[Iterable[Row]]) -> Iterator[Row]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# seeds
# ----------------------------------------------------------------------
class SeedScanOp(PhysicalOperator):
    """Scan one label extent to seed a single-variable intermediate."""

    def __init__(self, ctx: ExecutionContext, var: str):
        super().__init__(ctx, f"scan({var})", RowLayout((var,)))
        self.var = var
        self.label = ctx.pattern.label(var)

    def _produce(self, source: Optional[Iterable[Row]]) -> Iterator[Row]:
        limit = self._limit()
        scanned = 0
        try:
            for node in self.ctx.db.extent_run(self.label):
                scanned += 1
                if scanned > limit:
                    raise self._exceeded(limit)
                yield (node,)
        finally:
            self._flush(scanned, scanned)


class SeedJoinOp(PhysicalOperator):
    """HPSJ (Algorithm 1): R-join two base tables via the join index.

    ``rows_in`` counts the candidate pairs enumerated from the
    subcluster Cartesian products; ``rows_out`` the deduplicated pairs,
    emitted ``(y, x)`` when the pattern declares ``y`` first.
    """

    def __init__(self, ctx: ExecutionContext, condition: Condition):
        src, dst = condition
        super().__init__(ctx, f"hpsj({src}->{dst})", RowLayout(declared(ctx, condition)))
        self.condition = condition
        self.x_label, self.y_label = ctx.pattern.condition_labels(condition)

    def _produce(self, source: Optional[Iterable[Row]]) -> Iterator[Row]:
        subcluster = self._subcluster
        x_label, y_label = self.x_label, self.y_label
        flipped = self.layout.variables[0] != self.condition[0]
        limit = self._limit()
        seen: set = set()
        rows_in = rows_out = centers_probed = nodes_fetched = 0
        try:
            for center in self.ctx.db.w_run(x_label, y_label):
                centers_probed += 1
                f_nodes = subcluster(center, x_label, Side.IN)
                t_nodes = subcluster(center, y_label, Side.OUT, pinned=True)
                nodes_fetched += len(f_nodes) + len(t_nodes)
                for x in f_nodes:
                    for y in t_nodes:
                        rows_in += 1
                        pair = (y, x) if flipped else (x, y)
                        if pair not in seen:
                            seen.add(pair)
                            rows_out += 1
                            if rows_out > limit:
                                raise self._exceeded(limit)
                            yield pair
        finally:
            self._flush(rows_in, rows_out, centers_probed, nodes_fetched)


# ----------------------------------------------------------------------
# HPSJ+ filter / fetch
# ----------------------------------------------------------------------
class SharedFilterOp(PhysicalOperator):
    """R-semijoin(s) in one shared scan (Filter of Algorithm 2).

    All *keys* must scan the same variable with the same code side
    (Remark 3.1); each surviving row gains one centers column per key.  A
    row survives only if *every* key yields a non-empty center set — any
    empty set proves the row can never satisfy that reachability
    condition.  Because the verdict depends only on the scanned node, a
    per-operator memo caches each node's computed center columns (or its
    pruning) so repeated values pay neither the code read nor the
    intersection again.
    """

    def __init__(
        self,
        ctx: ExecutionContext,
        input_layout: RowLayout,
        keys: Sequence[FilterKey],
    ):
        keys = tuple(keys)
        scanned_vars = {side.scanned_var(cond) for cond, side in keys}
        if len(scanned_vars) != 1:
            raise ValueError(
                f"shared filter must scan one variable, got {scanned_vars}"
            )
        if len({side for _, side in keys}) != 1:
            raise ValueError(
                "shared filter must use one code side (Remark 3.1 sharing condition)"
            )
        scanned = next(iter(scanned_vars))
        names = ",".join(f"{c[0]}->{c[1]}" for c, _ in keys)
        super().__init__(
            ctx,
            f"filter[{scanned}]({names})",
            RowLayout(input_layout.variables, input_layout.pending + keys),
        )
        self.keys = keys
        self.position = input_layout.var_position(scanned)
        # label pairs are resolved once here, not per row
        self.label_pairs = [
            (ctx.pattern.condition_labels(cond), side) for cond, side in keys
        ]

    def _suffix(
        self, node: int, w_keys: Sequence[Tuple[Sequence[int], Side]]
    ) -> Optional[Tuple[Tuple[int, ...], ...]]:
        """The centers columns for *node*, or None if any key prunes it."""
        columns = []
        for w_run, side in w_keys:
            centers = self._centers(node, w_run, side)
            if not centers:
                return None
            columns.append(centers)
        return tuple(columns)

    def _produce(self, source: Optional[Iterable[Row]]) -> Iterator[Row]:
        db = self.ctx.db
        # W(X, Y) is read once per key per execution, not per node
        w_keys = [(db.w_run(*pair), side) for pair, side in self.label_pairs]
        memo: Dict[int, Optional[Tuple[Tuple[int, ...], ...]]] = {}
        position = self.position
        limit = self._limit()
        rows_in = rows_out = 0
        try:
            for row in self._input(source):
                rows_in += 1
                node = row[position]
                if node in memo:
                    suffix = memo[node]
                else:
                    suffix = memo[node] = self._suffix(node, w_keys)
                if suffix is not None:
                    rows_out += 1
                    if rows_out > limit:
                        raise self._exceeded(limit)
                    yield tuple(row) + suffix
        finally:
            self._flush(rows_in, rows_out)


class FetchOp(PhysicalOperator):
    """Fetch of Algorithm 2: materialize the condition's other variable.

    Consumes the pending centers column written by the matching Filter.
    Per row, the new column's values are the union over the row's centers
    of the center's labeled T-subcluster (``Side.OUT``) or F-subcluster
    (``Side.IN``); the union is deduplicated because one partner node may
    be witnessed by several centers.  Many rows share a centers column
    value, so the deduplicated union is computed once per distinct value;
    the logical counters are still charged per row (``centers_probed``
    per (row, center), ``nodes_fetched`` per subcluster node examined) —
    they describe Algorithm 2's work, not the memoization shortcut.  A
    row with one partner yields one built row; more yield a ``zip``.
    """

    def __init__(
        self,
        ctx: ExecutionContext,
        input_layout: RowLayout,
        condition: Condition,
        side: Side,
    ):
        src, dst = condition
        key: FilterKey = (condition, side)
        fetched = side.fetched_var(condition)
        super().__init__(
            ctx,
            f"fetch({src}->{dst})[{side.value}]",
            RowLayout(
                declared(ctx, input_layout.variables + (fetched,)),
                tuple(k for k in input_layout.pending if k != key),
            ),
        )
        self.condition = condition
        self.side = side
        self.centers_position = input_layout.pending_position(key)
        x_label, y_label = ctx.pattern.condition_labels(condition)
        self.fetch_label = y_label if side is Side.OUT else x_label
        #: the fetched variable's column in the output rows
        self.position = self.layout.var_position(fetched)
        self._build = one_row_builder(input_layout, self.position, self.centers_position)

    def rows(self, source: Optional[Iterable[Row]] = None) -> Iterable[Row]:
        return Expansions(super().rows(source))

    def _produce(self, source: Optional[Iterable[Row]]) -> Iterator[Iterable[Row]]:
        subcluster = self._subcluster
        label, side = self.fetch_label, self.side
        centers_position, position, build = self.centers_position, self.position, self._build
        # centers tuple -> (deduplicated partners, pre-dedup volume); the
        # partners are a tuple of bare ints, consumed by ``zip``
        memo: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], int]] = {}
        limit = self._limit()
        pending: Iterator[int] = iter(())
        rows_in = rows_out = centers_probed = nodes_fetched = 0
        try:
            for row in self._input(source):
                rows_in += 1
                centers = row[centers_position]
                entry = memo.get(centers)
                if entry is None:
                    entry = memo[centers] = kernels.gather_union(
                        [subcluster(center, label, side) for center in centers]
                    )
                partners, volume = entry
                centers_probed += len(centers)
                nodes_fetched += volume
                rows_out += len(partners)
                over = rows_out - limit
                if over > 0:  # the budget ends inside this expansion
                    partners, rows_out = partners[:-over], limit
                if len(partners) == 1:  # before the yield: nothing stays pending
                    pending = iter(())
                    yield (build(row + partners),)
                else:
                    pending = iter(partners)
                    # fetched variable in, consumed centers column out, the rest ride along
                    columns = list(map(repeat, row))
                    del columns[centers_position]
                    columns.insert(position, pending)
                    yield zip(*columns)
                if over > 0:  # drained: count the row that crossed, as a loop would
                    rows_out += 1
                    raise self._exceeded(limit)
        finally:
            rows_out -= length_hint(pending)
            self._flush(rows_in, rows_out, centers_probed, nodes_fetched)


class SelectionOp(PhysicalOperator):
    """Self R-join (Eq. 5): keep rows with ``out(x) ∩ in(y) ≠ ∅``.

    Both variables are already bound; the check costs two graph-code
    retrievals per row (the ``2·(IO_B + IO_X)·|T_R|`` term of Section 4),
    amortized by the working cache.
    """

    def __init__(
        self,
        ctx: ExecutionContext,
        input_layout: RowLayout,
        condition: Condition,
    ):
        src, dst = condition
        super().__init__(
            ctx,
            f"select({src}->{dst})",
            RowLayout(input_layout.variables, input_layout.pending),
        )
        self.condition = condition
        self.src_position = input_layout.var_position(src)
        self.dst_position = input_layout.var_position(dst)

    def _produce(self, source: Optional[Iterable[Row]]) -> Iterator[Row]:
        code_run = self.ctx.db.code_run
        src_position = self.src_position
        dst_position = self.dst_position
        limit = self._limit()
        rows_in = rows_out = 0
        try:
            for row in self._input(source):
                rows_in += 1
                # a test, not an intersection: C stops at the first common center
                if not set(code_run(row[src_position], "out")).isdisjoint(
                    code_run(row[dst_position], "in")
                ):
                    rows_out += 1
                    if rows_out > limit:
                        raise self._exceeded(limit)
                    yield tuple(row)
        finally:
            self._flush(rows_in, rows_out)


# ----------------------------------------------------------------------
# plan -> operator pipeline
# ----------------------------------------------------------------------
def build_pipeline(ctx: ExecutionContext, plan: Plan) -> List[PhysicalOperator]:
    """Instantiate one operator per plan step.

    The operators line up index-for-index with ``plan.steps`` (so
    per-operator metrics report one entry per step), and the last one's
    rows are the result rows: its layout is the pattern's variables in
    declaration order with no centers column left pending.
    """
    # imported here: the multiway module subclasses PhysicalOperator,
    # so the dependency must point from it to this module, not back
    from .multiway import MultiwayIntersectOp, MultiwaySeedOp

    operators: List[PhysicalOperator] = []
    layout: Optional[RowLayout] = None
    for step in plan.steps:
        op: PhysicalOperator
        if isinstance(step, SeedScan):
            op = SeedScanOp(ctx, step.var)
        elif isinstance(step, SeedJoin):
            op = SeedJoinOp(ctx, step.condition)
        elif isinstance(step, MultiwaySeed):
            op = MultiwaySeedOp(ctx, step.var, step.constraints)
        elif isinstance(step, FilterStep):
            op = SharedFilterOp(ctx, layout, step.keys)
        elif isinstance(step, FetchStep):
            op = FetchOp(ctx, layout, step.condition, step.side)
        elif isinstance(step, SelectionStep):
            op = SelectionOp(ctx, layout, step.condition)
        elif isinstance(step, MultiwayStep):
            op = MultiwayIntersectOp(ctx, layout, step.var, step.constraints)
        else:  # pragma: no cover - Plan.validate rejects unknown steps
            raise TypeError(f"unknown plan step {step!r}")
        operators.append(op)
        layout = op.layout
    if layout.pending:
        raise RuntimeError(f"plan finished with unconsumed filters {layout.pending}")
    return operators
