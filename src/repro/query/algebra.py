"""Plan algebra: temporal tables and the R-join/R-semijoin plan steps.

A query plan for a pattern is a *left-deep* sequence of steps (paper
Section 4): the first step seeds a temporal table (an HPSJ R-join of two
base tables, or an extent scan for single-variable patterns) and every
later step is one of

* ``FilterStep`` — one shared scan applying one or more R-semijoins
  (``Filter`` of Algorithm 2 / Eq. 7-8; several conditions on the same
  scanned variable are processed together per Remark 3.1);
* ``FetchStep`` — the ``Fetch`` half of Algorithm 2, completing an R-join
  whose Filter already ran and materializing a new variable column;
* ``SelectionStep`` — a *self R-join* (Eq. 5): both variables already in
  the temporal table, evaluated as a selection on graph codes.

A second plan family covers *cyclic* join graphs, where every left-deep
tree of binary R-joins can materialize intermediates asymptotically
larger than the output: a **multiway plan** is a variable elimination
order — one ``MultiwaySeed`` followed by one ``MultiwayStep`` per
remaining variable — executed generic-join style (each step intersects
the extension sets of *all* conditions touching its variable, see
:mod:`repro.query.physical.multiway`).  The two families never mix
within one plan.

The driver (:mod:`repro.query.physical.drivers`) interprets these steps against
a :class:`~repro.db.database.GraphDatabase`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from ..storage import record_size
from ..storage.buffer import BufferPool
from ..storage.table import Table
from .pattern import Condition, GraphPattern, PatternError


class RowLimitExceeded(RuntimeError):
    """Raised when an operator's output outgrows an explicit row limit.

    Used as an execution guard: callers that only need to know whether a
    query stays within budget (e.g. workload validation) pass
    ``row_limit`` to the executor and catch this instead of waiting for a
    runaway multi-million-row intermediate to materialize.
    """


class Side(enum.Enum):
    """Which side of a condition the temporal table holds.

    ``OUT``: the temporal table has the condition's *source* variable; the
    Filter scans its out-codes and the Fetch adds the target via
    ``getT(w, Y)`` — the plain Algorithm 2 direction.

    ``IN``: the temporal table has the *target*; the Filter scans
    in-codes and the Fetch adds the source via ``getF(w, X)`` — the mirror
    case the paper sketches after Algorithm 2.
    """

    OUT = "out"
    IN = "in"

    def scanned_var(self, condition: Condition) -> str:
        return condition[0] if self is Side.OUT else condition[1]

    def fetched_var(self, condition: Condition) -> str:
        return condition[1] if self is Side.OUT else condition[0]


FilterKey = Tuple[Condition, Side]


@dataclass(frozen=True)
class SeedScan:
    """Scan one base table to seed a single-variable temporal table."""

    var: str


@dataclass(frozen=True)
class SeedJoin:
    """HPSJ (Algorithm 1): R-join two base tables via the join index."""

    condition: Condition


@dataclass(frozen=True)
class FilterStep:
    """One shared scan applying R-semijoins for all listed filter keys.

    Every key must scan the *same* variable (Remark 3.1's sharing
    condition: "either all X_i or all Y_i are the same").
    """

    keys: Tuple[FilterKey, ...]

    def __post_init__(self) -> None:
        scanned = {side.scanned_var(cond) for cond, side in self.keys}
        if len(scanned) != 1:
            raise PatternError(
                f"a shared FilterStep must scan one variable, got {sorted(scanned)}"
            )
        sides = {side for _, side in self.keys}
        if len(sides) != 1:
            # Remark 3.1: sharable only when all sources or all targets
            # coincide — i.e. one column scanned with one code kind
            raise PatternError(
                "a shared FilterStep must use one side (all X_i or all Y_i equal)"
            )

    @property
    def scanned_var(self) -> str:
        condition, side = self.keys[0]
        return side.scanned_var(condition)


@dataclass(frozen=True)
class FetchStep:
    """Fetch (Algorithm 2): complete a filtered R-join, adding a variable."""

    condition: Condition
    side: Side


@dataclass(frozen=True)
class SelectionStep:
    """Self R-join (Eq. 5): check a condition between two bound variables."""

    condition: Condition


@dataclass(frozen=True)
class MultiwaySeed:
    """Seed a multiway (generic-join) plan: bind the first variable of an
    elimination order.

    ``constraints`` lists the conditions incident to *var*, keyed so that
    ``side.fetched_var(condition) == var``; the operator binds *var* to
    the intersection of the per-condition W-projections (every value a
    final match could take must appear in each projection).  The seed
    *prunes* with these conditions but does not *evaluate* any of them —
    each condition is enforced exactly once, at the
    :class:`MultiwayStep` that eliminates its later endpoint.
    """

    var: str
    constraints: Tuple[FilterKey, ...] = ()

    def __post_init__(self) -> None:
        for condition, side in self.constraints:
            if side.fetched_var(condition) != self.var:
                raise PatternError(
                    f"multiway seed constraint {condition} [{side.value}] "
                    f"does not bind variable {self.var!r}"
                )


@dataclass(frozen=True)
class MultiwayStep:
    """Eliminate one variable by a multiway intersection (generic join).

    Per input row, the new variable's bindings are the intersection over
    *all* ``constraints`` of the condition's extension set from the bound
    endpoint — ``∪_{w ∈ out(x) ∩ W(X,Y)} getT(w, Y)`` for ``Side.OUT``
    (bound source), ``∪_{w ∈ in(y) ∩ W(X,Y)} getF(w, X)`` for ``Side.IN``
    (bound target).  Every listed condition is thereby fully evaluated;
    no intermediate R-join result is ever materialized for them.
    """

    var: str
    constraints: Tuple[FilterKey, ...]

    def __post_init__(self) -> None:
        if not self.constraints:
            raise PatternError(
                f"multiway step for {self.var!r} has no constraints; the "
                "elimination order must keep the join graph connected"
            )
        for condition, side in self.constraints:
            if side.fetched_var(condition) != self.var:
                raise PatternError(
                    f"multiway constraint {condition} [{side.value}] does "
                    f"not bind variable {self.var!r}"
                )


PlanStep = (
    SeedScan
    | SeedJoin
    | FilterStep
    | FetchStep
    | SelectionStep
    | MultiwaySeed
    | MultiwayStep
)

#: one broken plan invariant: ``(rule id, 0-based step index or None, message)``
Violation = Tuple[str, Optional[int], str]

_SEEDS = (SeedScan, SeedJoin, MultiwaySeed)
_MULTIWAY = (MultiwaySeed, MultiwayStep)


@dataclass
class Plan:
    """A validated left-deep plan for a pattern."""

    pattern: GraphPattern
    steps: List[PlanStep] = field(default_factory=list)

    def validate(self) -> None:
        """Raise :class:`PatternError` listing every :meth:`violations` entry."""
        found = self.violations()
        if found:
            raise PatternError("malformed plan:\n" + "\n".join(
                f"  {rule}{'' if step is None else f' (step {step})'}: {message}"
                for rule, step, message in found
            ))

    def violations(self) -> List[Violation]:
        """Simulate the binding state of the whole plan; every violation.

        A plan is correct only if each pattern condition is evaluated
        exactly once — by an HPSJ seed, a Filter+Fetch pair on one
        ``Side``, a self R-join or a multiway step — over variables bound
        in step order (paper Sections 3-4, Alg. 1/2).  A left-deep plan
        has one seed, at position 0; a plan seeded by ``MultiwaySeed`` is
        a variable elimination order and holds only ``MultiwayStep`` after
        it.  The runtime gate (:meth:`validate`) and the static checker
        (:func:`repro.analysis.check_plan`) both read this one list; a
        clean plan formats no message.
        """
        steps = self.steps
        if not steps:
            return [("plan/empty", None, "plan has no steps")]
        pattern = self.pattern
        conditions = set(pattern.conditions)
        found: List[Violation] = []
        bound: set = set()
        done: set = set()
        #: condition -> the Side its Filter ran with, until its Fetch
        pending: dict = {}

        def known(condition: Condition, index: int) -> None:
            if condition not in conditions:
                found.append(("plan/foreign-condition", index,
                              f"condition {condition} is not part of the "
                              f"pattern ({', '.join(map(str, pattern.conditions))})"))

        def evaluate(condition: Condition, index: int) -> None:
            known(condition, index)
            if condition in done:
                found.append(("plan/double-covered", index,
                              f"condition {condition} is evaluated more than once"))
            done.add(condition)

        multiway = type(steps[0]) is MultiwaySeed
        for index, step in enumerate(steps):
            kind = type(step)
            if isinstance(step, _MULTIWAY) is not multiway:
                found.append(("plan/mixed-paradigm", index,
                              f"{kind.__name__} in a "
                              f"{'multiway' if multiway else 'left-deep'} plan; "
                              "a plan seeded by MultiwaySeed holds only "
                              "MultiwaySteps after it, any other plan none"))
                continue
            if isinstance(step, _SEEDS):
                if index:
                    found.append(("plan/not-left-deep", index,
                                  f"seed step {step} at position {index}; a "
                                  "plan has exactly one seed, at position 0"))
                    continue
            elif not index:
                found.append(("plan/no-seed", 0,
                              f"plan starts with {kind.__name__}; the first "
                              "step must seed the temporal table"))
            if kind is FilterStep:
                scanned = step.scanned_var
                if scanned not in bound:
                    found.append(("plan/unbound-variable", index,
                                  f"filter scans variable {scanned!r} before "
                                  "any step binds it"))
                for condition, side in step.keys:
                    known(condition, index)
                    if condition in pending or condition in done:
                        found.append(("plan/double-covered", index,
                                      f"duplicate filter for {condition} "
                                      f"[{side.value}]: already filtered or "
                                      "evaluated"))
                    fetched = side.fetched_var(condition)
                    if fetched in bound:
                        found.append(("plan/rebind", index,
                                      f"filter for {condition} [{side.value}] "
                                      f"targets already-bound variable "
                                      f"{fetched!r}; use a SelectionStep "
                                      "between two bound variables"))
                    pending[condition] = side
            elif kind is FetchStep:
                condition, side = step.condition, step.side
                filtered = pending.pop(condition, None)
                if filtered is None:
                    found.append(("plan/fetch-without-filter", index,
                                  f"fetch for {condition} [{side.value}] has "
                                  "no preceding filter (HPSJ+ requires Filter "
                                  "before Fetch)"))
                elif filtered is not side:
                    found.append(("plan/side-mismatch", index,
                                  f"fetch for {condition} uses side "
                                  f"{side.value!r} but its filter ran with "
                                  f"side {filtered.value!r}"))
                fetched = side.fetched_var(condition)
                if fetched in bound:
                    found.append(("plan/rebind", index,
                                  f"fetch for {condition} re-binds variable "
                                  f"{fetched!r}; the temporal table would get "
                                  "a duplicate column"))
                bound.add(fetched)
                evaluate(condition, index)
            elif kind is SelectionStep:
                condition = step.condition
                for var in condition:
                    if var not in bound:
                        found.append(("plan/unbound-variable", index,
                                      f"selection on {condition} reads "
                                      f"variable {var!r} before any step "
                                      "binds it"))
                if condition in pending:
                    found.append(("plan/double-covered", index,
                                  f"selection on {condition} duplicates its "
                                  "pending filter"))
                evaluate(condition, index)
            elif kind is MultiwayStep:
                if step.var in bound:
                    found.append(("plan/rebind", index,
                                  f"multiway step re-binds variable "
                                  f"{step.var!r}"))
                for condition, side in step.constraints:
                    scanned = side.scanned_var(condition)
                    if scanned not in bound:
                        found.append(("plan/unbound-variable", index,
                                      f"multiway constraint {condition} scans "
                                      f"variable {scanned!r} before any step "
                                      "binds it"))
                    evaluate(condition, index)
                bound.add(step.var)
            elif kind is SeedJoin:
                bound.update(step.condition)
                evaluate(step.condition, index)
            elif kind is SeedScan or kind is MultiwaySeed:
                if step.var not in pattern.labels:
                    found.append(("plan/foreign-condition", index,
                                  f"seed binds unknown variable {step.var!r}"))
                bound.add(step.var)
                if kind is MultiwaySeed:
                    # seed constraints only prune: each condition is
                    # evaluated at the MultiwayStep binding its later endpoint
                    for condition, _ in step.constraints:
                        known(condition, index)
            else:
                found.append(("plan/unknown-step", index,
                              f"unrecognized plan step {step!r}"))

        for condition in pattern.conditions:
            if condition not in done:
                found.append(("plan/uncovered-condition", None,
                              f"condition {condition} is never evaluated"))
        for var in pattern.variables:
            if var not in bound:
                found.append(("plan/never-bound", None,
                              f"variable {var!r} is never bound by any step"))
        for condition, side in pending.items():
            found.append(("plan/unfetched-filter", None,
                          f"filter for {condition} [{side.value}] is never "
                          "fetched; its centers column would survive to the "
                          "final table"))
        return found

    def describe(self) -> str:
        """Human-readable one-line-per-step rendering (for EXPLAIN)."""
        lines = []
        for step in self.steps:
            if isinstance(step, SeedScan):
                lines.append(f"SCAN      T_{self.pattern.label(step.var)} ({step.var})")
            elif isinstance(step, SeedJoin):
                src, dst = step.condition
                lines.append(f"HPSJ      {src} -> {dst}")
            elif isinstance(step, FilterStep):
                conds = ", ".join(
                    f"{c[0]}->{c[1]}[{s.value}]" for c, s in step.keys
                )
                lines.append(f"FILTER    scan {step.scanned_var}: {conds}")
            elif isinstance(step, FetchStep):
                src, dst = step.condition
                lines.append(f"FETCH     {src} -> {dst} [{step.side.value}]")
            elif isinstance(step, SelectionStep):
                src, dst = step.condition
                lines.append(f"SELECT    {src} -> {dst}")
            elif isinstance(step, MultiwaySeed):
                conds = ", ".join(
                    f"{c[0]}->{c[1]}[{s.value}]" for c, s in step.constraints
                )
                lines.append(f"MSEED     {step.var}: {conds or '(full extent)'}")
            elif isinstance(step, MultiwayStep):
                conds = ", ".join(
                    f"{c[0]}->{c[1]}[{s.value}]" for c, s in step.constraints
                )
                lines.append(f"MJOIN     {step.var}: {conds}")
        return "\n".join(lines)


class TemporalTable:
    """An intermediate result: bound variable columns + pending center sets.

    Rows are tuples: first the node ids of ``variables`` (in order), then
    one ``tuple(centers)`` per entry of ``pending`` — the ``(r_i, X_i)``
    pairs that Algorithm 2's Filter emits into ``T_W``.  Rows live in a
    heap file through the buffer pool, so temporal-table scans and writes
    are charged I/O per page like any other table.
    """

    def __init__(
        self,
        pool: BufferPool,
        variables: Sequence[str],
        pending: Sequence[FilterKey] = (),
        name: str = "temp",
    ) -> None:
        self.variables: Tuple[str, ...] = tuple(variables)
        self.pending: Tuple[FilterKey, ...] = tuple(pending)
        columns = list(self.variables) + [
            f"__centers_{i}" for i in range(len(self.pending))
        ]
        self.table = Table(pool, name=name, columns=columns)
        # record_size(row) read off the layout: a tuple header and an int
        # per variable, then per pending column a header and an int per center
        bound = len(self.variables)
        fixed = 4 + 4 * bound + 4 * len(self.pending)
        if self.pending:
            self.row_size = lambda row: fixed + 4 * sum(map(len, row[bound:]))
        else:
            self.row_size = lambda row: fixed

    @classmethod
    def from_layout(
        cls, pool: BufferPool, layout, name: str = "temp"
    ) -> "TemporalTable":
        """Build a table whose schema matches a physical operator's output.

        *layout* is any object with ``variables`` and ``pending`` (the
        :class:`repro.query.physical.RowLayout` the operator computed);
        the accounting run uses this to turn each operator's output
        stream into a stored intermediate.
        """
        return cls(pool, variables=layout.variables, pending=layout.pending, name=name)

    # ------------------------------------------------------------------
    def _sanitized_row_size(self, row: Sequence) -> int:
        from ..analysis.sanitizer import SanitizerError

        size = self.row_size(row)
        if size != record_size(row):
            raise SanitizerError(
                f"layout-derived size {size} of row {row!r} in "
                f"{self.table.name!r} is not record_size's {record_size(row)}"
            )
        return size

    def insert_many(self, rows: Iterable[Sequence]) -> None:
        """Spill *rows* a page at a time (:meth:`HeapFile.extend`); each
        passes the arity check.  Under ``REPRO_SANITIZE`` each row is
        re-measured with the generic ``record_size``, raising if the
        layout-derived size disagrees."""
        # imported lazily: the analysis layer depends on the query layer
        from ..analysis.sanitizer import sanitize_enabled

        self.table.insert_many(
            rows, self._sanitized_row_size if sanitize_enabled() else self.row_size
        )

    def scan(self):
        return self.table.scan()

    def drop(self) -> None:
        """Free the table's pages once its rows have been consumed."""
        self.table.drop()

    @property
    def row_count(self) -> int:
        return len(self.table)

    @property
    def page_count(self) -> int:
        return self.table.page_count

    def __len__(self) -> int:
        return len(self.table)
