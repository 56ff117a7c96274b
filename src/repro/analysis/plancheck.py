"""plancheck — a plan's binding violations as diagnostics, plus the catalog.

The binding simulation lives beside the plan:
:meth:`~repro.query.algebra.Plan.violations` replays the whole step
sequence (left-deep or multiway) and lists every broken invariant, and
:meth:`~repro.query.algebra.Plan.validate` raises on that same list
before every execution.  So a plan this pass reports no error for is
exactly a plan the drivers run.  This pass turns each violation into an
ERROR :class:`~repro.analysis.diagnostics.Diagnostic` and, when given the
database the plan will run against, adds two catalog checks:

* ``plan/unknown-label`` — a pattern variable's label has no base table;
* ``plan/empty-wtable-entry`` (a warning) — an R-join's ``W(X, Y)`` entry
  has no centers: the plan is sound but its result is provably empty.
"""

from __future__ import annotations

from typing import List, Optional, TYPE_CHECKING

from ..query.algebra import FilterStep, MultiwaySeed, MultiwayStep, Plan, SeedJoin
from .diagnostics import Diagnostic, Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..db.database import Database


def _r_joins(step) -> list:
    """The conditions whose ``W(X, Y)`` entry *step* reads."""
    if isinstance(step, SeedJoin):
        return [step.condition]
    if isinstance(step, FilterStep):
        return [condition for condition, _ in step.keys]
    if isinstance(step, (MultiwaySeed, MultiwayStep)):
        return [condition for condition, _ in step.constraints]
    return []


def check_plan(
    plan: Plan,
    db: Optional["Database"] = None,
    source: str = "plan",
) -> List[Diagnostic]:
    """Statically verify *plan*; returns every violation found.

    With ``db`` supplied the catalog checks run too (label tables exist,
    W-table entries are non-empty).  An empty return means the plan passes
    every structural invariant :meth:`Plan.validate` enforces.
    """
    labels = plan.pattern.labels
    known = set(db.labels()) if db is not None else set()
    found = [
        Diagnostic("plan/unknown-label", Severity.ERROR,
                   f"variable {var!r} uses label {label!r} which has no base "
                   f"table (known: {sorted(known)})", source)
        for var, label in labels.items() if db is not None and label not in known
    ]
    found.extend(
        Diagnostic(rule, Severity.ERROR, message, source, step=step)
        for rule, step, message in plan.violations()
    )
    for index, step in enumerate(plan.steps if db is not None else ()):
        for src, dst in _r_joins(step):
            x_label, y_label = labels.get(src), labels.get(dst)
            if {x_label, y_label} <= known and not db.w_run(x_label, y_label):
                found.append(Diagnostic(
                    "plan/empty-wtable-entry", Severity.WARNING,
                    f"W({x_label}, {y_label}) has no centers: the R-join for "
                    f"{(src, dst)} is provably empty", source, step=index,
                ))
    return found
