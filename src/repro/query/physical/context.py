"""Execution context shared by every physical operator.

One :class:`ExecutionContext` is built per plan execution and handed to
each operator: it carries the database handle, the row-limit budget that
guards every intermediate, and a factory for temporal-table names.  The
row *layout* (which variable columns a row currently has, plus one
centers column per pending Filter) travels separately as a
:class:`RowLayout`, because it changes operator by operator while the
context does not.

:class:`OperatorMetrics` lives here too — it is the per-operator half of
the run instrumentation, identical however a plan is run because the
counting happens inside the operators themselves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from ...db.database import Database
from ..algebra import FilterKey
from ..pattern import GraphPattern, PatternError
from .cache import CenterCache

_name_counter = itertools.count()


def temp_name(tag: str) -> str:
    """A unique name for one temporal table (the accounting run only)."""
    return f"{tag}#{next(_name_counter)}"


@dataclass
class OperatorMetrics:
    """Per-operator instrumentation.

    Invariants (asserted by the test suite): ``rows_out <= rows_in`` for
    every row-consuming operator (Filter, Selection), and
    ``rows_out <= rows_in`` on seeds too, where ``rows_in`` counts the
    candidate rows examined (base-table rows for a scan, candidate
    center-pairs for HPSJ) before deduplication or pruning.
    """

    operator: str
    rows_in: int = 0
    rows_out: int = 0
    centers_probed: int = 0
    nodes_fetched: int = 0

    @property
    def pruned(self) -> int:
        return max(0, self.rows_in - self.rows_out)


class RowLayout:
    """Schema of the rows flowing between two operators.

    ``variables`` are the bound variables in *pattern declaration order*
    (not bind order), so the last operator's rows are the result rows.
    Mirrors :class:`~repro.query.algebra.TemporalTable`'s column layout
    (variables first, then one centers column per pending filter) without
    any storage behind it — the driver uses it bare, the accounting run
    (``execute_plan``) turns it into a real temporal table.
    """

    __slots__ = ("variables", "pending")

    def __init__(
        self, variables: Sequence[str], pending: Sequence[FilterKey] = ()
    ) -> None:
        self.variables: Tuple[str, ...] = tuple(variables)
        self.pending: Tuple[FilterKey, ...] = tuple(pending)

    def var_position(self, var: str) -> int:
        try:
            return self.variables.index(var)
        except ValueError:
            raise PatternError(
                f"variable {var!r} not bound; bound: {self.variables}"
            ) from None

    def pending_position(self, key: FilterKey) -> int:
        try:
            return len(self.variables) + self.pending.index(key)
        except ValueError:
            raise PatternError(f"no pending centers for filter {key}") from None


@dataclass
class CacheStats:
    """Per-run CenterCache activity (deltas over one plan execution)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class ExecutionContext:
    """Everything the operators need from the outside world.

    ``row_limit`` is the execution guard, not a LIMIT clause: any
    operator whose output outgrows it raises
    :class:`~repro.query.algebra.RowLimitExceeded`.

    ``center_cache`` is the engine-owned cross-query LRU the multiway
    operators consult for their W-projections and extension sets before
    computing them from the database's run surface; ``None`` runs
    without it (cold per-query accounting — what ``execute_plan`` does).

    With ``REPRO_SANITIZE`` set (:mod:`repro.analysis.sanitizer`, re-read
    on every construction), a context that carries a cache audits its
    byte ledger before the run reads.
    """

    db: Database
    pattern: GraphPattern
    row_limit: Optional[int] = None
    center_cache: Optional[CenterCache] = None
    #: this run's private CenterCache recorder — operators pass it into
    #: every shared-cache get, so concurrent queries over one engine get
    #: exact per-query hit/miss attribution (no global-counter deltas)
    cache_stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.center_cache is None:
            return
        # imported lazily: the analysis layer depends on the query
        # layer, not the other way around
        from ...analysis.sanitizer import sanitize_enabled, verify_cache_ledger

        if sanitize_enabled():
            # any ledger drift left by an earlier (possibly concurrent)
            # query trips before this run reads
            verify_cache_ledger(self.center_cache, where="context construction")
