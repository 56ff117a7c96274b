"""Static verification layer: plan checker and index auditor.

Two passes, one diagnostic format:

* :func:`check_plan` — :meth:`~repro.query.algebra.Plan.violations`
  (the binding simulation ``Plan.validate`` runs before every execution)
  as diagnostics, plus catalog existence of labels and W-table entries;
* :func:`audit_database` — verify a built
  :class:`~repro.db.database.GraphDatabase` (2-hop cover correctness,
  W-table ↔ F/T-subcluster agreement, B+-tree structure);
  :func:`audit_snapshot` checks a snapshot file before it is loaded.

The runtime twin is sanitize mode (:mod:`~repro.analysis.sanitizer`),
armed by ``REPRO_SANITIZE=1``.

All passes return lists of :class:`Diagnostic`; :func:`has_errors` is the
gate condition used by ``repro check`` and CI.
"""

from .diagnostics import (
    Diagnostic,
    Severity,
    errors,
    format_report,
    has_errors,
    warnings,
)
from .indexaudit import audit_database, audit_snapshot, check_bptree
from .plancheck import check_plan
from .sanitizer import SanitizerError, sanitize_enabled

__all__ = [
    "Diagnostic",
    "SanitizerError",
    "Severity",
    "audit_database",
    "audit_snapshot",
    "check_bptree",
    "check_plan",
    "errors",
    "format_report",
    "has_errors",
    "sanitize_enabled",
    "warnings",
]
