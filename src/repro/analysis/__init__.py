"""Static verification layer: plan checker, index auditor, project lint.

Four passes, one diagnostic format:

* :func:`check_plan` — :meth:`~repro.query.algebra.Plan.violations`
  (the binding simulation ``Plan.validate`` runs before every execution)
  as diagnostics, plus catalog existence of labels and W-table entries;
* :func:`audit_database` — verify a built
  :class:`~repro.db.database.GraphDatabase` (2-hop cover correctness,
  W-table ↔ F/T-subcluster agreement, B+-tree structure);
* :func:`run_lint` — project-specific AST rules over source files
  (storage-layer bypasses from ``query/``, mutable defaults, enum
  identity comparisons, bare excepts, unused imports);
* :func:`check_concurrency` — lock discipline for the internally
  synchronized concurrent structures
  (:mod:`~repro.analysis.concurrency`), run with the lint pass under
  ``repro check --self``.

The runtime twin is sanitize mode (:mod:`~repro.analysis.sanitizer`),
armed by ``ExecutionContext(sanitize=True)`` or ``REPRO_SANITIZE=1``.

All passes return lists of :class:`Diagnostic`; :func:`has_errors` is the
gate condition used by ``repro check`` and CI.
"""

from .concurrency import check_concurrency
from .diagnostics import (
    Diagnostic,
    Severity,
    errors,
    format_report,
    has_errors,
    warnings,
)
from .indexaudit import audit_database, audit_snapshot, check_bptree
from .lint import lint_paths, lint_project, lint_source
from .plancheck import check_plan
from .sanitizer import SanitizerError, sanitize_enabled

#: the conventional entry point for linting arbitrary paths
run_lint = lint_paths

__all__ = [
    "Diagnostic",
    "SanitizerError",
    "Severity",
    "audit_database",
    "audit_snapshot",
    "check_bptree",
    "check_concurrency",
    "check_plan",
    "errors",
    "format_report",
    "has_errors",
    "lint_paths",
    "lint_project",
    "lint_source",
    "run_lint",
    "sanitize_enabled",
    "warnings",
]
