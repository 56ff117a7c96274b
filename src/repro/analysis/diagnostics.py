"""Structured diagnostics shared by every static-analysis pass.

Each pass (:mod:`repro.analysis.plancheck`, :mod:`repro.analysis.indexaudit`)
reports findings as :class:`Diagnostic` records rather than raising on the
first problem: a verifier that stops at the first violation hides the
other nine, and a CI gate wants the complete picture in one run.  A diagnostic carries a stable rule id (``pass/rule``,
e.g. ``plan/unbound-variable``), a severity, a location (source plus an
optional plan-step index) and a human-readable message.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings make :func:`has_errors` true and turn a ``repro
    check`` run red; ``WARNING`` findings are reported but do not gate.
    """

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static-analysis pass.

    Attributes
    ----------
    rule:
        Stable identifier, ``<pass>/<rule>`` (e.g. ``index/cover-missing``).
    severity:
        :class:`Severity` of the finding.
    message:
        Human-readable description of what is wrong and where.
    source:
        What was analyzed: ``plan`` / ``plan[dp]`` for plancheck, a
        structure name (``rjoin-index``, ``T_A.pk``) or snapshot path for
        the auditors.
    step:
        0-based plan-step index for plancheck findings, ``None`` elsewhere.
    """

    rule: str
    severity: Severity
    message: str
    source: str = "<unknown>"
    step: Optional[int] = None

    def format(self) -> str:
        where = self.source
        if self.step is not None:
            where = f"{where}[step {self.step}]"
        return f"{where}: {self.severity.value}: {self.rule}: {self.message}"


def errors(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    """Only the ``ERROR``-severity findings."""
    return [d for d in diagnostics if d.severity is Severity.ERROR]


def warnings(diagnostics: Iterable[Diagnostic]) -> List[Diagnostic]:
    """Only the ``WARNING``-severity findings."""
    return [d for d in diagnostics if d.severity is Severity.WARNING]


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    """True when any finding is an ``ERROR`` (the CI gate condition)."""
    return any(d.severity is Severity.ERROR for d in diagnostics)


def format_report(diagnostics: Sequence[Diagnostic]) -> str:
    """Render findings one per line, errors first, stable within severity."""
    ordered = sorted(
        diagnostics,
        key=lambda d: (d.severity is not Severity.ERROR, d.source,
                       d.step or 0, d.rule),
    )
    return "\n".join(d.format() for d in ordered)
