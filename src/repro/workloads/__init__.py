"""Benchmark workloads: Figure 4 pattern shapes and the experiment runner."""

from .patterns import CYCLIC_SHAPES, PatternFactory
from .runner import (
    ExperimentRecord,
    accounting_run,
    band_validator,
    row_limit_validator,
    check_agreement,
    format_records,
    run_igmj,
    run_rjoin,
    run_tsd,
)

__all__ = [
    "CYCLIC_SHAPES",
    "PatternFactory",
    "ExperimentRecord",
    "accounting_run",
    "band_validator",
    "row_limit_validator",
    "check_agreement",
    "format_records",
    "run_igmj",
    "run_rjoin",
    "run_tsd",
]
