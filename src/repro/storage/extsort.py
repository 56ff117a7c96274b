"""External merge sort over heap files.

INT-DP's defining cost is that "it needs to sort all D-labeled nodes in
T_R" before every R-join (paper Section 5.2), and at the paper's scale
those sorts are *external*: the temporal table exceeds the 1 MiB buffer.
This module implements the textbook two-phase external merge sort on the
simulated storage engine so that a sort is charged its honest page
traffic:

1. **run generation** — read the input heap file once, cutting it into
   sorted runs sized to the buffer budget, each written back as its own
   heap file;
2. **k-way merge** — stream all runs through a tournament (heapq) into
   the output file; when the number of runs exceeds the configured fan-in
   the merge cascades over multiple passes.

The returned :class:`SortStats` reports runs, passes and comparisons —
the quantities the INT-DP ablations plot.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Tuple

from .buffer import BufferPool
from .heapfile import HeapFile

_seq = itertools.count()


@dataclass
class SortStats:
    """What one external sort did."""

    input_records: int = 0
    runs: int = 0
    merge_passes: int = 0
    comparisons: int = 0


def _run_capacity(pool: BufferPool, avg_record_pages: float = 0.01) -> int:
    """Records per in-memory run: proportional to the buffer's frames.

    A frame holds roughly ``1 / avg_record_pages`` records; half the
    buffer is reserved for the output/merge side, textbook-style.
    """
    frames_for_run = max(1, pool.frame_count // 2)
    return max(16, int(frames_for_run / avg_record_pages))


def _counted(records: Iterable[Any], stats: SortStats) -> Iterable[Any]:
    """Pass *records* through, charging one comparison per merged record."""
    for record in records:
        stats.comparisons += 1
        yield record


def external_sort(
    pool: BufferPool,
    source: Iterable[Any],
    key: Optional[Callable[[Any], Any]] = None,
    fan_in: int = 8,
    run_records: Optional[int] = None,
) -> Tuple[HeapFile, SortStats]:
    """Sort *source* records into a new heap file on *pool*.

    ``key`` follows ``sorted``'s contract.  ``run_records`` overrides the
    buffer-derived run size (tests use tiny values to force real merges).
    Returns the sorted heap file plus :class:`SortStats`.
    """
    stats = SortStats()
    capacity = run_records if run_records is not None else _run_capacity(pool)
    if capacity < 1:
        raise ValueError("run_records must be positive")

    # phase 1: run generation
    runs: List[HeapFile] = []
    buffer: List[Any] = []

    def flush_run() -> None:
        if not buffer:
            return
        buffer.sort(key=key)
        run = HeapFile(pool, name=f"sortrun#{next(_seq)}")
        run.extend(buffer)
        runs.append(run)
        buffer.clear()

    for record in source:
        stats.input_records += 1
        buffer.append(record)
        if len(buffer) >= capacity:
            flush_run()
    flush_run()
    stats.runs = len(runs)

    if not runs:
        return HeapFile(pool, name=f"sorted#{next(_seq)}"), stats

    # phase 2: cascaded k-way merges
    while len(runs) > 1:
        stats.merge_passes += 1
        next_round: List[HeapFile] = []
        for start in range(0, len(runs), fan_in):
            group = runs[start:start + fan_in]
            if len(group) == 1:
                next_round.append(group[0])
                continue
            merged = HeapFile(pool, name=f"sortrun#{next(_seq)}")
            merged.extend(
                _counted(heapq.merge(*(run.records() for run in group), key=key), stats)
            )
            next_round.append(merged)
        runs = next_round

    return runs[0], stats  # a single run is already the sorted output
