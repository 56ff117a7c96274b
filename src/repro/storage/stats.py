"""I/O accounting for the simulated storage engine.

The paper's evaluation is dominated by disk I/O ("the I/O cost of DP
increases much faster than DPS does", Section 6.2), so the whole storage
substrate funnels its page traffic through one :class:`IOStats` object.
Every database, index and operator in the library shares the stats object
of its :class:`~repro.storage.buffer.BufferPool`, which makes statements
like "DP spends over five times the I/O cost of DPS" directly measurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class IOStats:
    """Counters for simulated physical and logical page traffic.

    Attributes
    ----------
    physical_reads / physical_writes:
        Pages actually moved between the simulated disk and the buffer
        pool (i.e. buffer misses / dirty evictions + flushes).
    logical_reads:
        Page requests served, hit or miss.
    index_lookups:
        Root-to-leaf descents in B+-trees, tallied per index name.
    """

    physical_reads: int = 0
    physical_writes: int = 0
    logical_reads: int = 0
    index_lookups: Dict[str, int] = field(default_factory=dict)

    def record_lookup(self, index_name: str) -> None:
        self.index_lookups[index_name] = self.index_lookups.get(index_name, 0) + 1

    @property
    def buffer_hits(self) -> int:
        return self.logical_reads - self.physical_reads

    @property
    def hit_ratio(self) -> float:
        if self.logical_reads == 0:
            return 1.0
        return self.buffer_hits / self.logical_reads

    def total_io(self) -> int:
        """Physical page transfers in both directions."""
        return self.physical_reads + self.physical_writes

    def reset(self) -> None:
        self.physical_reads = 0
        self.physical_writes = 0
        self.logical_reads = 0
        self.index_lookups.clear()

    def snapshot(self) -> "IOStats":
        """A frozen copy, for before/after deltas around a query."""
        return IOStats(
            physical_reads=self.physical_reads,
            physical_writes=self.physical_writes,
            logical_reads=self.logical_reads,
            index_lookups=dict(self.index_lookups),
        )

    def delta_since(self, earlier: "IOStats") -> "IOStats":
        return IOStats(
            physical_reads=self.physical_reads - earlier.physical_reads,
            physical_writes=self.physical_writes - earlier.physical_writes,
            logical_reads=self.logical_reads - earlier.logical_reads,
            index_lookups={
                name: count - earlier.index_lookups.get(name, 0)
                for name, count in self.index_lookups.items()
                if count - earlier.index_lookups.get(name, 0)
            },
        )

    def __str__(self) -> str:
        return (
            f"IOStats(reads={self.physical_reads}, writes={self.physical_writes}, "
            f"logical={self.logical_reads}, hit_ratio={self.hit_ratio:.2f})"
        )
