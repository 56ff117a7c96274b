"""CenterCache — a size-bounded LRU shared across queries.

Two things every query would otherwise recompute are pure functions of
the offline structures:

* ``getCenters(x, X, Y)`` (Eq. 6) — a code read plus an intersection,
  repeated for every distinct scanned node of every Filter;
* ``getF(w, X)`` / ``getT(w, Y)`` (Eqs. 7-9) — the per-center labeled
  subcluster, re-fetched from the B+-tree by every Fetch that meets the
  center again.

A built database never changes, so both are invariant for its whole
life: each engine owns one private :class:`CenterCache` over its one
database and threads it through every execution context — an LRU keyed
by ``(node, (X, Y), side)`` for center sets and ``(center, label,
side)`` for subclusters, bounded by an approximate byte budget
(``GraphEngine(cache_bytes=...)``).  There is no invalidation protocol:
a new index is a new database object and a new engine with a new cache.

Concurrency: the service's slot threads share the cache, and every read
or write of its state — the LRU order, the byte ledger, the three
counters — happens under its one lock.  Per-*query* attribution is
exact: every ``get``/``put`` accepts an optional per-context ``stats``
recorder (:class:`~repro.query.physical.context.CacheStats`) incremented
under the same lock, so overlapping queries never see each other's
traffic.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..algebra import Side

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from .context import CacheStats

#: rough per-entry overhead (key tuple, dict slot, value tuple header)
_ENTRY_OVERHEAD_BYTES = 96
#: bytes charged per int held in a cached tuple
_INT_BYTES = 8

#: default budget for GraphEngine-owned caches (~4 MiB)
DEFAULT_CACHE_BYTES = 4 << 20

_CENTERS_TAG = 0
_SUBCLUSTER_TAG = 1


class CenterCache:
    """LRU of center sets and subclusters, bounded by bytes.

    ``capacity_bytes <= 0`` disables storage entirely (every ``get`` is a
    miss and ``put`` is a no-op) while keeping the counters alive, so the
    ``--no-center-cache`` ablation measures the uncached hot path under
    identical instrumentation.
    """

    def __init__(self, capacity_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        self.capacity_bytes = capacity_bytes
        self._lock = threading.Lock()
        self._store: "OrderedDict[tuple, Tuple[int, ...]]" = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Full reset: entries *and* counters (tests, ablations)."""
        with self._lock:
            self._store.clear()
            self._bytes = 0
            self._hits = 0
            self._misses = 0
            self._evictions = 0

    # ------------------------------------------------------------------
    # the two memoized functions
    # ------------------------------------------------------------------
    def get_centers(
        self,
        node: int,
        pair: Tuple[str, str],
        side: Side,
        stats: Optional["CacheStats"] = None,
    ) -> Optional[Tuple[int, ...]]:
        """Cached ``getCenters`` result for ``(node, X, Y)``, or None."""
        return self._get((_CENTERS_TAG, node, pair, side is Side.OUT), stats)

    def put_centers(
        self,
        node: int,
        pair: Tuple[str, str],
        side: Side,
        centers: Tuple[int, ...],
        stats: Optional["CacheStats"] = None,
    ) -> None:
        self._put((_CENTERS_TAG, node, pair, side is Side.OUT), centers, stats)

    def get_subcluster(
        self,
        center: int,
        label: str,
        side: Side,
        stats: Optional["CacheStats"] = None,
    ) -> Optional[Tuple[int, ...]]:
        """Cached ``getT(w, Y)`` / ``getF(w, X)`` subcluster, or None."""
        return self._get((_SUBCLUSTER_TAG, center, label, side is Side.OUT), stats)

    def put_subcluster(
        self,
        center: int,
        label: str,
        side: Side,
        nodes: Tuple[int, ...],
        stats: Optional["CacheStats"] = None,
    ) -> None:
        self._put((_SUBCLUSTER_TAG, center, label, side is Side.OUT), nodes, stats)

    # ------------------------------------------------------------------
    # LRU mechanics
    # ------------------------------------------------------------------
    def _get(
        self, key: tuple, stats: Optional["CacheStats"]
    ) -> Optional[Tuple[int, ...]]:
        with self._lock:
            value = self._store.get(key)
            if value is None:
                self._misses += 1
                if stats is not None:
                    stats.misses += 1
                return None
            self._store.move_to_end(key)  # a hit makes the entry youngest
            self._hits += 1
            if stats is not None:
                stats.hits += 1
            return value

    def _put(
        self, key: tuple, value: Tuple[int, ...],
        stats: Optional["CacheStats"] = None,
    ) -> None:
        capacity = self.capacity_bytes
        if capacity <= 0:
            return
        cost = _ENTRY_OVERHEAD_BYTES + _INT_BYTES * len(value)
        if cost > capacity:
            return  # a single oversized entry would evict everything
        with self._lock:
            if key in self._store:
                return
            self._store[key] = value
            self._bytes += cost
            while self._bytes > capacity and self._store:
                _, evicted = self._store.popitem(last=False)
                self._bytes -= _ENTRY_OVERHEAD_BYTES + _INT_BYTES * len(evicted)
                self._evictions += 1
                if stats is not None:
                    stats.evictions += 1

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    @property
    def evictions(self) -> int:
        return self._evictions

    @property
    def entry_count(self) -> int:
        return len(self._store)

    @property
    def estimated_bytes(self) -> int:
        return self._bytes

    @property
    def hit_rate(self) -> float:
        hits = self.hits
        total = hits + self.misses
        return hits / total if total else 0.0

    def snapshot(self) -> Tuple[int, int, int]:
        """(hits, misses, evictions) — for per-run delta accounting."""
        return (self.hits, self.misses, self.evictions)

    def check_ledger(self) -> List[str]:
        """Verify the byte ledger against the entries actually resident.

        The sanitizer's runtime twin of the accounting invariant: the
        ledger must equal the recomputed cost of what the cache holds,
        and never exceed the budget.  Returns a list of human-readable
        violations (empty when the cache is sound); the caller decides
        whether to raise.
        """
        with self._lock:
            expected = sum(
                _ENTRY_OVERHEAD_BYTES + _INT_BYTES * len(value)
                for value in self._store.values()
            )
            ledger = self._bytes
        problems: List[str] = []
        if expected != ledger:
            problems.append(f"byte ledger {ledger} != recomputed {expected}")
        if self.capacity_bytes > 0 and ledger > self.capacity_bytes:
            problems.append(
                f"byte ledger {ledger} exceeds capacity {self.capacity_bytes}"
            )
        return problems

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CenterCache(entries={self.entry_count}, "
            f"bytes~{self.estimated_bytes}/{self.capacity_bytes}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )


__all__ = ["CenterCache", "DEFAULT_CACHE_BYTES"]
