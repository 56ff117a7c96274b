"""CenterCache — a size-bounded LRU shared across queries.

Four things every query would otherwise recompute are pure functions of
the offline structures:

* ``getCenters(x, X, Y)`` (Eq. 6) — a code read plus an intersection,
  repeated for every distinct scanned node of every Filter — keyed
  ``(node, (X, Y), side)``;
* ``getF(w, X)`` / ``getT(w, Y)`` (Eqs. 7-9) — the per-center labeled
  subcluster, re-fetched by every Fetch that meets the center again —
  keyed ``(center, label, side)``;
* a multiway seed's W-projection of ``(X, Y)`` (the subclusters of all
  of ``W(X, Y)``, unioned) — keyed ``((X, Y), side)``;
* a multiway step's extension set of one bound node (its centers'
  subclusters, unioned) — keyed ``(node, (X, Y), side)``.

The two multiway kinds hold ``(nodes, centers, volume)``: the sorted
union plus the two counts its operator charges, so a hit replays the
counters of the expansion it skips (the fetched label follows from pair
and side).  A built database never changes, so all four are invariant
for its whole life: each engine owns one private :class:`CenterCache`
and threads it through every execution context — an LRU bounded by an
approximate byte budget (``GraphEngine(cache_bytes=...)``) charging
every int it holds.  Values are tuples, never arrays a consumer could
mutate.  There is no invalidation protocol: a new index is a new
database object and a new engine with a new cache.

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
_PROJECTION_TAG = 2
_EXTENSIONS_TAG = 3

#: a multiway expansion: (sorted union of subclusters, centers, volume)
Expansion = Tuple[Tuple[int, ...], int, int]


def _cost(key: tuple, value: tuple) -> int:
    """Bytes charged for one entry: the overhead plus every int it holds
    (an expansion's nodes and its two counts)."""
    ints = len(value[0]) + 2 if key[0] >= _PROJECTION_TAG else len(value)
    return _ENTRY_OVERHEAD_BYTES + _INT_BYTES * ints


class CenterCache:
    """LRU of center sets, subclusters, multiway projections and
    extension sets, bounded by bytes.

    ``capacity_bytes <= 0`` disables storage entirely (every ``get`` is a
    miss and ``put`` is a no-op) while keeping the counters alive, so the
    ``--no-center-cache`` ablation measures the uncached hot path under
    identical instrumentation.
    """

    def __init__(self, capacity_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        self.capacity_bytes = capacity_bytes
        self._lock = threading.Lock()
        self._store: "OrderedDict[tuple, tuple]" = OrderedDict()
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
    # the four memoized functions
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

    def get_projection(self, pair: Tuple[str, str], side: Side,
                       stats: Optional["CacheStats"] = None) -> Optional[Expansion]:
        """Cached multiway seed domain: ``(X, Y)``'s W-projection, or None."""
        return self._get((_PROJECTION_TAG, pair, side is Side.OUT), stats)

    def put_projection(self, pair: Tuple[str, str], side: Side, value: Expansion,
                       stats: Optional["CacheStats"] = None) -> None:
        self._put((_PROJECTION_TAG, pair, side is Side.OUT), value, stats)

    def get_extensions(self, node: int, pair: Tuple[str, str], side: Side,
                       stats: Optional["CacheStats"] = None) -> Optional[Expansion]:
        """Cached multiway extension set: *node*'s centers' subclusters, or None."""
        return self._get((_EXTENSIONS_TAG, node, pair, side is Side.OUT), stats)

    def put_extensions(self, node: int, pair: Tuple[str, str], side: Side,
                       value: Expansion, stats: Optional["CacheStats"] = None) -> None:
        self._put((_EXTENSIONS_TAG, node, pair, side is Side.OUT), value, stats)

    # ------------------------------------------------------------------
    # LRU mechanics
    # ------------------------------------------------------------------
    def _get(self, key: tuple, stats: Optional["CacheStats"]) -> Optional[tuple]:
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
        self, key: tuple, value: tuple, stats: Optional["CacheStats"] = None
    ) -> None:
        capacity = self.capacity_bytes
        if capacity <= 0:
            return
        cost = _cost(key, value)
        if cost > capacity:
            return  # a single oversized entry would evict everything
        with self._lock:
            if key in self._store:
                return
            self._store[key] = value
            self._bytes += cost
            while self._bytes > capacity and self._store:
                self._bytes -= _cost(*self._store.popitem(last=False))
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
            expected = sum(_cost(*entry) for entry in self._store.items())
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
