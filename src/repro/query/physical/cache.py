"""CenterCache — the multiway plan's expansions, a size-bounded LRU
shared across queries.

It keeps the two results of the multiway operators
(:mod:`repro.query.physical.multiway`) that later queries read again:

* a seed's W-projection of ``(X, Y)`` (the subclusters of all of
  ``W(X, Y)``, unioned) — keyed ``((X, Y), side)``;
* a step's extension set of one bound node (its centers' subclusters,
  unioned) — keyed ``(node, (X, Y), side)``.

Each value is an :data:`Expansion` ``(nodes, centers, volume)``: the
sorted union plus the two counts its operator charges, so a hit replays
the counters of the expansion it skips (the fetched label follows from
pair and side).  Center sets and single subclusters are not kept: each
is read on the way to the expansion that is.  The left-deep operators
(HPSJ, Filter, Fetch) never touch this cache; they memoize per
execution, exactly as their accounting run does.

A built database never changes, so both kinds are invariant for its
whole life: each engine owns one private :class:`CenterCache` and
threads it through every execution context — an LRU bounded by an
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

#: a multiway expansion: (sorted union of subclusters, centers, volume)
Expansion = Tuple[Tuple[int, ...], int, int]


def _cost(value: Expansion) -> int:
    """Bytes charged for one entry: the overhead plus every int it holds
    (the expansion's nodes and its two counts)."""
    return _ENTRY_OVERHEAD_BYTES + _INT_BYTES * (len(value[0]) + 2)


class CenterCache:
    """LRU of multiway projections and extension sets, bounded by bytes.

    ``capacity_bytes <= 0`` disables storage entirely (every ``get`` is a
    miss and ``put`` is a no-op) while keeping the counters alive, so the
    ``--no-center-cache`` ablation measures the uncached hot path under
    identical instrumentation.
    """

    def __init__(self, capacity_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        self.capacity_bytes = capacity_bytes
        self._lock = threading.Lock()
        self._store: "OrderedDict[tuple, Expansion]" = OrderedDict()
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
    # the two memoized expansions (a projection's key is one item
    # shorter than an extension set's, so the two never collide)
    # ------------------------------------------------------------------
    def get_projection(self, pair: Tuple[str, str], side: Side,
                       stats: Optional["CacheStats"] = None) -> Optional[Expansion]:
        """Cached multiway seed domain: ``(X, Y)``'s W-projection, or None."""
        return self._get((pair, side is Side.OUT), stats)

    def put_projection(self, pair: Tuple[str, str], side: Side, value: Expansion,
                       stats: Optional["CacheStats"] = None) -> None:
        self._put((pair, side is Side.OUT), value, stats)

    def get_extensions(self, node: int, pair: Tuple[str, str], side: Side,
                       stats: Optional["CacheStats"] = None) -> Optional[Expansion]:
        """Cached multiway extension set: *node*'s centers' subclusters, or None."""
        return self._get((node, pair, side is Side.OUT), stats)

    def put_extensions(self, node: int, pair: Tuple[str, str], side: Side,
                       value: Expansion, stats: Optional["CacheStats"] = None) -> None:
        self._put((node, pair, side is Side.OUT), value, stats)

    # ------------------------------------------------------------------
    # LRU mechanics
    # ------------------------------------------------------------------
    def _get(self, key: tuple, stats: Optional["CacheStats"]) -> Optional[Expansion]:
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
        self, key: tuple, value: Expansion, stats: Optional["CacheStats"] = None
    ) -> None:
        capacity = self.capacity_bytes
        if capacity <= 0:
            return
        cost = _cost(value)
        if cost > capacity:
            return  # a single oversized entry would evict everything
        with self._lock:
            if key in self._store:
                return
            self._store[key] = value
            self._bytes += cost
            while self._bytes > capacity and self._store:
                self._bytes -= _cost(self._store.popitem(last=False)[1])
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
            expected = sum(map(_cost, self._store.values()))
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
