"""CenterCache — a size-bounded, shard-striped LRU shared across queries.

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

Concurrency model (the service's lock-free snapshot tier): the cache is
striped into ``shards`` independently locked stripes, each with its own
LRU order, byte budget (``capacity_bytes // shards``) and counters.  A
key is pinned to a shard by hash, so two in-flight queries touching
different keys contend only when they land on the same stripe; nothing
ever takes more than one shard lock on the get/put path.  The
whole-cache ``clear`` takes the shard locks one at a time — safe
because entries never migrate between shards.  The
default is ``shards=1`` (a single-striped cache is byte-for-byte the
pre-sharding LRU, which the unit tests pin); engines construct theirs
with :data:`DEFAULT_CACHE_SHARDS` stripes.

Hits/misses/evictions are counted per shard and surfaced as aggregate
properties; per-*query* attribution is exact — every ``get``/``put``
accepts an optional per-context ``stats`` recorder
(:class:`~repro.query.physical.context.CacheStats`) incremented inside
the shard lock, so overlapping queries never see each other's traffic.
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

#: stripes for engine-owned caches (service tier runs queries truly
#: concurrently; 8 stripes keep same-stripe collisions rare at the
#: 4-slot inflight ceiling without fragmenting the byte budget)
DEFAULT_CACHE_SHARDS = 8

_CENTERS_TAG = 0
_SUBCLUSTER_TAG = 1


class _Shard:
    """One independently locked LRU stripe of the cache."""

    __slots__ = ("lock", "store", "bytes", "capacity_bytes",
                 "hits", "misses", "evictions")

    def __init__(self, capacity_bytes: int) -> None:
        self.lock = threading.Lock()
        self.store: "OrderedDict[tuple, Tuple[int, ...]]" = OrderedDict()
        self.bytes = 0
        self.capacity_bytes = capacity_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0


class CenterCache:
    """Sharded LRU of center sets and subclusters, bounded by bytes.

    ``capacity_bytes <= 0`` disables storage entirely (every ``get`` is a
    miss and ``put`` is a no-op) while keeping the counters alive, so the
    ``--no-center-cache`` ablation measures the uncached hot path under
    identical instrumentation.
    """

    def __init__(
        self,
        capacity_bytes: int = DEFAULT_CACHE_BYTES,
        shards: int = 1,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.capacity_bytes = capacity_bytes
        per_shard = capacity_bytes // shards if capacity_bytes > 0 else 0
        self._shards: Tuple[_Shard, ...] = tuple(
            _Shard(per_shard) for _ in range(shards)
        )

    def _shard_for(self, key: tuple) -> _Shard:
        shards = self._shards
        if len(shards) == 1:
            return shards[0]
        return shards[hash(key) % len(shards)]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Full reset: entries *and* counters (tests, ablations)."""
        for shard in self._shards:
            with shard.lock:
                shard.store.clear()
                shard.bytes = 0
                shard.hits = 0
                shard.misses = 0
                shard.evictions = 0

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
    # LRU mechanics (per shard)
    # ------------------------------------------------------------------
    def _get(
        self, key: tuple, stats: Optional["CacheStats"]
    ) -> Optional[Tuple[int, ...]]:
        shard = self._shard_for(key)
        with shard.lock:
            value = shard.store.get(key)
            if value is None:
                shard.misses += 1
                if stats is not None:
                    stats.misses += 1
                return None
            shard.store.move_to_end(key)  # a hit makes the entry youngest
            shard.hits += 1
            if stats is not None:
                stats.hits += 1
            return value

    def _put(
        self, key: tuple, value: Tuple[int, ...],
        stats: Optional["CacheStats"] = None,
    ) -> None:
        shard = self._shard_for(key)
        if shard.capacity_bytes <= 0:
            return
        cost = _ENTRY_OVERHEAD_BYTES + _INT_BYTES * len(value)
        if cost > shard.capacity_bytes:
            return  # a single oversized entry would evict everything
        with shard.lock:
            if key in shard.store:
                return
            shard.store[key] = value
            shard.bytes += cost
            while shard.bytes > shard.capacity_bytes and shard.store:
                _, evicted = shard.store.popitem(last=False)
                shard.bytes -= _ENTRY_OVERHEAD_BYTES + _INT_BYTES * len(evicted)
                shard.evictions += 1
                if stats is not None:
                    stats.evictions += 1

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return len(self._shards)

    @property
    def hits(self) -> int:
        return sum(shard.hits for shard in self._shards)

    @property
    def misses(self) -> int:
        return sum(shard.misses for shard in self._shards)

    @property
    def evictions(self) -> int:
        return sum(shard.evictions for shard in self._shards)

    @property
    def entry_count(self) -> int:
        return sum(len(shard.store) for shard in self._shards)

    @property
    def estimated_bytes(self) -> int:
        return sum(shard.bytes for shard in self._shards)

    @property
    def hit_rate(self) -> float:
        hits = self.hits
        total = hits + self.misses
        return hits / total if total else 0.0

    def snapshot(self) -> Tuple[int, int, int]:
        """(hits, misses, evictions) — for per-run delta accounting."""
        return (self.hits, self.misses, self.evictions)

    def check_shard_isolation(self) -> List[str]:
        """Verify every entry lives on the shard its key hashes to.

        The sanitizer's runtime twin of the striping invariant: each
        key must be reachable through ``_shard_for`` (no entry migrated
        stripes), and each stripe's byte ledger must equal the recomputed
        cost of what it actually holds.  Returns a list of human-readable
        violations (empty when the cache is sound); the caller decides
        whether to raise.
        """
        problems: List[str] = []
        for index, shard in enumerate(self._shards):
            with shard.lock:
                expected_bytes = 0
                for key, value in shard.store.items():
                    expected_bytes += _ENTRY_OVERHEAD_BYTES + _INT_BYTES * len(value)
                    home = self._shards.index(self._shard_for(key))
                    if home != index:
                        problems.append(
                            f"key {key!r} stored on shard {index} but "
                            f"hashes to shard {home}"
                        )
                if expected_bytes != shard.bytes:
                    problems.append(
                        f"shard {index} byte ledger {shard.bytes} != "
                        f"recomputed {expected_bytes}"
                    )
        return problems

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CenterCache(shards={self.shard_count}, "
            f"entries={self.entry_count}, "
            f"bytes~{self.estimated_bytes}/{self.capacity_bytes}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )


__all__ = ["CenterCache", "DEFAULT_CACHE_BYTES", "DEFAULT_CACHE_SHARDS"]
