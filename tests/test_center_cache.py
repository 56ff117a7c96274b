"""Tests for the engine-owned cross-query CenterCache.

Covers the LRU mechanics (eviction order, approximate byte bound),
generation-based invalidation (``GraphDatabase.rebuild_join_index`` must
flush stale entries through ``sync``), the hit/miss/eviction counters and
their per-run surfacing in ``RunMetrics.center_cache``, and the
``capacity_bytes <= 0`` disabled mode the ``--no-center-cache`` ablation
uses.
"""

import pytest

from repro import GraphEngine
from repro.graph.generators import figure1_graph
from repro.query.algebra import Side
from repro.query.physical import kernels
from repro.query.physical.cache import (
    _ENTRY_OVERHEAD_BYTES,
    _INT_BYTES,
    CenterCache,
    DEFAULT_CACHE_BYTES,
)
from repro.workloads.runner import accounting_run


def entry_cost(n_ints: int) -> int:
    return _ENTRY_OVERHEAD_BYTES + _INT_BYTES * n_ints


class TestLRU:
    def test_get_put_roundtrip(self):
        cache = CenterCache()
        assert cache.get_centers(1, 0, Side.OUT) is None
        cache.put_centers(1, 0, Side.OUT, (4, 5))
        assert cache.get_centers(1, 0, Side.OUT) == (4, 5)

    def test_sides_and_kinds_do_not_collide(self):
        cache = CenterCache()
        cache.put_centers(1, 0, Side.OUT, (4,))
        assert cache.get_centers(1, 0, Side.IN) is None
        # subcluster keyspace is disjoint from the centers keyspace
        cache.put_subcluster(1, "A", Side.OUT, (9,))
        assert cache.get_centers(1, 0, Side.OUT) == (4,)
        assert cache.get_subcluster(1, "A", Side.OUT) == (9,)

    def test_eviction_is_least_recently_used(self):
        # room for exactly two empty-tuple entries
        cache = CenterCache(capacity_bytes=2 * entry_cost(0))
        cache.put_centers(1, 0, Side.OUT, ())
        cache.put_centers(2, 0, Side.OUT, ())
        cache.get_centers(1, 0, Side.OUT)  # touch 1 => 2 is now LRU
        cache.put_centers(3, 0, Side.OUT, ())
        assert cache.evictions == 1
        assert cache.get_centers(2, 0, Side.OUT) is None  # evicted
        assert cache.get_centers(1, 0, Side.OUT) == ()  # survived

    def test_byte_bound_holds(self):
        cache = CenterCache(capacity_bytes=10 * entry_cost(4))
        for node in range(100):
            cache.put_centers(node, 0, Side.OUT, (1, 2, 3, 4))
        assert cache.estimated_bytes <= cache.capacity_bytes
        assert cache.entry_count == 10
        assert cache.evictions == 90

    def test_oversized_entry_is_refused_not_thrashed(self):
        cache = CenterCache(capacity_bytes=entry_cost(2))
        cache.put_centers(1, 0, Side.OUT, (1,))
        cache.put_centers(2, 0, Side.OUT, tuple(range(1000)))  # too big
        assert cache.get_centers(1, 0, Side.OUT) == (1,)  # untouched
        assert cache.evictions == 0

    def test_counters(self):
        cache = CenterCache()
        cache.get_centers(1, 0, Side.OUT)
        cache.put_centers(1, 0, Side.OUT, ())
        cache.get_centers(1, 0, Side.OUT)
        assert cache.snapshot() == (1, 1, 0)
        assert cache.hit_rate == pytest.approx(0.5)

    def test_disabled_mode_counts_misses_stores_nothing(self):
        cache = CenterCache(capacity_bytes=0)
        cache.put_centers(1, 0, Side.OUT, (4,))
        assert cache.get_centers(1, 0, Side.OUT) is None
        assert cache.entry_count == 0
        assert cache.misses == 1


class TestInvalidation:
    def test_sync_same_generation_keeps_entries(self):
        cache = CenterCache()
        cache.sync(0)
        cache.put_centers(1, 0, Side.OUT, (4,))
        cache.sync(0)
        assert cache.get_centers(1, 0, Side.OUT) == (4,)

    def test_sync_new_generation_drops_entries_keeps_counters(self):
        cache = CenterCache()
        cache.sync(0)
        cache.put_centers(1, 0, Side.OUT, (4,))
        cache.get_centers(1, 0, Side.OUT)
        cache.sync(1)
        assert cache.entry_count == 0
        assert cache.hits == 1  # counters survive invalidation
        assert cache.get_centers(1, 0, Side.OUT) is None

    def test_clear_resets_counters_too(self):
        cache = CenterCache()
        cache.get_centers(1, 0, Side.OUT)
        cache.put_centers(1, 0, Side.OUT, ())
        cache.clear()
        assert cache.snapshot() == (0, 0, 0)
        assert cache.entry_count == 0

    def test_rebuild_join_index_invalidates_through_engine(self):
        engine = GraphEngine(figure1_graph())
        pattern = "A -> C, B -> C"
        first = engine.match(pattern)
        assert engine.center_cache.entry_count > 0
        generation = engine.db.index_generation
        engine.db.rebuild_join_index()
        assert engine.db.index_generation == generation + 1
        # next run syncs to the new generation: the warm cache is gone
        second = engine.match(pattern)
        assert second.rows == first.rows
        assert second.metrics.center_cache.hits == 0


class TestPairEpoch:
    """Centers keys embed the interning epoch (bounded-table regression).

    ``intern_label_pair`` recycles pair ids when its table hits
    ``PAIR_INTERN_LIMIT`` or when an index rebuild clears it; a cache
    entry keyed under an older epoch must become unreachable rather than
    serve centers for whatever pair the id now names.
    """

    def test_epoch_bump_orphans_centers_entries(self):
        cache = CenterCache()
        pair_id = kernels.intern_label_pair("epoch-a", "epoch-b")
        cache.put_centers(1, pair_id, Side.OUT, (4, 5))
        assert cache.get_centers(1, pair_id, Side.OUT) == (4, 5)
        kernels.clear_pair_ids()
        # same numeric id, new epoch: the old entry must not answer
        assert cache.get_centers(1, pair_id, Side.OUT) is None

    def test_sync_drops_entries_minted_under_old_epoch(self):
        cache = CenterCache()
        cache.sync(0)
        cache.put_centers(1, 0, Side.OUT, (4,))
        kernels.clear_pair_ids()
        cache.sync(0)  # same generation, new epoch
        assert cache.entry_count == 0

    def test_subcluster_entries_survive_epoch_bump(self):
        # subcluster keys are (node, label, side) — no pair ids, so an
        # epoch bump must not orphan them
        cache = CenterCache()
        cache.put_subcluster(1, "A", Side.OUT, (9,))
        kernels.clear_pair_ids()
        assert cache.get_subcluster(1, "A", Side.OUT) == (9,)

    def test_rebuild_join_index_recycles_pair_ids(self):
        engine = GraphEngine(figure1_graph())
        engine.match("A -> C, B -> C")  # warm + sync
        epoch = kernels.pair_epoch()
        engine.db.rebuild_join_index()
        # the next run's sync observes the generation bump and fires the
        # clear_pair_ids hook (routed through the cache layer)
        result = engine.match("A -> C, B -> C")
        assert kernels.pair_epoch() == epoch + 1
        assert result.metrics.center_cache.hits == 0


class TestRunMetricsSurface:
    def test_batch_run_reports_cache_stats(self):
        engine = GraphEngine(figure1_graph())
        result = engine.match("A -> C, B -> C")
        stats = result.metrics.center_cache
        assert stats is not None
        assert stats.misses > 0  # cold cache
        warm = engine.match("A -> C, B -> C")
        assert warm.metrics.center_cache.hits > 0
        assert 0.0 <= warm.metrics.center_cache.hit_rate <= 1.0

    def test_cold_match_bypasses_the_cache(self):
        """The accounting run is per-query cold: back-to-back runs can
        neither read nor warm the cross-query cache."""
        engine = GraphEngine(figure1_graph())
        for _ in range(2):
            result = accounting_run(engine, "A -> C, B -> C")
            assert result.metrics.center_cache is None
        assert engine.center_cache.entry_count == 0
        assert engine.center_cache.snapshot() == (0, 0, 0)

    def test_streaming_run_reports_cache_stats(self):
        engine = GraphEngine(figure1_graph())
        stream = engine.match_iter("A -> C, B -> C")
        list(stream)
        assert stream.metrics.center_cache is not None
        assert stream.metrics.center_cache.misses > 0

    def test_engine_cache_bytes_zero_disables_storage(self):
        engine = GraphEngine(figure1_graph(), cache_bytes=0)
        engine.match("A -> C, B -> C")
        assert engine.center_cache.entry_count == 0
        assert engine.center_cache.misses > 0

    def test_default_capacity(self):
        assert CenterCache().capacity_bytes == DEFAULT_CACHE_BYTES
