"""Tests for the engine-owned cross-query CenterCache.

Covers the LRU mechanics (eviction order, approximate byte bound), the
label-pair keying (one private cache per engine, ordered pairs), the
hit/miss/eviction counters and their per-run surfacing in
``RunMetrics.center_cache``, the ``capacity_bytes <= 0`` disabled
mode the ``--no-center-cache`` ablation uses, and the multiway kinds
(seed projections, extension sets): their keys, their byte charge, and
the counter replay that keeps rows and operator counters identical
whatever the cache holds.
"""

import pytest

from repro import DiGraph, GraphEngine
from repro.graph.generators import figure1_graph
from repro.query import execute_plan_streaming
from repro.query.algebra import MultiwaySeed, Side
from repro.query.physical.cache import (
    _ENTRY_OVERHEAD_BYTES,
    _INT_BYTES,
    CenterCache,
    DEFAULT_CACHE_BYTES,
)
from repro.workloads.runner import accounting_run

from reference_executor import op_counters


#: the (X, Y) label pair the unit cases key their centers entries on
PAIR = ("A", "C")


def entry_cost(n_ints: int) -> int:
    return _ENTRY_OVERHEAD_BYTES + _INT_BYTES * n_ints


class TestLRU:
    def test_get_put_roundtrip(self):
        cache = CenterCache()
        assert cache.get_centers(1, PAIR, Side.OUT) is None
        cache.put_centers(1, PAIR, Side.OUT, (4, 5))
        assert cache.get_centers(1, PAIR, Side.OUT) == (4, 5)

    def test_sides_and_kinds_do_not_collide(self):
        cache = CenterCache()
        cache.put_centers(1, PAIR, Side.OUT, (4,))
        assert cache.get_centers(1, PAIR, Side.IN) is None
        # subcluster keyspace is disjoint from the centers keyspace
        cache.put_subcluster(1, "A", Side.OUT, (9,))
        assert cache.get_centers(1, PAIR, Side.OUT) == (4,)
        assert cache.get_subcluster(1, "A", Side.OUT) == (9,)

    def test_eviction_is_least_recently_used(self):
        # room for exactly two empty-tuple entries
        cache = CenterCache(capacity_bytes=2 * entry_cost(0))
        cache.put_centers(1, PAIR, Side.OUT, ())
        cache.put_centers(2, PAIR, Side.OUT, ())
        cache.get_centers(1, PAIR, Side.OUT)  # touch 1 => 2 is now LRU
        cache.put_centers(3, PAIR, Side.OUT, ())
        assert cache.evictions == 1
        assert cache.get_centers(2, PAIR, Side.OUT) is None  # evicted
        assert cache.get_centers(1, PAIR, Side.OUT) == ()  # survived

    def test_byte_bound_holds(self):
        cache = CenterCache(capacity_bytes=10 * entry_cost(4))
        for node in range(100):
            cache.put_centers(node, PAIR, Side.OUT, (1, 2, 3, 4))
        assert cache.estimated_bytes <= cache.capacity_bytes
        assert cache.entry_count == 10
        assert cache.evictions == 90

    def test_oversized_entry_is_refused_not_thrashed(self):
        cache = CenterCache(capacity_bytes=entry_cost(2))
        cache.put_centers(1, PAIR, Side.OUT, (1,))
        cache.put_centers(2, PAIR, Side.OUT, tuple(range(1000)))  # too big
        assert cache.get_centers(1, PAIR, Side.OUT) == (1,)  # untouched
        assert cache.evictions == 0

    def test_counters(self):
        cache = CenterCache()
        cache.get_centers(1, PAIR, Side.OUT)
        cache.put_centers(1, PAIR, Side.OUT, ())
        cache.get_centers(1, PAIR, Side.OUT)
        assert cache.snapshot() == (1, 1, 0)
        assert cache.hit_rate == pytest.approx(0.5)

    def test_disabled_mode_counts_misses_stores_nothing(self):
        cache = CenterCache(capacity_bytes=0)
        cache.put_centers(1, PAIR, Side.OUT, (4,))
        assert cache.get_centers(1, PAIR, Side.OUT) is None
        assert cache.entry_count == 0
        assert cache.misses == 1


class TestInvalidation:
    def test_clear_resets_counters_too(self):
        cache = CenterCache()
        cache.get_centers(1, PAIR, Side.OUT)
        cache.put_centers(1, PAIR, Side.OUT, ())
        cache.clear()
        assert cache.snapshot() == (0, 0, 0)
        assert cache.entry_count == 0


class TestPairKeys:
    """Centers entries are keyed on the ``(X, Y)`` label pair itself and
    every engine owns a private cache, so no process-global id table (and
    no epoch to keep it honest) stands between a key and its meaning."""

    def test_ordered_pairs_do_not_collide(self):
        cache = CenterCache()
        cache.put_centers(1, ("A", "C"), Side.OUT, (4,))
        assert cache.get_centers(1, ("C", "A"), Side.OUT) is None
        cache.put_centers(1, ("C", "A"), Side.OUT, (7,))
        assert cache.get_centers(1, ("A", "C"), Side.OUT) == (4,)
        assert cache.get_centers(1, ("C", "A"), Side.OUT) == (7,)

    def test_engines_over_different_vocabularies_stay_apart(self):
        """Same node ids, disjoint label vocabularies, interleaved runs:
        each engine's warm pass hits only what its own cold pass stored,
        and its rows never change."""
        def chain(labels):
            graph = DiGraph()
            nodes = graph.add_nodes(labels)
            graph.add_edges(zip(nodes, nodes[1:]))
            return graph

        first = GraphEngine(chain(["A", "B", "C", "B"]))
        second = GraphEngine(chain(["P", "Q", "Q", "R"]))
        assert first.center_cache is not second.center_cache
        cold_first = first.match("A -> B, B -> C")
        cold_second = second.match("P -> Q, Q -> R")
        assert cold_first.metrics.center_cache.hits == 0
        assert cold_second.metrics.center_cache.hits == 0  # nothing leaked in
        entries = first.center_cache.entry_count
        warm_second = second.match("P -> Q, Q -> R")
        warm_first = first.match("A -> B, B -> C")
        assert first.center_cache.entry_count == entries
        assert warm_first.metrics.center_cache.misses == 0
        assert warm_second.metrics.center_cache.misses == 0
        assert warm_first.rows == cold_first.rows
        assert warm_second.rows == cold_second.rows


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


class TestMultiwayKinds:
    """Seed projections ``((X, Y), side)`` and extension sets ``(node,
    (X, Y), side)`` hold ``(nodes, centers, volume)``; the ledger charges
    every node int plus the two counts."""

    def test_keys_do_not_collide(self):
        cache = CenterCache()
        cache.put_centers(1, PAIR, Side.OUT, (4,))
        cache.put_subcluster(1, "A", Side.OUT, (7,))
        cache.put_extensions(1, PAIR, Side.OUT, ((9,), 1, 1))
        cache.put_projection(PAIR, Side.OUT, ((5, 6), 2, 3))
        assert cache.get_centers(1, PAIR, Side.OUT) == (4,)
        assert cache.get_subcluster(1, "A", Side.OUT) == (7,)
        assert cache.get_extensions(1, PAIR, Side.OUT) == ((9,), 1, 1)
        assert cache.get_projection(PAIR, Side.OUT) == ((5, 6), 2, 3)
        # the other side, the reversed pair and another node are misses
        assert cache.get_extensions(1, PAIR, Side.IN) is None
        assert cache.get_extensions(2, PAIR, Side.OUT) is None
        assert cache.get_projection(PAIR, Side.IN) is None
        assert cache.get_projection(("C", "A"), Side.OUT) is None
        assert cache.entry_count == 4

    def test_ledger_charges_nodes_plus_both_counts(self):
        cache = CenterCache()
        cache.put_projection(PAIR, Side.OUT, ((5, 6, 7), 2, 9))
        assert cache.estimated_bytes == entry_cost(3 + 2)
        cache.put_extensions(1, PAIR, Side.IN, ((), 0, 0))
        cache.put_centers(1, PAIR, Side.IN, (3, 4))
        assert cache.estimated_bytes == entry_cost(5) + entry_cost(2) + entry_cost(2)
        assert cache.check_ledger() == []

    def test_eviction_refunds_the_exact_charge(self):
        cache = CenterCache(capacity_bytes=entry_cost(6))
        cache.put_extensions(1, PAIR, Side.OUT, ((1, 2, 3, 4), 2, 5))
        cache.put_projection(PAIR, Side.OUT, ((8,), 1, 1))  # evicts the first
        assert cache.evictions == 1
        assert cache.estimated_bytes == entry_cost(3)
        assert cache.check_ledger() == []

    def test_oversized_projection_is_refused_not_thrashed(self):
        cache = CenterCache(capacity_bytes=entry_cost(3))
        cache.put_centers(1, PAIR, Side.OUT, (1,))
        # two nodes plus two counts: one int over the whole budget
        cache.put_projection(PAIR, Side.OUT, ((5, 6), 2, 2))
        assert cache.get_projection(PAIR, Side.OUT) is None
        assert cache.get_centers(1, PAIR, Side.OUT) == (1,)  # untouched
        assert cache.evictions == 0
        assert cache.check_ledger() == []


#: row limits the replay runs under (None = the full answer)
LIMITS = (None, 1, 5, 20)
#: a budget of ~10 small entries: the multiway runs evict mid-query
EVICTING_BYTES = 2 << 10


@pytest.fixture(scope="module")
def multiway_patterns(figure4_workload, cyclic_workload):
    """Every cyclic Figure-4 pattern plus every ``CYCLIC_SHAPES`` entry."""
    patterns = {
        name: pattern for name, pattern in figure4_workload.items()
        if pattern.edge_count > pattern.node_count - 1
    }
    patterns.update(cyclic_workload)
    return patterns


class TestMultiwayReplay:
    """A cached projection or extension set replays the counters of the
    expansion it skips: rows (in order) and every operator's four
    counters are the same on a fresh engine, on that engine's warm second
    run, with storage disabled, under a budget that evicts mid-query and
    without any cache at all (the accounting run for full answers, a
    cache-less stream under a limit)."""

    @pytest.mark.parametrize("limit", LIMITS)
    def test_rows_and_counters_do_not_depend_on_the_cache(
        self, xmark_engine, multiway_patterns, limit
    ):
        db = xmark_engine.db
        disabled = GraphEngine.from_database(db, cache_bytes=0)
        evicting = GraphEngine.from_database(db, cache_bytes=EVICTING_BYTES)
        for name, pattern in multiway_patterns.items():
            fresh = GraphEngine.from_database(db)
            plan = fresh.plan(pattern, optimizer="auto").plan
            assert isinstance(plan.steps[0], MultiwaySeed), name

            def run(engine):
                result = engine.match(pattern, optimizer="auto", limit=limit)
                assert engine.center_cache.check_ledger() == [], name
                return result.rows, op_counters(result.metrics)

            expected = run(fresh)
            warm_misses = fresh.center_cache.misses
            assert run(fresh) == expected, f"{name}: warm run"
            assert fresh.center_cache.misses == warm_misses, name  # all hits
            # what the cache hands out is a tuple no consumer can mutate
            for condition, side in plan.steps[0].constraints:
                labels = pattern.condition_labels(condition)
                stored = fresh.center_cache.get_projection(labels, side)
                assert stored is None or type(stored[0]) is tuple, name
            assert run(disabled) == expected, f"{name}: cache_bytes=0"
            assert run(evicting) == expected, f"{name}: evicting cache"
            if limit is None:
                cold = accounting_run(fresh, pattern, optimizer="auto")
                cold_rows = cold.rows
            else:
                cold = execute_plan_streaming(db, plan, limit=limit)
                cold_rows = list(cold)
            assert cold.metrics.center_cache is None
            assert (cold_rows, op_counters(cold.metrics)) == expected, name
        assert disabled.center_cache.entry_count == 0
        assert evicting.center_cache.evictions > 0
