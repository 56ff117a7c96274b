"""White-box tests for the IGMJ merge join and list machinery."""

from repro.baselines.igmj import IGMJEngine, _merge_join
from repro.graph.digraph import DiGraph
from repro.graph.generators import random_dag


class TestMergeJoin:
    def run_merge(self, xlist, ylist):
        out = []
        _merge_join(xlist, ylist, lambda x, y: out.append((x, y)))
        return out

    def test_empty_inputs(self):
        assert self.run_merge([], []) == []
        assert self.run_merge([(0, 5, "x")], []) == []
        assert self.run_merge([], [(3, "y")]) == []

    def test_single_stab(self):
        out = self.run_merge([(1, 5, "x")], [(3, "y")])
        assert out == [("x", "y")]

    def test_point_outside_interval(self):
        assert self.run_merge([(1, 5, "x")], [(7, "y")]) == []
        assert self.run_merge([(3, 5, "x")], [(2, "y")]) == []

    def test_interval_boundaries_inclusive(self):
        out = self.run_merge([(2, 4, "x")], [(2, "lo"), (4, "hi")])
        assert out == [("x", "lo"), ("x", "hi")]

    def test_multiple_active_intervals(self):
        xlist = sorted([(0, 10, "a"), (2, 4, "b"), (3, 8, "c")],
                       key=lambda e: (e[0], -e[1]))
        out = self.run_merge(xlist, [(3, "p")])
        assert sorted(x for x, _ in out) == ["a", "b", "c"]

    def test_expired_intervals_are_dropped(self):
        xlist = sorted([(0, 2, "a"), (0, 10, "b")], key=lambda e: (e[0], -e[1]))
        out = self.run_merge(xlist, [(1, "p"), (5, "q")])
        assert ("a", "p") in out and ("b", "p") in out
        assert ("a", "q") not in out and ("b", "q") in out

    def test_matches_brute_force(self):
        import random

        rng = random.Random(3)
        intervals = []
        for i in range(40):
            lo = rng.randint(0, 50)
            hi = lo + rng.randint(0, 10)
            intervals.append((lo, hi, i))
        points = [(rng.randint(0, 60), 100 + j) for j in range(30)]
        points.sort()
        expected = {
            (i, p)
            for lo, hi, i in intervals
            for post, p in points
            if lo <= post <= hi
        }
        xlist = sorted(intervals, key=lambda e: (e[0], -e[1]))
        got = set(self.run_merge(xlist, points))
        assert got == expected


class TestBaseLists:
    def test_xlist_sorted_by_lo_then_desc_hi(self):
        g = random_dag(30, 0.15, seed=2)
        engine = IGMJEngine(g)
        for label in g.alphabet():
            xlist = engine._base_xlist(label)
            keys = [(lo, -hi) for lo, hi, _ in xlist]
            assert keys == sorted(keys)

    def test_ylist_sorted_by_post(self):
        g = random_dag(30, 0.15, seed=2)
        engine = IGMJEngine(g)
        for label in g.alphabet():
            ylist = engine._base_ylist(label)
            posts = [p for p, _ in ylist]
            assert posts == sorted(posts)

    def test_base_lists_charged_io(self):
        g = random_dag(60, 0.1, seed=4)
        engine = IGMJEngine(g)
        engine.stats.reset()
        engine._base_xlist(g.alphabet()[0])
        assert engine.stats.logical_reads > 0

    def test_scc_members_emit_pairs(self):
        # cyclic pair A <-> B: both reach each other
        g = DiGraph()
        a = g.add_node("A")
        b = g.add_node("B")
        g.add_edge(a, b)
        g.add_edge(b, a)
        engine = IGMJEngine(g)
        assert engine.pair_count("A", "B") == 1
        assert engine.pair_count("B", "A") == 1
