"""Property tests for the sorted-run kernels.

Every kernel in :mod:`repro.query.physical.kernels` follows builtin
``set`` semantics; these tests pin that equivalence over randomized and
adversarial inputs (empty, duplicate-laden, one-sided, disjoint), check
that the merge and gallop intersection strategies agree with each other
regardless of the dispatch heuristic, and verify the bookkeeping helpers
(dedup order and pre-dedup totals in ``gather_union``, stable label-pair
interning).
"""

import random
from array import array

import pytest

from repro.query.physical import kernels
from repro.query.physical.kernels import (
    ARRAY_TYPECODE,
    GALLOP_RATIO,
    as_sorted_array,
    gather_union,
    intern_label_pair,
    intersect,
    intersect_gallop,
    intersect_merge,
)


def sorted_arr(values):
    return array(ARRAY_TYPECODE, sorted(values))


class TestIntersect:
    CASES = [
        ([], []),
        ([], [1, 2, 3]),
        ([1, 2, 3], []),
        ([1], [1]),
        ([1], [2]),
        ([1, 2, 3], [1, 2, 3]),
        ([1, 3, 5], [2, 4, 6]),
        ([1, 2, 3], [3]),
        ([0], list(range(1000))),
        (list(range(0, 100, 3)), list(range(0, 100, 7))),
        ([-5, -1, 0, 7], [-1, 7, 9]),
    ]

    @pytest.mark.parametrize("a,b", CASES)
    def test_matches_set_semantics(self, a, b):
        expected = sorted(set(a) & set(b))
        assert list(intersect(sorted_arr(a), sorted_arr(b))) == expected

    @pytest.mark.parametrize("a,b", CASES)
    def test_merge_and_gallop_agree(self, a, b):
        sa, sb = sorted_arr(a), sorted_arr(b)
        expected = sorted(set(a) & set(b))
        assert list(intersect_merge(sa, sb)) == expected
        assert list(intersect_gallop(sa, sb)) == expected
        assert list(intersect_gallop(sb, sa)) == expected

    def test_randomized_against_set(self):
        rng = random.Random(42)
        for _ in range(200):
            a = [rng.randrange(200) for _ in range(rng.randrange(40))]
            b = [rng.randrange(200) for _ in range(rng.randrange(400))]
            expected = sorted(set(a) & set(b))
            sa, sb = as_sorted_array(a), as_sorted_array(b)
            assert list(intersect(sa, sb)) == expected
            assert list(intersect_merge(sa, sb)) == expected
            assert list(intersect_gallop(sa, sb)) == expected

    def test_duplicate_inputs_collapse(self):
        # kernels tolerate duplicates in sorted (non-dedup) inputs
        a = sorted_arr([1, 1, 2, 2, 3])
        b = sorted_arr([2, 2, 3, 3, 4])
        assert list(intersect_merge(a, b)) == [2, 3]
        assert list(intersect_gallop(a, b)) == [2, 3]

    def test_one_sided_empty_is_cheap_empty(self):
        out = intersect(array(ARRAY_TYPECODE), sorted_arr([1, 2]))
        assert list(out) == []
        out = intersect(sorted_arr([1, 2]), array(ARRAY_TYPECODE))
        assert list(out) == []

    def test_dispatch_uses_gallop_for_asymmetric_inputs(self, monkeypatch):
        calls = []
        real = kernels.intersect_gallop
        monkeypatch.setattr(
            kernels,
            "intersect_gallop",
            lambda small, large: calls.append(1) or real(small, large),
        )
        small = sorted_arr([5])
        large = sorted_arr(range(GALLOP_RATIO * 2))
        assert list(kernels.intersect(small, large)) == [5]
        assert calls, "asymmetric inputs should take the galloping path"

    def test_result_type_is_q_array(self):
        out = intersect(sorted_arr([1, 2]), sorted_arr([2, 3]))
        assert isinstance(out, array) and out.typecode == ARRAY_TYPECODE


class TestAsSortedArray:
    def test_sorts_and_dedups(self):
        assert list(as_sorted_array([3, 1, 2, 3, 1])) == [1, 2, 3]

    def test_empty(self):
        assert list(as_sorted_array([])) == []


class TestGatherUnion:
    def test_single_list_is_identity_with_volume(self):
        partners, total = gather_union([(3, 1, 2)])
        assert partners == (3, 1, 2)
        assert total == 3

    def test_first_seen_order_preserved(self):
        partners, total = gather_union([(5, 1), (1, 7), (7, 5, 2)])
        assert partners == (5, 1, 7, 2)
        assert total == 7  # pre-dedup volume: 2 + 2 + 3

    def test_empty_lists(self):
        assert gather_union([(), (), ()]) == ((), 0)

    def test_matches_scalar_dedup(self):
        # per-center subclusters are stored deduplicated (sorted tuples);
        # duplicates only ever appear *across* centers, never within one
        rng = random.Random(7)
        for _ in range(100):
            lists = [
                tuple(rng.sample(range(30), rng.randrange(8)))
                for _ in range(rng.randrange(1, 5))
            ]
            partners, total = gather_union(lists)
            # scalar Fetch semantics: first-seen dedup, per-node charge
            seen, expected = set(), []
            for nodes in lists:
                for node in nodes:
                    if node not in seen:
                        seen.add(node)
                        expected.append(node)
            assert list(partners) == expected
            assert total == sum(len(nodes) for nodes in lists)


class TestInternLabelPair:
    def test_stable_and_distinct(self):
        a = intern_label_pair("item", "person")
        b = intern_label_pair("person", "item")
        assert a != b  # ordered pairs
        assert intern_label_pair("item", "person") == a

    def test_ids_are_ints(self):
        assert isinstance(intern_label_pair("x", "y"), int)

    def test_table_is_bounded_by_limit(self, monkeypatch):
        monkeypatch.setattr(kernels, "PAIR_INTERN_LIMIT", 8)
        kernels.clear_pair_ids()  # start from an empty table
        for i in range(100):
            intern_label_pair(f"left{i}", f"right{i}")
        assert len(kernels._PAIR_IDS) <= 8

    def test_cap_overflow_clears_and_bumps_epoch(self, monkeypatch):
        monkeypatch.setattr(kernels, "PAIR_INTERN_LIMIT", 3)
        kernels.clear_pair_ids()
        epoch = kernels.pair_epoch()
        first = intern_label_pair("p0", "q0")
        intern_label_pair("p1", "q1")
        intern_label_pair("p2", "q2")
        assert kernels.pair_epoch() == epoch  # under the cap: no clear
        # re-interning an existing pair never triggers the overflow path
        assert intern_label_pair("p0", "q0") == first
        assert kernels.pair_epoch() == epoch
        # a fourth distinct pair overflows: table cleared, epoch bumped,
        # and ids restart from zero (recycled)
        overflow = intern_label_pair("p3", "q3")
        assert kernels.pair_epoch() == epoch + 1
        assert overflow == 0
        assert len(kernels._PAIR_IDS) == 1

    def test_ids_recycle_across_epochs(self):
        kernels.clear_pair_ids()
        old = intern_label_pair("recycled", "pair")
        kernels.clear_pair_ids()
        # a *different* pair interned first in the new epoch may reuse
        # the old id — exactly why epoch-blind consumers are unsound
        other = intern_label_pair("another", "pair")
        assert other == old == 0
