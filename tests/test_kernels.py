"""Property tests for the sorted-run kernels.

Every kernel in :mod:`repro.query.physical.kernels` follows builtin
``set`` semantics; these tests pin that equivalence over randomized and
adversarial inputs (empty, duplicate-laden, one-sided, disjoint), check
that the merge and gallop intersection strategies agree with each other
regardless of the dispatch heuristic, and verify the bookkeeping helpers
(dedup order and pre-dedup totals in ``gather_union``).
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
