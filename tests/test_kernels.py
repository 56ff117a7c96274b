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
    intersect_many,
    intersect_merge,
    union_sorted,
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


def pairwise_kernels():
    """Every way the package intersects two sorted runs."""
    return {
        "intersect": intersect,
        "merge": intersect_merge,
        "gallop": intersect_gallop,
        "many": lambda a, b: intersect_many([a, b]),
    }


class TestSurvivingPaths:
    """Each intersection kernel against ``sorted(set(a) & set(b))`` on the
    inputs that pick its paths: comparable sizes (the C set path), skewed
    sizes (galloping), a one-element side, mixed tuple / ``array('q')``
    inputs and duplicates."""

    SHAPES = {
        "comparable": (list(range(0, 60, 2)), list(range(0, 60, 3))),
        "skewed": (
            [3, 40, 41, 99],
            list(range(0, 4 * GALLOP_RATIO * 10, 3)),
        ),
        "one-element-hit": ([42], list(range(0, 100, 2))),
        "one-element-miss": ([43], list(range(0, 100, 2))),
        "one-element-both": ([7], [7]),
        "duplicates": ([1, 1, 2, 5, 5, 5, 9], [1, 5, 5, 6, 9, 9]),
        "skewed-duplicates": ([4, 4, 8], sorted(list(range(0, 200, 4)) * 2)),
    }
    WRAPPERS = {
        "tuple": tuple,
        "array": lambda values: array(ARRAY_TYPECODE, values),
    }

    @pytest.mark.parametrize("kernel", ["intersect", "merge", "gallop", "many"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_set_semantics(self, kernel, shape):
        a, b = self.SHAPES[shape]
        expected = sorted(set(a) & set(b))
        run = pairwise_kernels()[kernel]
        for wrap_a in self.WRAPPERS.values():
            for wrap_b in self.WRAPPERS.values():
                wa, wb = wrap_a(a), wrap_b(b)
                assert list(run(wa, wb)) == expected
                if kernel != "gallop":  # gallop's first argument is the small side
                    assert list(run(wb, wa)) == expected

    def test_skewed_shape_is_past_the_gallop_ratio(self):
        a, b = self.SHAPES["skewed"]
        assert len(b) >= len(a) * GALLOP_RATIO
        a, b = self.SHAPES["comparable"]
        assert max(len(a), len(b)) < min(len(a), len(b)) * GALLOP_RATIO


class TestIntersectMany:
    def test_no_inputs(self):
        assert intersect_many([]) == ()

    def test_one_tuple_comes_back_as_it_is(self):
        run = (1, 4, 9)
        assert intersect_many([run]) is run

    def test_one_array_becomes_a_tuple(self):
        assert intersect_many([array(ARRAY_TYPECODE, [2, 3])]) == (2, 3)

    def test_two_and_three_inputs_match_set_semantics(self):
        rng = random.Random(11)
        for _ in range(200):
            count = rng.choice((2, 3))
            inputs = [
                sorted(rng.sample(range(60), rng.randrange(1, 40)))
                for _ in range(count)
            ]
            expected = tuple(sorted(set.intersection(*map(set, inputs))))
            mixed = [
                tuple(run) if i % 2 else array(ARRAY_TYPECODE, run)
                for i, run in enumerate(inputs)
            ]
            out = intersect_many(mixed)
            assert out == expected and isinstance(out, tuple)

    def test_an_input_that_empties_the_result_stops_the_fold(self, monkeypatch):
        calls = []
        real = kernels._intersect
        monkeypatch.setattr(
            kernels, "_intersect", lambda a, b: calls.append(1) or real(a, b)
        )
        disjoint = [(1, 2), (3, 4, 5), tuple(range(0, 100))]
        assert intersect_many(disjoint) == ()
        assert len(calls) == 1, "the fold must stop once the result is empty"
        assert intersect_many([(), (1, 2), (1, 2, 3)]) == ()
        assert len(calls) == 1, "an empty input needs no intersection at all"


class TestUnionSorted:
    def test_sorted_dedup_tuple_and_volume(self):
        assert union_sorted([(5, 9), (1, 5), (9, 12)]) == ((1, 5, 9, 12), 6)

    def test_one_tuple_comes_back_as_it_is(self):
        run = (2, 3, 8)
        nodes, volume = union_sorted([run])
        assert nodes is run and volume == 3

    def test_no_lists(self):
        assert union_sorted([]) == ((), 0)


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
