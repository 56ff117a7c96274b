"""Sorted-run kernels for the R-join hot path (Eqs. 6-9).

Every physical operator computes on *sorted int runs* — the one
representation the database's run surface hands out on both storage
tiers (tuples from the B+-tree tier, tuples and ``array('q')`` rows
decoded once from a snapshot):

* :func:`intersect` — sorted-array intersection, choosing between a
  linear merge and galloping (exponential/binary search) probes by the
  size ratio of the inputs.  This is the Eq. 6 kernel:
  ``getCenters(x, X, Y) = out(x) ∩ W(X, Y)`` with ``out(x)`` small and
  ``W(X, Y)`` potentially huge, exactly the asymmetric case galloping
  wins.
* :func:`gather_union` — the Fetch side (Eqs. 7-9): the deduplicated
  union of per-center subclusters, i.e. the Cartesian fetch for one
  centers column value, computed once per distinct value instead of
  once per row.
* :func:`union_sorted` / :func:`intersect_many` — the multiway
  (generic-join) extension set and its k-way intersection.

Every kernel follows ``set`` semantics (duplicates in the inputs are
tolerated and collapse in the output) and is property-tested against the
builtin ``set`` type in ``tests/test_kernels.py``; the frozenset
reference executor in ``tests/reference_executor.py`` is the semantic
oracle the operators built on these kernels must match row for row and
counter for counter (``tests/test_differential.py``).

Input representation: every kernel takes *sorted int sequences* and is
agnostic to their concrete type (tuples and ``array('q')`` both occur);
outputs are always freshly materialized arrays or tuples.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Iterable, List, Sequence, Tuple

#: typecode for all kernel arrays: signed 64-bit node/center ids
ARRAY_TYPECODE = "q"

#: switch from linear merge to galloping when one input is this many
#: times longer than the other (the classic timsort/Lucene threshold zone)
GALLOP_RATIO = 8

_EMPTY: "array[int]" = array(ARRAY_TYPECODE)


def as_sorted_array(values: Iterable[int]) -> "array[int]":
    """Sorted, deduplicated ``array('q')`` from any iterable of ints."""
    return array(ARRAY_TYPECODE, sorted(set(values)))


# ----------------------------------------------------------------------
# sorted-array intersection (the Eq. 6 kernel)
# ----------------------------------------------------------------------
def intersect_merge(a: Sequence[int], b: Sequence[int]) -> "array[int]":
    """Linear two-pointer merge intersection of two sorted sequences."""
    out = array(ARRAY_TYPECODE)
    append = out.append
    i, j = 0, 0
    len_a, len_b = len(a), len(b)
    while i < len_a and j < len_b:
        x, y = a[i], b[j]
        if x < y:
            i += 1
        elif y < x:
            j += 1
        else:
            if not out or out[-1] != x:  # collapse duplicate inputs
                append(x)
            i += 1
            j += 1
    return out


def intersect_gallop(small: Sequence[int], large: Sequence[int]) -> "array[int]":
    """Intersection by galloping the smaller input into the larger one.

    For each element of *small*, binary-search *large* from a moving
    lower bound — O(|small| · log |large|), the winning strategy when
    ``|large| >> |small|`` (a node's graph code against a W-array).
    """
    out = array(ARRAY_TYPECODE)
    append = out.append
    lo = 0
    hi = len(large)
    for x in small:
        lo = bisect_left(large, x, lo, hi)
        if lo == hi:
            break
        if large[lo] == x:
            if not out or out[-1] != x:
                append(x)
            lo += 1
    return out


def intersect(a: Sequence[int], b: Sequence[int]) -> "array[int]":
    """Set intersection of two sorted int sequences, as ``array('q')``.

    Dispatches between :func:`intersect_merge` and
    :func:`intersect_gallop` on the size ratio (``GALLOP_RATIO``).
    Accepts tuples and ``array('q')`` in any mix (emptiness, indexing
    and ``bisect`` behave identically on both); the result is always a
    fresh array regardless of input type.
    """
    if not a or not b:
        return _EMPTY
    len_a, len_b = len(a), len(b)
    if len_a > len_b:
        a, b, len_a, len_b = b, a, len_b, len_a
    if len_b >= len_a * GALLOP_RATIO:
        return intersect_gallop(a, b)
    return intersect_merge(a, b)


# ----------------------------------------------------------------------
# Cartesian fetch (Eqs. 7-9)
# ----------------------------------------------------------------------
def gather_union(
    partner_lists: Sequence[Sequence[int]],
) -> Tuple[Tuple[int, ...], int]:
    """Deduplicated union of per-center subclusters, plus the raw volume.

    Returns ``(partners, total)`` where *partners* — a tuple of bare
    ints, which Fetch feeds to ``zip`` as the new column — preserves
    first-seen order across the input lists (Algorithm 2's per-tuple
    dedup order) and *total* is the pre-dedup node count — the quantity
    charged into ``nodes_fetched``.
    """
    total = 0
    if len(partner_lists) == 1:
        only = partner_lists[0]
        total = len(only)
        # single center: subclusters are stored deduplicated and sorted
        return tuple(only), total
    seen: set = set()
    partners: List[int] = []
    append = partners.append
    add = seen.add
    for nodes in partner_lists:
        total += len(nodes)
        for node in nodes:
            if node not in seen:
                add(node)
                append(node)
    return tuple(partners), total


def union_sorted(
    partner_lists: Sequence[Sequence[int]],
) -> Tuple["array[int]", int]:
    """Sorted deduplicated union of sorted int sequences, plus raw volume.

    The multiway (generic-join) extension set: the union over a
    variable's centers of their labeled subclusters, returned *sorted*
    so it can feed :func:`intersect`/:func:`intersect_many` directly.
    ``total`` is the pre-dedup node count — the quantity charged into
    ``nodes_fetched`` (the same accounting as :func:`gather_union`).
    The output is always a fresh array.
    """
    if not partner_lists:
        return array(ARRAY_TYPECODE), 0
    if len(partner_lists) == 1:
        only = partner_lists[0]
        # single center: subclusters are stored deduplicated and sorted
        return array(ARRAY_TYPECODE, only), len(only)
    merged: set = set()
    total = 0
    for nodes in partner_lists:
        total += len(nodes)
        merged.update(nodes)
    return array(ARRAY_TYPECODE, sorted(merged)), total


def intersect_many(sets: Sequence[Sequence[int]]) -> "array[int]":
    """Intersection of several sorted int sequences (the leapfrog core).

    Folds :func:`intersect` smallest-first — the running result can only
    shrink, so starting from the smallest input bounds every pairwise
    step — with an early exit the moment it empties.  One input returns
    a fresh copy; zero inputs an empty array.
    """
    if not sets:
        return array(ARRAY_TYPECODE)
    ordered = sorted(sets, key=len)
    result = array(ARRAY_TYPECODE, ordered[0])
    for other in ordered[1:]:
        if not result:
            return result
        result = intersect(result, other)
    return result


__all__ = [
    "ARRAY_TYPECODE",
    "GALLOP_RATIO",
    "as_sorted_array",
    "gather_union",
    "intersect",
    "intersect_gallop",
    "intersect_many",
    "intersect_merge",
    "union_sorted",
]
