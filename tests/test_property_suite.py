"""Cross-cutting property tests (hypothesis) over the whole stack."""

import string

from hypothesis import assume, given, settings, strategies as st

from repro import GraphEngine
from repro.graph.generators import random_digraph
from repro.graph.traversal import reachable_set
from repro.query.parser import parse_pattern
from repro.query.pattern import GraphPattern
from repro.storage.buffer import BufferPool
from repro.storage.heapfile import HeapFile
from repro.storage.pages import DiskManager


# ----------------------------------------------------------------------
# storage: heap file behaves exactly like a Python list
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(), st.text(max_size=12)), max_size=80),
    page_size=st.sampled_from([64, 128, 512]),
    frames=st.integers(min_value=1, max_value=8),
)
def test_property_heapfile_is_a_list(rows, page_size, frames):
    pool = BufferPool(
        DiskManager(page_size=page_size), capacity_bytes=page_size * frames
    )
    heap = HeapFile(pool)
    rids = [heap.append(row) for row in rows]
    # full scan preserves order and content even with heavy eviction
    assert list(heap.records()) == rows
    # random access by rid returns the right record
    for rid, row in zip(rids, rows):
        assert heap.read(rid) == row
    assert len(heap) == len(rows)


@settings(max_examples=25, deadline=None)
@given(
    rows=st.lists(st.integers(), min_size=1, max_size=120),
    frames=st.integers(min_value=1, max_value=3),
)
def test_property_tiny_buffer_never_corrupts_data(rows, frames):
    """Even a 1-frame pool must persist every record through evictions."""
    page_size = 64
    pool = BufferPool(
        DiskManager(page_size=page_size), capacity_bytes=page_size * frames
    )
    heap = HeapFile(pool)
    for value in rows:
        heap.append((value,))
    assert [record[0] for record in heap.records()] == rows
    assert pool.resident_pages <= frames


# ----------------------------------------------------------------------
# parser round trip
# ----------------------------------------------------------------------
_var_names = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=4)


@st.composite
def connected_patterns(draw):
    k = draw(st.integers(min_value=2, max_value=5))
    names = [f"v{i}" for i in range(k)]
    labels = {
        name: draw(st.sampled_from(["A", "B", "C", "person", "item"]))
        for name in names
    }
    # spanning-tree edges guarantee connectivity; random extras on top
    edges = []
    for i in range(1, k):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        if draw(st.booleans()):
            edges.append((names[j], names[i]))
        else:
            edges.append((names[i], names[j]))
    extra = draw(st.lists(
        st.tuples(st.sampled_from(names), st.sampled_from(names)), max_size=3
    ))
    for src, dst in extra:
        if src != dst:
            edges.append((src, dst))
    return GraphPattern.build(labels, edges)


@settings(max_examples=60, deadline=None)
@given(pattern=connected_patterns())
def test_property_parser_roundtrip(pattern):
    """str(pattern) parses back to an equivalent pattern."""
    again = parse_pattern(str(pattern))
    assert set(again.conditions) == set(pattern.conditions)
    assert again.labels == pattern.labels


# ----------------------------------------------------------------------
# engine soundness/completeness independent of the naive matcher
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=18),
    density=st.floats(min_value=0.05, max_value=0.25),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_every_match_satisfies_every_condition(n, density, seed):
    g = random_digraph(n, density, seed=seed, alphabet="ABC")
    assume(all(g.extent(label) for label in "ABC"))
    engine = GraphEngine(g)
    pattern = parse_pattern("A -> B, B -> C")
    result = engine.match(pattern)
    closures = {u: reachable_set(g, u) for u in g.nodes()}
    # soundness: every emitted tuple satisfies both conditions + labels
    for a, b, c in result.rows:
        assert g.label(a) == "A" and g.label(b) == "B" and g.label(c) == "C"
        assert b in closures[a]
        assert c in closures[b]
    # no duplicates
    assert len(result.rows) == len(result.as_set())
    # completeness versus direct enumeration
    expected = {
        (a, b, c)
        for a in g.extent("A")
        for b in g.extent("B")
        if b in closures[a]
        for c in g.extent("C")
        if c in closures[b]
    }
    assert result.as_set() == expected
