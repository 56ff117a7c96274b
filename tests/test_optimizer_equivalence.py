"""The bitmask plan searches against the frozenset search they replaced.

``tests/reference_optimizer.py`` is the optimizer as it stood before the
move onto integers.  Both make the same moves with the same cost
formulas in the same order, so over a broad pattern pool ``estimated_cost``
and ``estimated_rows`` must agree **bit for bit** (``==`` on floats, no
tolerance) for every optimizer; only the pick among equal-cost plans may
differ, and the new one's pick must not depend on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

from repro import GraphEngine, NaiveMatcher
from repro.analysis import check_plan, has_errors
from repro.graph import xmark
from repro.query import CostModel
from repro.query.engine import _OPTIMIZERS
from repro.query.pattern import GraphPattern
from repro.workloads.patterns import CYCLIC_SHAPES, PatternFactory

from reference_optimizer import REFERENCE_OPTIMIZERS

OPTIMIZERS = ("dp", "dps", "wcoj", "auto")
RANDOM_PATTERNS = 300


def random_shape(rng: random.Random):
    """A connected shape over 4-6 slots: a random spanning tree with
    random edge directions plus 0-2 closing edges (so about half the
    shapes are cyclic)."""
    k = rng.randint(4, 6)
    edges = []
    for node in range(1, k):
        other = rng.randrange(node)
        edges.append((other, node) if rng.random() < 0.7 else (node, other))
    for _ in range(rng.choice((0, 0, 1, 2))):
        a, b = rng.sample(range(k), 2)
        if (a, b) not in edges and (b, a) not in edges:
            edges.append((a, b))
    return tuple(edges)


@pytest.fixture(scope="module")
def engine():
    return GraphEngine(xmark.dataset("M", entity_budget=1500, seed=7).graph)


def build_pool(catalog):
    """Figure 4 + every cyclic shape + 300 seeded random patterns + the
    hand-made edge cases, by name."""
    factory = PatternFactory(catalog, seed=11)
    patterns = {}
    patterns.update(factory.figure4_paths())
    patterns.update(factory.figure4_trees())
    for size in (4, 5):  # both are named Q1-Q5
        for name, pattern in factory.figure4_queries(size).items():
            patterns[f"{name}/{size}"] = pattern
    patterns.update(factory.cyclic_patterns())
    rng = random.Random(20260929)
    factory = PatternFactory(catalog, seed=29, attempts=60)
    for index in range(RANDOM_PATTERNS):
        patterns[f"r{index:03d}"] = factory.instantiate(random_shape(rng))
    assert any(
        len(set(p.labels.values())) < p.node_count for p in patterns.values()
    ), "the pool should repeat a label inside one pattern"

    labels = sorted(label for label, size in catalog.extent_sizes.items() if size)
    patterns["single"] = GraphPattern.build({"x": labels[0]}, [])
    # a label pair with no W entry (join size 0 -> survival 0 -> the
    # Fetch expansion's division guard), hanging off a live condition
    x, y = next(
        (x, y) for x in labels for y in labels
        if x != y and catalog.join_size(x, y) == 0 and factory.predecessors[x]
    )
    patterns["no-w"] = GraphPattern.build(
        {"p": factory.predecessors[x][0], "x": x, "y": y},
        [("p", "x"), ("x", "y")],
    )
    return patterns


@pytest.fixture(scope="module")
def pool(engine):
    return build_pool(engine.db.catalog)


@pytest.mark.parametrize("optimizer", OPTIMIZERS)
def test_estimates_equal_the_reference_bit_for_bit(engine, pool, optimizer):
    assert len(pool) == 28 + len(CYCLIC_SHAPES) + RANDOM_PATTERNS + 2
    for name, pattern in pool.items():
        model = CostModel(engine.db.catalog, pattern, engine.cost_params)
        expected = REFERENCE_OPTIMIZERS[optimizer](pattern, model)
        got = _OPTIMIZERS[optimizer](pattern, model)
        assert got.estimated_cost == expected.estimated_cost, (name, optimizer)
        assert got.estimated_rows == expected.estimated_rows, (name, optimizer)
        # the static checker's catalog pass objects to an empty W entry,
        # which is the point of that one pattern
        db = None if name == "no-w" else engine.db
        assert not has_errors(check_plan(got.plan, db)), (name, optimizer)


def test_rows_equal_naive_on_a_seeded_sample(engine, pool):
    """The backtracking matcher takes minutes on the heavy patterns, so
    the sample is drawn from the 40 cheapest by estimated DPS cost (4-,
    5- and 6-variable patterns among them) plus the two edge cases."""
    naive = NaiveMatcher(engine.db.graph)
    cheapest = sorted(
        pool, key=lambda name: (engine.plan(pool[name]).estimated_cost, name)
    )[:40]
    names = random.Random(5).sample(cheapest, 24) + ["single", "no-w"]
    matched = 0
    for name in names:
        expected = naive.match_set(pool[name])
        matched += len(expected)
        for optimizer in OPTIMIZERS:
            result = engine.match(pool[name], optimizer=optimizer)
            assert result.as_set() == expected, (name, optimizer)
    assert matched > 1000  # not a sample of empty results


# ----------------------------------------------------------------------
# a plan is a function of (pattern, catalog), not of PYTHONHASHSEED
# ----------------------------------------------------------------------
_EXPLAIN_ALL = """
from repro import GraphEngine
from repro.graph import xmark
from repro.workloads.patterns import PatternFactory

engine = GraphEngine(xmark.generate(factor=0.1, entity_budget=600, seed=7).graph)
factory = PatternFactory(engine.db.catalog, seed=11)
patterns = {}
patterns.update(factory.figure4_paths())
patterns.update(factory.figure4_trees())
patterns.update(factory.figure4_queries(4))
patterns.update(factory.cyclic_patterns())
for name, pattern in patterns.items():
    for optimizer in ("dp", "dps", "auto"):
        print(name, engine.explain(pattern, optimizer=optimizer))
"""


def test_explain_is_byte_identical_across_hash_seeds():
    outputs = []
    for seed in ("0", "1", "2"):
        # the child imports repro from wherever this process found it
        env = dict(
            os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(sys.path)
        )
        done = subprocess.run(
            [sys.executable, "-c", _EXPLAIN_ALL],
            env=env, capture_output=True, timeout=300, check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0] and outputs[0] == outputs[1] == outputs[2]
