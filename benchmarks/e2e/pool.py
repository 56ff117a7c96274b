"""The pinned pattern pools and the checks that hold results to them.

``pool.json`` (written once by ``make_pool.py``) pins, for every
pattern, its full row count and an order-independent digest of its rows
on every dataset it runs against, together with the node/edge counts and
SHA-256 of each generated data graph.  ``run.py`` compares what the
program returns against these pins and never imports the oracle that
produced them.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
from typing import Dict, Iterable, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
POOL_PATH = os.path.join(HERE, "pool.json")

#: the dataset ladder every committed BENCH_*.json already uses
ENTITY_BUDGET = 1500
DATA_SEED = 7
DATASETS = ("M", "L", "XL")


def import_repro():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else.

    An installed copy would measure some other tree; a checkout without
    ``src/`` cannot be measured at all — both end the run non-zero.
    """
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import repro

    origin = os.path.abspath(repro.__file__)
    if not origin.startswith(os.path.join(src, "")):
        raise SystemExit(
            f"repro was imported from {origin}, not from {src}; refusing to "
            "benchmark a tree other than this checkout"
        )
    return repro


def graph_pin(graph) -> Dict[str, object]:
    """Node/edge counts and the SHA-256 of the labels + edge list."""
    digest = hashlib.sha256()
    digest.update("\x00".join(graph.labels()).encode())
    for u, v in graph.edges():
        digest.update(b"%d>%d," % (u, v))
    return {
        "nodes": graph.node_count,
        "edges": graph.edge_count,
        "sha256": digest.hexdigest(),
    }


def row_digest(rows: Iterable[Sequence[int]]) -> str:
    """Order-independent digest of a result (rows in column order)."""
    digest = hashlib.sha256()
    for row in sorted(map(tuple, rows)):
        digest.update(",".join(map(str, row)).encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]


_VAR = re.compile(r"\bv(\d+)\b")


def rename_variables(text: str, prefix: str) -> str:
    """``v0 -> <prefix>v0``: same pattern, same column order, new text."""
    return _VAR.sub(prefix + r"v\1", text)


def load_pool() -> Tuple[dict, str]:
    """``pool.json`` and the SHA-256 of its bytes (the pool digest)."""
    with open(POOL_PATH, "rb") as handle:
        raw = handle.read()
    return json.loads(raw), hashlib.sha256(raw).hexdigest()


def generate_graphs(repro, pool: dict, names: Sequence[str]) -> Dict[str, object]:
    """The pinned datasets, or an abort when one differs from its pin."""
    graphs = {}
    for name in names:
        graph = repro.xmark.dataset(
            name, entity_budget=ENTITY_BUDGET, seed=DATA_SEED
        ).graph
        pin, got = pool["graphs"][name], graph_pin(graph)
        if got != pin:
            raise SystemExit(
                f"dataset {name} differs from the pin in pool.json "
                f"(pinned {pin}, generated {got}): the pinned row counts "
                "describe another graph; rerun make_pool.py"
            )
        graphs[name] = graph
    return graphs


def invalid_rows(repro, graph, text: str, rows: List[Sequence[int]]) -> int:
    """How many *rows* are not matches of *text* on *graph* (by BFS)."""
    pattern = repro.parse_pattern(text)
    position = {var: i for i, var in enumerate(pattern.variables)}
    labels = [pattern.label(var) for var in pattern.variables]
    edges = [(position[src], position[dst]) for src, dst in pattern.conditions]
    bad = 0
    for row in rows:
        ok = len(row) == len(labels) and all(
            graph.label(node) == label for node, label in zip(row, labels)
        ) and all(
            repro.is_reachable(graph, row[src], row[dst]) for src, dst in edges
        )
        bad += not ok
    return bad
