"""Authoring-time only: draw the two pattern pools and pin their answers.

    python3 benchmarks/e2e/make_pool.py        # ~10 min, writes pool.json

Patterns come from ``PatternFactory`` under a row-limit validator; every
pinned row count and digest comes from ``NaiveMatcher`` (backtracking
over BFS reachability), never from the engine the benchmark measures.
``run.py`` does not import this file.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import time

import pool as pins

repro = pins.import_repro()

from repro.workloads import PatternFactory, row_limit_validator  # noqa: E402

#: Figure-4 pool: label draw and the guard its patterns must run under
FIG4_SEED = 11
FIG4_ROW_LIMIT = 150_000

#: ad-hoc pool: shapes over 4-6 pattern nodes (edges over variable slots)
ADHOC_SHAPES = {
    "path4": ((0, 1), (1, 2), (2, 3)),
    "path5": ((0, 1), (1, 2), (2, 3), (3, 4)),
    "path6": ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5)),
    "star4": ((0, 1), (0, 2), (0, 3)),
    "tree4": ((0, 1), (0, 2), (1, 3)),
    "tree5": ((0, 1), (0, 2), (1, 3), (1, 4)),
    "tree6": ((0, 1), (0, 2), (1, 3), (1, 4), (2, 5)),
    "fan4": ((0, 2), (1, 2), (2, 3)),
    "fan5": ((0, 2), (1, 2), (2, 3), (2, 4)),
    "cycle-tail": ((0, 1), (0, 2), (1, 2), (2, 3)),
    "diamond": ((0, 1), (0, 2), (1, 3), (2, 3)),
    "cross": ((0, 1), (0, 2), (1, 3), (2, 3), (0, 3)),
    "double-diamond": ((0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4)),
    "clique4": ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)),
}
ADHOC_TARGET = 400
ADHOC_FIRST_SEED = 100
#: "selective": a non-empty full result of at most this many rows
ADHOC_MAX_ROWS = 5000


def shape_class(shape: str) -> str:
    if shape.startswith("path"):
        return "paths"
    if shape.startswith(("star", "tree")):
        return "trees"
    if shape.startswith("fan"):
        return "graphs"
    return "cyclic"


def draw_fig4(engine) -> list:
    factory = PatternFactory(
        engine.db.catalog, seed=FIG4_SEED,
        validator=row_limit_validator(engine, FIG4_ROW_LIMIT),
    )
    entries = []
    for cls, patterns in (
        ("paths", factory.figure4_paths()),
        ("trees", factory.figure4_trees()),
        ("graphs", factory.figure4_queries(4)),
        ("cyclic", {f"C-{k}": v for k, v in factory.cyclic_patterns().items()}),
    ):
        for name, pattern in patterns.items():
            entries.append({"name": name, "class": cls, "text": str(pattern)})
    return entries


def draw_adhoc(engine) -> list:
    entries, seen, seed = [], set(), ADHOC_FIRST_SEED
    while len(entries) < ADHOC_TARGET:
        factory = PatternFactory(
            engine.db.catalog, seed=seed, max_result_estimate=3000,
            validator=row_limit_validator(engine, 20_000),
        )
        seed += 1
        for shape, edges in ADHOC_SHAPES.items():
            try:
                text = str(factory.instantiate(edges))
            except ValueError:
                continue
            if text in seen:
                continue
            seen.add(text)
            if 1 <= len(engine.match(text, optimizer="dps")) <= ADHOC_MAX_ROWS:
                entries.append({
                    "name": f"a{len(entries):03d}", "class": shape_class(shape),
                    "shape": shape, "text": text,
                })
    return entries[:ADHOC_TARGET]


_MATCHERS: dict = {}


def oracle(job):
    """(dataset, text) -> (dataset, text, row count, row digest)."""
    dataset, text = job
    if dataset not in _MATCHERS:
        graph = repro.xmark.dataset(
            dataset, entity_budget=pins.ENTITY_BUDGET, seed=pins.DATA_SEED
        ).graph
        _MATCHERS[dataset] = repro.NaiveMatcher(graph)
    rows = _MATCHERS[dataset].match(repro.parse_pattern(text))
    return dataset, text, len(rows), pins.row_digest(rows)


def write_pool(document: dict) -> None:
    """One pattern per line, so a re-pin diffs pattern by pattern."""
    head = {k: v for k, v in document.items() if k not in ("fig4", "adhoc")}
    lines = [json.dumps(head, indent=1)[:-2]]
    for key in ("fig4", "adhoc"):
        entries = ",\n  ".join(json.dumps(e) for e in document[key])
        lines.append(f' "{key}": [\n  {entries}\n ]')
    with open(pins.POOL_PATH, "w") as handle:
        handle.write(",\n".join(lines) + "\n}\n")


def main() -> int:
    started = time.perf_counter()
    graphs = {
        name: repro.xmark.dataset(
            name, entity_budget=pins.ENTITY_BUDGET, seed=pins.DATA_SEED
        ).graph
        for name in pins.DATASETS
    }
    engine = repro.GraphEngine(graphs["XL"])
    fig4, adhoc = draw_fig4(engine), draw_adhoc(engine)
    print(f"drew {len(fig4)} figure-4 and {len(adhoc)} ad-hoc patterns "
          f"({time.perf_counter() - started:.0f}s); running the oracle")

    jobs = [(d, e["text"]) for d in pins.DATASETS for e in fig4]
    jobs += [("XL", e["text"]) for e in adhoc]
    # heaviest dataset first so the two workers finish together
    jobs.sort(key=lambda job: -pins.DATASETS.index(job[0]))
    answers = {}
    with multiprocessing.get_context("spawn").Pool(2) as workers:
        for done, (dataset, text, count, digest) in enumerate(
            workers.imap_unordered(oracle, jobs, chunksize=4), 1
        ):
            answers[dataset, text] = [count, digest]
            if done % 50 == 0:
                print(f"  {done}/{len(jobs)} "
                      f"({time.perf_counter() - started:.0f}s)", flush=True)

    for entry in fig4:
        entry["rows"] = {d: answers[d, entry["text"]] for d in pins.DATASETS}
    for entry in adhoc:
        entry["rows"] = {"XL": answers["XL", entry["text"]]}
    document = {
        "version": 1,
        "source": {
            "entity_budget": pins.ENTITY_BUDGET, "data_seed": pins.DATA_SEED,
            "fig4_seed": FIG4_SEED, "adhoc_first_seed": ADHOC_FIRST_SEED,
            "oracle": "repro.NaiveMatcher",
        },
        "graphs": {name: pins.graph_pin(g) for name, g in graphs.items()},
        "fig4": fig4,
        "adhoc": adhoc,
    }
    write_pool(document)
    print(f"wrote {pins.POOL_PATH} ({time.perf_counter() - started:.0f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
