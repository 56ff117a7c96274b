"""Persist the offline phase: build once, reload across restarts.

The paper's indexes are built offline and only read online, so the one
operational question for a deployment is *how do I avoid rebuilding the
2-hop cover on every restart?*  Persist it — ``save_database`` writes a
binary snapshot (every offline structure in one CRC-checked file,
written atomically) and ``load_database`` maps it back with nothing
rebuilt.

A built database never changes: a new graph means a new build, a new
file and a new engine.

Run:  python examples/persistence.py
"""

import os
import tempfile
import time

from repro import GraphEngine, load_database, save_database, xmark


def main() -> None:
    data = xmark.generate(factor=0.3, entity_budget=1500, seed=7)
    graph = data.graph
    print(f"data graph: {graph.node_count} nodes, {graph.edge_count} edges")

    started = time.perf_counter()
    engine = GraphEngine(graph)
    build_seconds = time.perf_counter() - started
    print(f"offline build (2-hop + tables + index): {build_seconds:.2f}s")

    query = "person -> watch, watch -> open_auction"
    fresh = engine.match(query)

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "auctions.snap")
        save_database(engine.db, path)
        size_kb = os.path.getsize(path) / 1024
        print(f"\nsaved to {path} ({size_kb:.0f} KiB)")

        started = time.perf_counter()
        reloaded = GraphEngine.from_database(load_database(path))
        reload_seconds = time.perf_counter() - started
        print(f"reloaded in {reload_seconds:.3f}s "
              f"({build_seconds / reload_seconds:.1f}x faster than rebuild)")

        reheated = reloaded.match(query)
        assert fresh.as_set() == reheated.as_set()
        print(f"query agreement after reload: {len(fresh)} matches both ways")
        reloaded.db.snapshot.close()


if __name__ == "__main__":
    main()
