"""Command-line interface: build, persist, query and inspect graph databases.

Usage (also via ``python -m repro``)::

    repro build --factor 0.2 --out auctions.snap         # offline phase
    repro stats auctions.snap                            # Table 2-style row
    repro stats auctions.snap --storage                  # + section table
    repro query auctions.snap "person -> watch, watch -> open_auction"
    repro query auctions.snap "A -> B" --explain --optimizer dp
    repro query auctions.snap "A -> B" --limit 5         # streamed probe
    repro check auctions.snap --pattern "A -> B"         # static verification
    repro serve auctions.snap --port 7437                # always-on service

Every database file is a binary snapshot (:mod:`repro.storage.snapshot`).

The CLI wraps the library's public API one-to-one; anything it prints can
be reproduced programmatically with :class:`repro.GraphEngine`.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import deque
from itertools import islice
from typing import Callable, List, Optional, TypeVar

from . import xmark
from .db.persist import load_database, save_database
from .query.algebra import RowLimitExceeded
from .query.engine import AUTO_DP_LIMIT, GraphEngine
from .query.pattern import PatternError
from .storage.snapshot import SNAPSHOT_VERSION, SnapshotError

T = TypeVar("T")


class _UsageError(Exception):
    """A user error: :func:`main` prints ``repro <cmd>: error: <message>``
    as one line and exits 2."""


def _load(path: str, read: Callable[[str], T]) -> T:
    """``read(path)`` (:func:`load_database`, or the snapshot audit) with
    a file that cannot be opened, or is no readable snapshot, as a usage
    error."""
    try:
        return read(path)
    except (OSError, SnapshotError) as err:
        reason = (err.strerror if isinstance(err, OSError) else None) or err
        raise _UsageError(f"cannot load {path}: {reason}") from None


def _cmd_build(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.nodes or args.edges:
        if not (args.nodes and args.edges):
            raise _UsageError("--nodes and --edges must be given together")
        from .graph.io import load_edge_list

        graph = load_edge_list(args.nodes, args.edges)
        print(f"loaded graph from {args.nodes} + {args.edges}: "
              f"{graph.node_count} nodes, {graph.edge_count} edges, "
              f"{len(graph.alphabet())} labels")
    else:
        if args.dataset:
            data = xmark.dataset(
                args.dataset, entity_budget=args.budget, seed=args.seed
            )
        else:
            data = xmark.generate(
                factor=args.factor, entity_budget=args.budget, seed=args.seed
            )
        graph = data.graph
        print(f"generated XMark-like graph: {graph.node_count} nodes, "
              f"{graph.edge_count} edges, {len(graph.alphabet())} labels")
    engine = GraphEngine(graph)
    summary = engine.stats_summary()
    print(f"2-hop cover: |H|={summary['cover_size']} "
          f"(|H|/|V|={summary['cover_ratio']:.3f})")
    save_database(engine.db, args.out)
    print(f"saved database to {args.out} "
          f"({time.perf_counter() - started:.2f}s total)")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    db = _load(args.database, load_database)
    print(f"opened {args.database} in "
          f"{(time.perf_counter() - started) * 1e3:.1f} ms")
    engine = GraphEngine.from_database(db)
    snapshot = db.snapshot_handle
    summary = engine.stats_summary()
    print(f"{'nodes':>12}: {summary['nodes']}")
    print(f"{'edges':>12}: {summary['edges']}")
    print(f"{'|H|':>12}: {summary['cover_size']}")
    print(f"{'|H|/|V|':>12}: {summary['cover_ratio']:.3f}")
    print(f"{'centers':>12}: {summary['centers']}")
    print(f"{'labels':>12}: {len(db.labels())}")
    print(f"{'W pairs':>12}: {snapshot.wtable_pair_count}")
    print(f"{'sub runs':>12}: {snapshot.subcluster_runs}")
    if args.labels:
        print("\nextent sizes:")
        for label in db.labels():
            print(f"  {label:>20}: {db.catalog.extent_size(label)}")
    if args.storage:
        print(f"\nsection table (snapshot v{SNAPSHOT_VERSION}, "
              f"{snapshot.file_size()} bytes):")
        print(f"  {'name':<12} {'offset':>10} {'bytes':>10}")
        for name, offset, length in snapshot.section_table():
            print(f"  {name:<12} {offset:>10} {length:>10}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from .query import DEFAULT_CACHE_BYTES

    if args.head < 0:
        raise _UsageError("--head must be >= 0")
    engine = GraphEngine.from_database(
        _load(args.database, load_database),
        cache_bytes=0 if args.no_center_cache else DEFAULT_CACHE_BYTES,
    )
    try:
        if args.explain:
            print(engine.explain(
                args.pattern, optimizer=args.optimizer, limit=args.limit,
            ))
            return 0
        stream = engine.match_iter(
            args.pattern, optimizer=args.optimizer, limit=args.limit,
            row_limit=args.row_limit,
        )
        # rows are printed as they arrive and the rest only counted, so
        # no answer is ever held whole
        if args.limit is None:
            print("\t".join(stream.columns))
        shown = stream if args.all or args.limit is not None else islice(
            stream, args.head
        )
        for row in shown:
            print("\t".join(str(v) for v in row))
        deque(stream, maxlen=0)
    except RowLimitExceeded as err:  # the guard tripped: a query outcome
        print(f"repro query: {err}", file=sys.stderr)
        return 1
    except (PatternError, KeyError, ValueError) as err:  # a usage error
        message = err.args[0] if isinstance(err, KeyError) and err.args else err
        raise _UsageError(message) from None
    metrics = stream.metrics
    count = metrics.result_rows
    if args.limit is not None:
        print(f"-- {count} row(s) (limit {args.limit}, streamed)",
              file=sys.stderr)
        return 0
    if not args.all and count > args.head:
        print(f"... ({count - args.head} more rows; use --all)",
              file=sys.stderr)
    print(
        f"-- {count} row(s) in {metrics.elapsed_seconds * 1e3:.1f} ms, "
        f"{metrics.physical_io} physical / {metrics.logical_io} logical page I/O",
        file=sys.stderr,
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .query import DEFAULT_CACHE_BYTES
    from .service import QueryService, ServiceConfig

    engine = GraphEngine.from_database(
        _load(args.database, load_database),
        cache_bytes=0 if args.no_center_cache else DEFAULT_CACHE_BYTES,
    )
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        queue_depth=args.queue_depth,
        default_timeout_s=(
            args.default_timeout_ms / 1000.0
            if args.default_timeout_ms is not None else None
        ),
        max_result_rows=args.max_result_rows,
    )
    try:
        service = QueryService(engine, config)
    except ValueError as err:  # an out-of-range flag: a usage error
        raise _UsageError(err) from None

    async def run() -> None:
        # SIGTERM and SIGINT share one path: stop() bounces queued work,
        # finishes in-flight queries and closes every connection
        stopping = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stopping.set)
        try:
            host, port = await service.start()
            print(f"serving {args.database} on {host}:{port} "
                  f"(max_inflight={config.max_inflight}, "
                  f"queue_depth={config.queue_depth})",
                  flush=True)
            await stopping.wait()
            print("shutting down", file=sys.stderr)
        finally:
            await service.stop()

    asyncio.run(run())
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .analysis import (
        audit_database,
        audit_snapshot,
        check_plan,
        errors,
        format_report,
        has_errors,
    )

    if args.sample_rows < 0:
        raise _UsageError("--sample-rows must be >= 0")

    all_diags = []

    def section(title: str, diagnostics) -> None:
        all_diags.extend(diagnostics)
        print(f"== {title} ==")
        print(format_report(diagnostics) if diagnostics else "ok")

    def tally() -> int:
        error_count = len(errors(all_diags))
        warning_count = len(all_diags) - error_count
        print(f"-- {error_count} error(s), {warning_count} warning(s)",
              file=sys.stderr)
        return 1 if error_count else 0

    # file-level checks first: CRC/geometry plus the decoded-column
    # invariants the lazy read path assumes (offline, no database)
    snapshot_diags = _load(args.database, audit_snapshot)
    section(f"snapshotaudit {args.database}", snapshot_diags)
    if has_errors(snapshot_diags):
        # an unreadable or inconsistent file cannot back the
        # database-level passes; report what was found and stop
        return tally()
    engine = GraphEngine.from_database(_load(args.database, load_database))
    section(
        f"indexaudit {args.database}",
        audit_database(
            engine.db,
            exact_threshold=args.exact_threshold,
            sample_rows=args.sample_rows,
            seed=args.seed,
        ),
    )
    optimizers = ("dp", "dps", "wcoj") if args.optimizer == "all" else (args.optimizer,)
    for text in args.patterns or ():
        for optimizer in optimizers:
            plan = engine.plan(text, optimizer=optimizer).plan
            section(
                f"plancheck [{optimizer}] {text!r}",
                check_plan(plan, db=engine.db, source=f"plan[{optimizer}]"),
            )
    return tally()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fast Graph Pattern Matching (ICDE 2008) — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="generate data + build + save a database")
    p_build.add_argument("--factor", type=float, default=0.2,
                         help="XMark scaling factor (default 0.2)")
    p_build.add_argument("--dataset", choices=sorted(xmark.DATASET_FACTORS),
                         help="use a named dataset of the benchmark ladder instead")
    p_build.add_argument("--budget", type=int, default=1500,
                         help="entity budget at factor 1.0 (default 1500)")
    p_build.add_argument("--seed", type=int, default=7)
    p_build.add_argument("--nodes", help="load a custom graph: nodes TSV (id<TAB>label)")
    p_build.add_argument("--edges", help="load a custom graph: edges TSV (src<TAB>dst)")
    p_build.add_argument("--out", required=True,
                         help="output path of the binary snapshot")
    p_build.set_defaults(func=_cmd_build)

    p_stats = sub.add_parser("stats", help="show a saved database's statistics")
    p_stats.add_argument("database")
    p_stats.add_argument("--labels", action="store_true",
                         help="also list per-label extent sizes")
    p_stats.add_argument("--storage", action="store_true",
                         help="also show the snapshot's section table")
    p_stats.set_defaults(func=_cmd_stats)

    p_query = sub.add_parser("query", help="match a pattern against a database")
    p_query.add_argument("database")
    p_query.add_argument("pattern", help='e.g. "A -> B, B -> C" or "x:A -> y:B"')
    p_query.add_argument("--optimizer",
                         choices=("dp", "dps", "wcoj", "auto"),
                         default="auto",
                         help="plan family: left-deep dp/dps, "
                              "multiway wcoj, or auto (cyclic join graph "
                              "-> wcoj; acyclic with --limit <= "
                              f"{AUTO_DP_LIMIT} -> dp; else dps; default)")
    p_query.add_argument("--explain", action="store_true",
                         help="print the plan instead of executing")
    p_query.add_argument("--limit", type=int, default=None,
                         help="stream at most N rows (pipelined execution)")
    p_query.add_argument("--row-limit", type=int, default=None,
                         help="abort if any intermediate exceeds N rows "
                              "(execution guard, either executor)")
    p_query.add_argument("--no-center-cache", action="store_true",
                         help="disable the cross-query center/subcluster "
                              "cache (ablation)")
    p_query.add_argument("--head", type=int, default=20,
                         help="rows to print without --all (default 20)")
    p_query.add_argument("--all", action="store_true", help="print every row")
    p_query.set_defaults(func=_cmd_query)

    p_serve = sub.add_parser(
        "serve",
        help="always-on query service: share one engine across concurrent "
             "clients (line-delimited JSON over TCP)",
    )
    p_serve.add_argument("database", help="saved database (a .snap file)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7437,
                         help="TCP port (0 = ephemeral; default 7437)")
    p_serve.add_argument("--max-inflight", type=int, default=2,
                         help="concurrent query slots (default 2)")
    p_serve.add_argument("--queue-depth", type=int, default=16,
                         help="admission queue depth; arrivals beyond it "
                              "are shed with an 'overloaded' reject "
                              "(default 16)")
    p_serve.add_argument("--default-timeout-ms", type=float, default=None,
                         help="deadline for queries that carry no "
                              "timeout_ms (default: none)")
    p_serve.add_argument("--max-result-rows", type=int, default=1_000_000,
                         help="hard cap on rows returned per query")
    p_serve.add_argument("--no-center-cache", action="store_true",
                         help="disable the cross-query center/subcluster "
                              "cache (ablation)")
    p_serve.set_defaults(func=_cmd_serve)

    p_check = sub.add_parser(
        "check",
        help="static verification of a saved database: snapshot audit, "
             "index audit, plan checks",
    )
    p_check.add_argument("database",
                         help="saved database to audit (cover, W-table, B+-trees)")
    p_check.add_argument("--pattern", dest="patterns", action="append",
                         metavar="PATTERN",
                         help="also plancheck the optimizers' plans for this "
                              "pattern (repeatable)")
    p_check.add_argument("--optimizer",
                         choices=("dp", "dps", "wcoj", "all"),
                         default="all",
                         help="which optimizer's plans to plancheck "
                              "(default: all = dp, dps and wcoj)")
    p_check.add_argument("--exact-threshold", type=int, default=300,
                         help="max nodes for the exact cover check (default 300)")
    p_check.add_argument("--sample-rows", type=int, default=32,
                         help="sampled reachability rows above the threshold")
    p_check.add_argument("--seed", type=int, default=0,
                         help="sampling seed for large-graph audits")
    p_check.set_defaults(func=_cmd_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as err:
        print(f"repro {args.command}: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    raise SystemExit(main())
