"""Command-line interface: build, persist, query and inspect graph databases.

Usage (also via ``python -m repro``)::

    repro build --factor 0.2 --out auctions.db.json     # offline phase
    repro stats auctions.db.json                         # Table 2-style row
    repro query auctions.db.json "person -> watch, watch -> open_auction"
    repro query auctions.db.json "A -> B" --explain --optimizer dp
    repro query auctions.db.json "A -> B" --limit 5      # streamed probe
    repro snapshot save auctions.db.json auctions.snap   # binary snapshot
    repro snapshot load auctions.snap                    # timed reload
    repro snapshot info auctions.snap                    # header + sections
    repro serve auctions.snap --port 7437                # always-on service

The CLI wraps the library's public API one-to-one; anything it prints can
be reproduced programmatically with :class:`repro.GraphEngine`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from . import xmark
from .db.database import GraphDatabase
from .db.persist import load_database, save_database
from .query.algebra import RowLimitExceeded
from .query.engine import GraphEngine
from .query.pattern import PatternError
from .storage.snapshot import SnapshotError


class _UsageError(Exception):
    """A user error: :func:`main` prints ``repro <cmd>: error: <message>``
    as one line and exits 2."""


def _load(path: str) -> GraphDatabase:
    """:func:`load_database`, with an unreadable file as a usage error."""
    try:
        return load_database(path)
    except (OSError, ValueError, SnapshotError) as err:
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
    engine = GraphEngine.from_database(_load(args.database))
    summary = engine.stats_summary()
    print(f"{'nodes':>12}: {summary['nodes']}")
    print(f"{'edges':>12}: {summary['edges']}")
    print(f"{'|H|':>12}: {summary['cover_size']}")
    print(f"{'|H|/|V|':>12}: {summary['cover_ratio']:.3f}")
    print(f"{'centers':>12}: {summary['centers']}")
    print(f"{'labels':>12}: {len(engine.db.labels())}")
    if args.labels:
        print("\nextent sizes:")
        catalog = engine.db.catalog
        for label in engine.db.labels():
            print(f"  {label:>20}: {catalog.extent_size(label)}")
    if args.storage:
        print("\nstorage footprint:")
        for name, info in engine.db.storage_report().items():
            print(f"  {name:>24}: {info['rows']:>8} rows {info['pages']:>6} pages")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from .query import DEFAULT_CACHE_BYTES

    if args.head < 0:
        raise _UsageError("--head must be >= 0")
    engine = GraphEngine.from_database(
        _load(args.database),
        cache_bytes=0 if args.no_center_cache else DEFAULT_CACHE_BYTES,
    )
    try:
        if args.explain:
            print(engine.explain(args.pattern, optimizer=args.optimizer))
            return 0
        result = engine.match(
            args.pattern, optimizer=args.optimizer, limit=args.limit,
            row_limit=args.row_limit,
        )
    except RowLimitExceeded as err:  # the guard tripped: a query outcome
        print(f"repro query: {err}", file=sys.stderr)
        return 1
    except (PatternError, KeyError, ValueError) as err:  # a usage error
        message = err.args[0] if isinstance(err, KeyError) and err.args else err
        raise _UsageError(message) from None
    if args.limit is not None:
        for row in result.rows:
            print("\t".join(str(v) for v in row))
        print(f"-- {len(result)} row(s) (limit {args.limit}, streamed)",
              file=sys.stderr)
        return 0
    print("\t".join(result.columns))
    shown = result.rows if args.all else result.rows[:args.head]
    for row in shown:
        print("\t".join(str(v) for v in row))
    if not args.all and len(result) > args.head:
        print(f"... ({len(result) - args.head} more rows; use --all)",
              file=sys.stderr)
    metrics = result.metrics
    print(
        f"-- {len(result)} row(s) in {metrics.elapsed_seconds * 1e3:.1f} ms, "
        f"{metrics.physical_io} physical / {metrics.logical_io} logical page I/O",
        file=sys.stderr,
    )
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from .storage.snapshot import SNAPSHOT_VERSION, Snapshot

    if args.action == "save":
        db = _load(args.source)
        started = time.perf_counter()
        save_database(db, args.out, format="snapshot")
        elapsed = (time.perf_counter() - started) * 1e3
        with_snapshot = Snapshot.open(args.out)
        try:
            print(f"wrote {args.out}: {with_snapshot.file_size()} bytes "
                  f"in {elapsed:.1f} ms "
                  f"({with_snapshot.node_count} nodes, "
                  f"{with_snapshot.center_count} centers, "
                  f"{len(with_snapshot.section_table())} sections)")
        finally:
            with_snapshot.close()
        return 0

    if args.action == "load":
        started = time.perf_counter()
        try:
            engine = GraphEngine.from_snapshot(args.file)
        except SnapshotError as exc:
            print(f"snapshot error: {exc}", file=sys.stderr)
            return 1
        elapsed = (time.perf_counter() - started) * 1e3
        db = engine.db
        print(f"loaded {args.file} in {elapsed:.1f} ms")
        print(f"{'nodes':>12}: {db.graph.node_count}")
        print(f"{'edges':>12}: {db.graph.edge_count}")
        print(f"{'centers':>12}: {db.join_index.center_count}")
        print(f"{'labels':>12}: {len(db.labels())}")
        return 0

    # info
    try:
        snapshot = Snapshot.open(args.file)
    except SnapshotError as exc:
        print(f"snapshot error: {exc}", file=sys.stderr)
        return 1
    try:
        print(
            f"{args.file}: snapshot v{SNAPSHOT_VERSION}, "
            f"{snapshot.file_size()} bytes"
        )
        print(f"{'nodes':>12}: {snapshot.node_count}")
        print(f"{'edges':>12}: {snapshot.edge_count}")
        print(f"{'labels':>12}: {snapshot.label_count}")
        print(f"{'centers':>12}: {snapshot.center_count}")
        print(f"{'W pairs':>12}: {snapshot.wtable_pair_count}")
        print(f"{'sub runs':>12}: {snapshot.subcluster_runs}")
        print("\nsection table:")
        print(f"  {'name':<12} {'offset':>10} {'bytes':>10}")
        for name, offset, length in snapshot.section_table():
            print(f"  {name:<12} {offset:>10} {length:>10}")
    finally:
        snapshot.close()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .query import DEFAULT_CACHE_BYTES
    from .service import QueryService, ServiceConfig

    engine = GraphEngine.from_database(
        _load(args.database),
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
        check_concurrency,
        check_plan,
        errors,
        format_report,
        has_errors,
        lint_project,
    )
    from .storage.snapshot import is_snapshot

    if args.patterns and args.database is None:
        raise _UsageError("--pattern requires a database to plan against")
    if args.database is None and not args.self_lint:
        raise _UsageError("nothing to check: give a database and/or --self")
    if args.sample_rows < 0:
        raise _UsageError("--sample-rows must be >= 0")

    all_diags = []

    def section(title: str, diagnostics) -> None:
        all_diags.extend(diagnostics)
        print(f"== {title} ==")
        print(format_report(diagnostics) if diagnostics else "ok")

    if args.database is not None:
        if is_snapshot(args.database):
            # file-level checks first: CRC/geometry plus the decoded-column
            # invariants the lazy read path assumes (offline, no database)
            snapshot_diags = audit_snapshot(args.database)
            section(f"snapshotaudit {args.database}", snapshot_diags)
            if has_errors(snapshot_diags):
                # an unreadable or inconsistent file cannot back the
                # database-level passes; report what was found and stop
                error_count = len(errors(all_diags))
                warning_count = len(all_diags) - error_count
                print(
                    f"-- {error_count} error(s), {warning_count} warning(s)",
                    file=sys.stderr,
                )
                return 1
        engine = GraphEngine.from_database(_load(args.database))
        section(
            f"indexaudit {args.database}",
            audit_database(
                engine.db,
                exact_threshold=args.exact_threshold,
                sample_rows=args.sample_rows,
                seed=args.seed,
            ),
        )
        optimizers = (
            ("dp", "dps", "wcoj") if args.optimizer == "all" else (args.optimizer,)
        )
        for text in args.patterns or ():
            for optimizer in optimizers:
                plan = engine.plan(text, optimizer=optimizer).plan
                section(
                    f"plancheck [{optimizer}] {text!r}",
                    check_plan(
                        plan, db=engine.db, source=f"plan[{optimizer}]"
                    ),
                )
    if args.self_lint:
        section("lint src/repro", lint_project())
        section("lock-discipline src/repro", check_concurrency())

    failed = has_errors(all_diags)
    error_count = len(errors(all_diags))
    warning_count = len(all_diags) - error_count
    print(f"-- {error_count} error(s), {warning_count} warning(s)",
          file=sys.stderr)

    if args.report:
        rule_counts: dict = {}
        for diag in all_diags:
            rule_counts[diag.rule] = rule_counts.get(diag.rule, 0) + 1
        payload = {
            "errors": error_count,
            "warnings": warning_count,
            "rules": dict(sorted(rule_counts.items())),
        }
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"rule-count report written to {args.report}", file=sys.stderr)
    return 1 if failed else 0


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
                         help="output path (.snap writes a binary snapshot, "
                              "anything else JSON)")
    p_build.set_defaults(func=_cmd_build)

    p_stats = sub.add_parser("stats", help="show a saved database's statistics")
    p_stats.add_argument("database")
    p_stats.add_argument("--labels", action="store_true",
                         help="also list per-label extent sizes")
    p_stats.add_argument("--storage", action="store_true",
                         help="also show the page footprint per structure")
    p_stats.set_defaults(func=_cmd_stats)

    p_query = sub.add_parser("query", help="match a pattern against a database")
    p_query.add_argument("database")
    p_query.add_argument("pattern", help='e.g. "A -> B, B -> C" or "x:A -> y:B"')
    p_query.add_argument("--optimizer",
                         choices=("dp", "dps", "wcoj", "auto"),
                         default="auto",
                         help="plan family: left-deep dp/dps, "
                              "multiway wcoj, or auto (cyclic join graph "
                              "-> wcoj, else dps; default)")
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

    p_snapshot = sub.add_parser(
        "snapshot",
        help="binary snapshot tools: save, timed load, file inspection",
    )
    snap_sub = p_snapshot.add_subparsers(dest="action", required=True)
    p_snap_save = snap_sub.add_parser(
        "save", help="convert a saved database (either format) to a snapshot"
    )
    p_snap_save.add_argument("source", help="existing database file (.json or .snap)")
    p_snap_save.add_argument("out", help="output snapshot path")
    p_snap_save.set_defaults(func=_cmd_snapshot)
    p_snap_load = snap_sub.add_parser(
        "load", help="open a snapshot, report load time and structure sizes"
    )
    p_snap_load.add_argument("file")
    p_snap_load.set_defaults(func=_cmd_snapshot)
    p_snap_info = snap_sub.add_parser(
        "info", help="print a snapshot's header counters and section table"
    )
    p_snap_info.add_argument("file")
    p_snap_info.set_defaults(func=_cmd_snapshot)

    p_serve = sub.add_parser(
        "serve",
        help="always-on query service: share one engine across concurrent "
             "clients (line-delimited JSON over TCP)",
    )
    p_serve.add_argument("database", help="saved database (.json or .snap)")
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
        help="static verification: index audit, plan checks, project lint "
             "+ lock-discipline rules",
    )
    p_check.add_argument("database", nargs="?",
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
    p_check.add_argument("--self", dest="self_lint", action="store_true",
                         help="lint the repro package's own source and run "
                              "the lock-discipline rules (conc/*) over it")
    p_check.add_argument("--report", metavar="PATH",
                         help="write a JSON per-rule diagnostic-count report "
                              "(CI artifact)")
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
