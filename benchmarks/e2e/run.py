"""The repo's end-to-end benchmark.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --seed N      # all four, untraced then traced
    python3 benchmarks/e2e/run.py --smoke       # all four, tiny, traced

Four workloads run the code as a user gets it (default constructor
arguments, default ``repro serve`` flags, ``optimizer="auto"``, no
knobs), check every result against ``pool.json`` and report the same
end-to-end metrics; a traced run adds per-layer metrics from spans
recorded around the calls into each layer.  README.md has the glossary.

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pool as pins  # noqa: E402
import wire  # noqa: E402
from spans import Tracer  # noqa: E402

now = time.monotonic  # one clock for both sides of the wire (see wire.py)

WORKLOADS = ("fig4_live", "adhoc_limit", "serve_open", "serve_closed")
RESULTS_DIR = os.path.join(pins.HERE, "results")

#: A run measures repeats back to back until --seconds are used, at
#: least this many, and reports the best of them: every op at its
#: fastest over all repeats (each workload's ``summarise``).  Every
#: repeat of a workload runs the same multiset of ops, so repeats differ
#: only by what else the box was doing: on the shared 2-core reference
#: box that is one-sided (a 5 s window's fastest fixed loop moves by
#: 1 %, its median by 20 %), so the best of many short repeats is the
#: steady estimate and the median of three long ones is not (README,
#: "Noise").
MIN_REPEATS = 5
#: ... and this many on each half (tracer off, tracer on) of a traced run
TRACED_REPEATS = 3
#: the program is set up this many times per run; setup_s takes the median
SETUP_ROUNDS = 3
#: a run is noisy when fewer than this many repeats come within
#: NOISY_SHARE of the best one: nothing corroborates the number reported
CORROBORATING = 3
NOISY_SHARE = 0.15

ADHOC_LIMIT = 20
OPEN_QPS = 150.0
OPEN_LOW_QPS = 50.0
OPEN_LIMITS = (10, 100, 1000)
#: ops in one open-loop repeat (1.7 s at OPEN_QPS; 12 lie beyond its p95)
OPEN_STEP_OPS = 250
#: connections the open loop pipelines its requests over
OPEN_CONNS = 2
#: passes over the pool in one closed-loop wire repeat (87 ops)
CLOSED_PASSES = 3
#: share of limited responses whose rows are BFS-validated after a repeat
VALIDATE_SHARE = 0.01
VALIDATE_ROWS = 20
#: the open loop's generator must hold its schedule this closely (p95)
MAX_GEN_LAG_MS = 5.0


def percentile(values: Sequence[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Op:
    """One request: a pattern text on a dataset, with its pinned answer."""

    __slots__ = ("text", "dataset", "limit", "entry", "slot")

    def __init__(self, text: str, dataset: str, limit: Optional[int], entry: dict,
                 slot: int = -1):
        self.text = text
        self.dataset = dataset
        self.limit = limit
        self.entry = entry
        #: open loop only: which of the step's requests this is, whatever
        #: place the shuffle gave it (same request, same slot, every step)
        self.slot = slot

    @property
    def expected_rows(self) -> int:
        full = self.entry["rows"][self.dataset][0]
        return full if self.limit is None else min(self.limit, full)


class Sample:
    """One completed op: its latency, whether it verified, its evidence."""

    __slots__ = ("op", "latency", "ok", "rows", "detail")

    def __init__(self, op: Op, latency: float, ok: bool, rows=None, detail=None):
        self.op = op
        self.latency = latency
        self.ok = ok
        #: the rows returned, kept only where a later check needs them
        self.rows = rows
        #: traced in-process runs: the op's spans and run metrics;
        #: wire runs: the :class:`wire.Reply`
        self.detail = detail


class Repeat:
    def __init__(self, samples: List[Sample], wall: float, disturbed: bool = False):
        self.samples = samples
        self.wall = wall
        #: open loop only: the box stalled under the step (see ServeOpen)
        self.disturbed = disturbed

    def metrics(self) -> Dict[str, float]:
        latencies = [s.latency * 1000.0 for s in self.samples]
        return {
            "latency_p50_ms": percentile(latencies, 50),
            "latency_p95_ms": percentile(latencies, 95),
            "ops_per_s": ratio(sum(s.ok for s in self.samples), self.wall),
        }


def floors(repeats: List[Repeat], key) -> Dict[object, float]:
    """Every op of the multiset the repeats share (``key(op)`` tells which
    one it is) at the fastest any repeat ran it, in seconds."""
    fastest: Dict[object, float] = {}
    for repeat in repeats:
        for sample in repeat.samples:
            which = key(sample.op)
            if sample.latency < fastest.get(which, float("inf")):
                fastest[which] = sample.latency
    return fastest


def measure(
    workload: "Workload", seconds: float, least: int = MIN_REPEATS
) -> List[Repeat]:
    """Repeats back to back until *seconds* are used (whole repeats, the
    boundary rounded to the nearest one) and at least *least* of them are
    undisturbed, or until twice *seconds* are used; what ``settle`` keeps."""
    started, repeats = now(), []
    while True:
        repeats.append(workload.repeat())
        elapsed = now() - started
        held = sum(not r.disturbed for r in repeats)
        enough = held >= (1 if workload.smoke else least)
        on_time = elapsed + 0.5 * elapsed / len(repeats) >= seconds
        if (enough and on_time) or elapsed >= 2.0 * seconds:
            return workload.settle(repeats)


# ----------------------------------------------------------------------
# the program under test, set up as a user would
# ----------------------------------------------------------------------
class Stack:
    """Everything one set-up builds; ``close`` gives it all back."""

    def __init__(self) -> None:
        self.engines: Dict[str, object] = {}   # dataset -> live GraphEngine
        self.snapshot_path: Optional[str] = None
        self.snapshot_engine = None
        self.server: Optional[wire.Server] = None
        self.conns: List[wire.Conn] = []
        self.timings: Dict[str, float] = defaultdict(float)

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        self.conns = []
        if self.server is not None:
            self.server.stop()
            self.server = None
        self.engines = {}
        self.snapshot_engine = None


class Workload:
    """Shared skeleton: set-up, warm-up, repeats, verification."""

    name = ""
    datasets: Tuple[str, ...] = ("XL",)
    pool_key = "fig4"
    snapshot = False
    serve = False

    def __init__(self, repro, pool: dict, seed: int, smoke: bool, workdir: str):
        self.repro = repro
        self.seed = seed
        self.rng = random.Random(seed)
        self.smoke = smoke
        self.workdir = workdir
        self.entries: List[dict] = pool[self.pool_key]
        if smoke:
            light = [e for e in self.entries if e["rows"]["XL"][0] <= 2500]
            self.entries = light[:12]
        self.graphs = pins.generate_graphs(repro, pool, self.datasets)
        self.stack = Stack()
        self.tracer: Optional[Tracer] = None
        self.next_op_id = 0
        self.attempted = 0
        self.failed = 0
        self.disturbed_steps = 0

    # -- set-up ---------------------------------------------------------
    def build(self) -> Stack:
        """One full set-up of the program, every step timed by layer."""
        repro, stack = self.repro, Stack()
        try:
            for name in self.datasets:
                graph = self.graphs[name]
                with self.step(stack, "labeling.build_two_hop"):
                    labeling = repro.build_two_hop(graph)
                with self.step(stack, "db.build"):
                    stack.engines[name] = repro.GraphEngine(graph, labeling=labeling)
            if self.snapshot or self.serve:
                stack.snapshot_path = os.path.join(self.workdir, "XL.snap")
                with self.step(stack, "db.save_snapshot"):
                    repro.save_database(stack.engines["XL"].db, stack.snapshot_path)
            if self.snapshot:
                with self.step(stack, "storage.snapshot_open"):
                    stack.snapshot_engine = repro.GraphEngine.from_snapshot(
                        stack.snapshot_path
                    )
            if self.serve:
                with self.step(stack, "cli.serve_spawn"):
                    stack.server = wire.Server(stack.snapshot_path)
                stack.conns = [
                    wire.Conn(stack.server.address) for _ in range(OPEN_CONNS)
                ]
        except BaseException:
            stack.close()
            raise
        return stack

    @contextmanager
    def step(self, stack: Stack, name: str):
        started = now()
        yield
        ended = now()
        stack.timings[name] += ended - started
        if self.tracer is not None:
            self.tracer.add(name, started, ended)

    def setup(self) -> Dict[str, float]:
        """Set the program up SETUP_ROUNDS times (keeping the last), then
        one warm-up pass; returns seconds by step, medians over rounds."""
        rounds = []
        for _ in range(1 if self.smoke else SETUP_ROUNDS):
            self.stack.close()
            self.stack = self.build()
            rounds.append(dict(self.stack.timings))
        timings = {
            step: median([r[step] for r in rounds]) for step in rounds[0]
        }
        timings["build_total"] = median([sum(r.values()) for r in rounds])
        started = now()
        self.warmup()
        timings["warmup"] = now() - started
        if self.tracer is not None:
            self.tracer.add("warmup", started, now())
        timings["setup_s"] = timings["build_total"] + timings["warmup"]
        return timings

    # -- verification ---------------------------------------------------
    def count(self, ok: bool) -> bool:
        self.attempted += 1
        self.failed += not ok
        return ok

    def validate_kept(self, samples: List[Sample]) -> int:
        """BFS-check the rows of the limited responses whose rows were
        kept (a seeded share of them), outside the timed interval;
        returns how many rows are wrong."""
        return sum(
            pins.invalid_rows(
                self.repro, self.graphs[s.op.dataset], s.op.text,
                s.rows[:VALIDATE_ROWS],
            )
            for s in samples if s.rows is not None and s.ok
        )

    def settle(self, repeats: List[Repeat]) -> List[Repeat]:
        """The repeats a run reports: those no stall of the box disturbed.
        When fewer than CORROBORATING are left it is the program that does
        not keep up, and every op of a dropped repeat counts as failed."""
        held = [r for r in repeats if not r.disturbed]
        if len(held) >= (1 if self.smoke else CORROBORATING):
            return held
        dropped = sum(len(r.samples) for r in repeats if r.disturbed)
        self.attempted += dropped
        self.failed += dropped
        return repeats

    def op_id(self) -> int:
        self.next_op_id += 1
        return self.next_op_id

    def close(self) -> None:
        self.stack.close()

    # -- per workload ---------------------------------------------------
    def warmup(self) -> None:
        raise NotImplementedError

    def repeat(self) -> Repeat:
        """One repeat: this workload's fixed multiset of ops, once."""
        raise NotImplementedError

    def layer_metrics(self, repeat: Repeat) -> Dict[str, float]:
        raise NotImplementedError

    def summarise(self, repeats: List[Repeat]) -> Dict[str, float]:
        """The run's end-to-end numbers, closed loop: one pass over the
        pool with every op at the fastest any repeat ran it.

        With one caller an op's time does not depend on its neighbours,
        so its floor is the cost of running it, and what the box adds (it
        slows whole passes by 1.1-1.5x for seconds at a time) drops out
        far better than by taking the best whole repeat: between eight
        seeds that moved by 5 / 15 / 12 % (p50 / p95 / ops) on
        ``fig4_live`` and the floors by 5 / 6 / 5 % (README, "Noise")."""
        fastest = floors(repeats, lambda op: (id(op.entry), op.dataset))
        latencies = [seconds * 1e3 for seconds in fastest.values()]
        return {
            "latency_p50_ms": percentile(latencies, 50),
            "latency_p95_ms": percentile(latencies, 95),
            "ops_per_s": ratio(len(fastest), sum(fastest.values())),
        }


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------
class InProcess(Workload):
    #: the LIMIT every op carries (None = full results)
    limit: Optional[int] = None

    def engine_for(self, op: Op):
        raise NotImplementedError

    def execute(self, engine, pattern, limit):
        """(rows, run metrics) exactly as the public API hands them over."""
        raise NotImplementedError

    def one_pass(self) -> List[Op]:
        raise NotImplementedError

    def run_op(self, op: Op, keep_rows: bool = False) -> Sample:
        engine = self.engine_for(op)
        if self.tracer is None:
            started = now()
            rows, _ = self.execute(engine, op.text, op.limit)
            latency = now() - started
            ok = self.count(len(rows) == op.expected_rows)
            return Sample(op, latency, ok, rows if keep_rows else None)
        parse_pattern = self.repro.parse_pattern
        t0 = now()
        pattern = parse_pattern(op.text)
        t1 = now()
        engine.plan(pattern, optimizer="auto")
        t2 = now()
        rows, run = self.execute(engine, pattern, op.limit)
        t3 = now()
        ok = self.count(len(rows) == op.expected_rows)
        t4 = now()
        op_id = self.op_id()
        parent = self.tracer.add("op", t0, t4, -1, op_id)
        self.tracer.add("query.parse", t0, t1, parent, op_id)
        self.tracer.add("query.plan", t1, t2, parent, op_id)
        self.tracer.add("query.execute", t2, t3, parent, op_id)
        self.tracer.add("harness.verify", t3, t4, parent, op_id)
        detail = {
            "parse": t1 - t0, "plan": t2 - t1, "exec": t3 - t2,
            "rows": len(rows), "run": run,
        }
        return Sample(op, t3 - t0, ok, rows if keep_rows else None, detail)

    def warm_ops(self) -> List[Op]:
        return [
            Op(e["text"], d, None, e) for d in self.datasets for e in self.entries
        ]

    def warmup(self) -> None:
        """Every pattern once with full results, digests checked."""
        self.cold_plan: List[float] = []
        for op in self.warm_ops():
            sample = self.run_op(op, keep_rows=True)
            if self.tracer is not None:
                self.cold_plan.append(sample.detail["plan"])
            self.count(
                pins.row_digest(sample.rows) == op.entry["rows"][op.dataset][1]
            )

    def repeat(self) -> Repeat:
        """One pass over the pool in a seeded order."""
        share = VALIDATE_SHARE if self.limit is not None else 0.0
        started = now()
        samples = [
            self.run_op(op, keep_rows=self.rng.random() < share)
            for op in self.one_pass()
        ]
        wall = now() - started
        self.failed += self.validate_kept(samples)
        return Repeat(samples, wall)

    def layer_metrics(self, repeat: Repeat) -> Dict[str, float]:
        details = [s.detail for s in repeat.samples]
        runs = [d["run"] for d in details]
        op_wall = sum(s.latency for s in repeat.samples)
        out: Dict[str, float] = {
            "query.parse_ms": median([d["parse"] for d in details]) * 1e3,
            "query.exec_ms": median([d["exec"] for d in details]) * 1e3,
            "query.plan_share": ratio(sum(d["plan"] for d in details), op_wall),
            "query.rows_per_s": ratio(sum(d["rows"] for d in details), repeat.wall),
            "query.rows_examined_per_row": ratio(
                sum(o.rows_in for r in runs for o in r.operators),
                sum(d["rows"] for d in details),
            ),
            "query.centers_probed_per_op": mean(
                [sum(o.centers_probed for o in r.operators) for r in runs]
            ),
            "query.nodes_fetched_per_op": mean(
                [sum(o.nodes_fetched for o in r.operators) for r in runs]
            ),
            "query.peak_temporal_rows_p95": percentile(
                [r.peak_temporal_rows for r in runs], 95
            ),
        }
        hits = sum(r.center_cache.hits for r in runs if r.center_cache)
        misses = sum(r.center_cache.misses for r in runs if r.center_cache)
        out["query.center_cache_hit_rate"] = ratio(hits, hits + misses)
        plans = [d["plan"] for d in details]
        # the ad-hoc texts are new on every op, the figure-4 ones cached
        if self.limit is None:
            out["query.plan_hit_ms"] = median(plans) * 1e3
            out["query.plan_miss_ms"] = median(self.cold_plan) * 1e3
        else:
            out["query.plan_miss_ms"] = median(plans) * 1e3
        for cls in ("paths", "trees", "graphs", "cyclic"):
            out[f"query.exec_ms.{cls}"] = median([
                s.detail["exec"] for s in repeat.samples
                if s.op.entry["class"] == cls
            ]) * 1e3
        for name in pins.DATASETS:
            here = [s.detail for s in repeat.samples if s.op.dataset == name]
            if not here:
                continue
            ios = [d["run"].io for d in here if d["run"].io is not None]
            out[f"query.exec_ms.{name}"] = median([d["exec"] for d in here]) * 1e3
            logical = sum(io.logical_reads for io in ios)
            out[f"storage.physical_io_per_op.{name}"] = ratio(
                sum(io.total_io() for io in ios), len(here)
            )
            out[f"storage.logical_io_per_op.{name}"] = ratio(logical, len(here))
            if name != "L":
                out[f"storage.buffer_hit_rate.{name}"] = ratio(
                    logical - sum(io.physical_reads for io in ios), logical
                )
        return out


class Fig4Live(InProcess):
    """Closed loop, one caller, live B+-tree tier, full results."""

    name = "fig4_live"
    datasets = pins.DATASETS

    def engine_for(self, op: Op):
        return self.stack.engines[op.dataset]

    def execute(self, engine, pattern, limit):
        result = engine.match(pattern, optimizer="auto")
        return result.rows, result.metrics

    def one_pass(self) -> List[Op]:
        ops = self.warm_ops()
        self.rng.shuffle(ops)
        return ops

    def layer_metrics(self, repeat: Repeat) -> Dict[str, float]:
        out = super().layer_metrics(repeat)
        # the paper's Fig. 6 anchor, on the acyclic part of the pool @XL
        engine, io = self.stack.engines["XL"], {"dps": 0, "dp": 0}
        for entry in self.entries:
            pattern = self.repro.parse_pattern(entry["text"])
            if pattern.edge_count != pattern.node_count - 1:
                continue
            for optimizer in io:
                result = engine.match(pattern, optimizer=optimizer)
                self.count(len(result) == entry["rows"]["XL"][0])
                io[optimizer] += result.metrics.logical_io
        out["query.io_ratio_dps_over_dp"] = ratio(io["dps"], io["dp"])
        return out


class AdhocLimit(InProcess):
    """Closed loop, one caller, snapshot tier, LIMIT 20, every text new."""

    name = "adhoc_limit"
    pool_key = "adhoc"
    snapshot = True
    limit = ADHOC_LIMIT

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.passes = 0

    def engine_for(self, op: Op):
        return self.stack.snapshot_engine

    def execute(self, engine, pattern, limit):
        stream = engine.match_iter(pattern, optimizer="auto", limit=limit)
        return list(stream), stream.metrics

    def one_pass(self) -> List[Op]:
        self.passes += 1
        prefix = f"s{self.seed}p{self.passes}"
        ops = [
            Op(pins.rename_variables(e["text"], prefix), "XL", ADHOC_LIMIT, e)
            for e in self.entries
        ]
        self.rng.shuffle(ops)
        return ops


# ----------------------------------------------------------------------
# wire workloads
# ----------------------------------------------------------------------
class Wire(Workload):
    serve = True

    def verdict(self, op: Op, reply: Optional[wire.Reply]) -> Optional[str]:
        """None when *reply* answers *op* correctly, else why it does not:
        ``no_reply``, the service's error code, or ``wrong``."""
        if reply is None:
            return "no_reply"
        response = reply.response
        if not response.get("ok"):
            return response.get("error", {}).get("code", "internal")
        stopped_early = response["truncated"] and (
            op.limit is None or response["stop_reason"] != "limit"
        )
        if stopped_early or reply.row_count != op.expected_rows:
            return "wrong"
        return None

    def check(self, op: Op, reply: Optional[wire.Reply], dropped: bool = False) -> bool:
        """Count the op.  In a *dropped* (disturbed) step only an answer
        that is itself at fault counts: one the service gave in time or
        shed while the box stalled is neither attempted nor failed."""
        why = self.verdict(op, reply)
        if why not in (None, "wrong"):
            self.errors[why] += 1
        if not dropped or why not in (None, "overloaded"):
            self.count(why is None)
        return why is None

    def to_sample(
        self, op: Op, reply: Optional[wire.Reply], dropped: bool = False
    ) -> Sample:
        ok = self.check(op, reply, dropped)
        if reply is None:
            return Sample(op, wire.DRAIN_TIMEOUT_S, False)
        if self.tracer is not None:
            self.trace_reply(reply)
        return Sample(op, reply.decoded - reply.due, ok, reply.rows, reply)

    def trace_reply(self, reply: wire.Reply) -> None:
        op_id = self.op_id()
        parent = self.tracer.add("op", reply.due, reply.decoded, -1, op_id)
        self.tracer.add("harness.lag", reply.due, reply.sent, parent, op_id)
        rtt = self.tracer.add(
            "service.rtt", reply.sent, reply.last_byte, parent, op_id
        )
        self.tracer.add(
            "client.decode", reply.last_byte, reply.decoded, parent, op_id
        )
        served = reply.response.get("metrics")
        if served:
            queue_s, exec_s = served["queue_ms"] / 1e3, served["exec_ms"] / 1e3
            begin, end = served["exec_span"]
            if not (reply.sent <= begin - queue_s and end <= reply.last_byte):
                # another clock on the far side: keep the durations and
                # lay them at the head of the round trip
                begin = reply.sent + queue_s
                end = begin + exec_s
            self.tracer.add("service.queue", begin - queue_s, begin, rtt, op_id)
            self.tracer.add("service.exec", begin, end, rtt, op_id)

    def warmup(self) -> None:
        """Every pattern once over the wire with full results, digests
        checked; the server's caches are warm afterwards."""
        self.errors: Dict[str, int] = defaultdict(int)
        ops = [Op(e["text"], "XL", None, e) for e in self.entries]
        lines = [wire.request_line(i, op.text, None) for i, op in enumerate(ops)]
        replies = wire.closed_loop(self.stack.conns[0], lines, keep_rows=True)
        for op, reply in zip(ops, replies):
            if self.check(op, reply):
                self.count(pins.row_digest(reply.rows) == op.entry["rows"]["XL"][1])

    def finish(self, samples: List[Sample], wall: float, disturbed: bool) -> Repeat:
        self.failed += self.validate_kept(samples)
        self.disturbed_steps += disturbed
        return Repeat(samples, wall, disturbed)

    def layer_metrics(self, repeat: Repeat) -> Dict[str, float]:
        replies = [s.detail for s in repeat.samples if s.detail is not None]
        served = [r for r in replies if r.response.get("ok")]
        queue = [r.response["metrics"]["queue_ms"] for r in served]
        execs = [r.response["metrics"]["exec_ms"] for r in served]
        overhead = [
            (r.last_byte - r.sent) * 1e3 - q - e
            for r, q, e in zip(served, queue, execs)
        ]
        sizes = [r.nbytes for r in served]
        rows = sum(r.row_count for r in served)
        latencies = [s.latency * 1e3 for s in repeat.samples]
        out = {
            "service.queue_ms_p50": percentile(queue, 50),
            "service.queue_ms_p95": percentile(queue, 95),
            "service.exec_ms_p50": percentile(execs, 50),
            "service.exec_ms_p95": percentile(execs, 95),
            "service.overhead_ms_p50": percentile(overhead, 50),
            "service.overhead_ms_p95": percentile(overhead, 95),
            "service.client_decode_ms_p50": percentile(
                [(r.decoded - r.last_byte) * 1e3 for r in replies], 50
            ),
            "service.resp_bytes_p50": percentile(sizes, 50),
            "service.resp_bytes_p95": percentile(sizes, 95),
            "service.bytes_per_row": ratio(sum(sizes), rows),
            "service.latency_p99_ms": percentile(latencies, 99),
            "service.rows_per_s": ratio(rows, repeat.wall),
            "harness.gen_lag_ms_p95": percentile(
                [(r.sent - r.due) * 1e3 for r in replies], 95
            ),
        }
        out.update(self.probe_protocol(repeat))
        stats = self.server_stats()
        out["service.cache_hit_rate"] = stats["cache_hit_rate"]
        out["service.peak_rss_mb"] = self.stack.server.peak_rss_mb()
        for code in ("bad_request", "overloaded", "timeout", "row_limit",
                     "internal", "shutdown"):
            out[f"service.errors_by_code.{code}"] = self.errors[code]
        started = now()
        self.repro.GraphEngine.from_snapshot(self.stack.snapshot_path)
        out["storage.snapshot_open_ms"] = (now() - started) * 1e3
        return out

    def server_stats(self) -> dict:
        conn = self.stack.conns[0]
        conn.sock.sendall(b'{"op":"stats","id":"stats"}\n')
        return json.loads(conn.read_line())

    def probe_protocol(self, repeat: Repeat) -> Dict[str, float]:
        """Time the protocol layer's public functions on payloads shaped
        like this run's: ``encode`` on responses of the recorded sizes,
        ``parse_request`` on the recorded request lines."""
        from repro.service import encode, ok_response, parse_request

        picked = [s for s in repeat.samples if s.ok][:50]
        encode_s = encoded_mb = 0.0
        for sample in picked:
            response = sample.detail.response
            width = len(response["columns"])
            payload = ok_response(
                response["id"], response["columns"],
                [list(range(1000, 1000 + width))] * sample.detail.row_count,
                response["truncated"], response["stop_reason"], response["metrics"],
            )
            started = now()
            line = encode(payload)
            encode_s += now() - started
            encoded_mb += len(line) / 1e6
        lines = [
            wire.request_line(i, s.op.text, s.op.limit) for i, s in enumerate(picked)
        ]
        started = now()
        for line in lines:
            parse_request(line)
        parse_s = now() - started
        return {
            "service.encode_ms_per_mb": ratio(encode_s * 1e3, encoded_mb),
            "service.parse_request_us": ratio(parse_s * 1e6, len(lines)),
        }


class ServeClosed(Wire):
    """Closed loop, one caller with one request outstanding, full
    results: export traffic, the service's capacity on big responses.

    One caller, not the two the issue asked for: the server executes
    under one interpreter lock, so a second caller bought 4 % more
    throughput (45 against 43 ops/s), tripled the median latency (25
    against 7 ms: each op waits on its neighbour) and, with both of the
    box's cores busy, left nothing to absorb the neighbours' noise (p50
    moved by 16 % between 24 runs, against 2 %)."""

    name = "serve_closed"

    def repeat(self) -> Repeat:
        """CLOSED_PASSES passes over the pool in one seeded order."""
        ops = [
            Op(e["text"], "XL", None, e)
            for _ in range(1 if self.smoke else CLOSED_PASSES)
            for e in self.entries
        ]
        self.rng.shuffle(ops)
        lines = [wire.request_line(i, op.text, None) for i, op in enumerate(ops)]
        started = now()
        replies = wire.closed_loop(self.stack.conns[0], lines)
        wall = now() - started
        samples = [self.to_sample(op, reply) for op, reply in zip(ops, replies)]
        return self.finish(samples, wall, False)


class ServeOpen(Wire):
    """Open loop: Poisson arrivals at a fixed rate over two pipelined
    connections, Zipf over the pool, LIMIT 10/100/1000, latency from the
    due time."""

    name = "serve_open"
    qps = OPEN_QPS

    def mix(self, n: int) -> List[Op]:
        """*n* ops, Zipf(s=1) over the pool in pinned order and uniform
        over the limits, apportioned by largest remainder: the multiset
        is the same for every seed, only its order is drawn."""
        weights = [
            (1.0 / rank / len(OPEN_LIMITS), entry, limit)
            for rank, entry in enumerate(self.entries, 1)
            for limit in OPEN_LIMITS
        ]
        total = sum(w for w, _, _ in weights)
        shares = [(n * w / total, entry, limit) for w, entry, limit in weights]
        counts = [int(share) for share, _, _ in shares]
        by_remainder = sorted(
            range(len(shares)), key=lambda i: counts[i] - shares[i][0]
        )
        for i in by_remainder[: n - sum(counts)]:
            counts[i] += 1
        ops = [
            Op(entry["text"], "XL", limit, entry)
            for (_, entry, limit), k in zip(shares, counts)
            for _ in range(k)
        ]
        for slot, op in enumerate(ops):
            op.slot = slot
        self.rng.shuffle(ops)
        return ops

    def summarise(self, repeats: List[Repeat]) -> Dict[str, float]:
        """Throughput from the best step; latency percentiles over the
        step's requests, each at the fastest any step answered it.

        A step's own percentiles are a sampling estimate over 250 random
        arrivals, and on the shared box they moved by 25 % (p95) between
        runs even for the best step; the per-request floor moved by 9 %.
        What it keeps is the cost of serving each request, what it drops
        is the luck of the arrivals: queueing shows in ``ops_per_s``
        falling short of the offered rate and in the traced run's
        ``service.queue_ms_*`` and ``service.latency_p99_ms``."""
        fastest = floors(repeats, lambda op: op.slot)
        latencies = [seconds * 1e3 for seconds in fastest.values()]
        return {
            "latency_p50_ms": percentile(latencies, 50),
            "latency_p95_ms": percentile(latencies, 95),
            "ops_per_s": max(r.metrics()["ops_per_s"] for r in repeats),
        }

    def repeat(self) -> Repeat:
        """One step of OPEN_STEP_OPS arrivals at the offered rate.

        The arrival times are that many uniform draws over the step's
        span, which is what a Poisson process is once its count is given:
        every step offers exactly the rate, with Poisson gaps.

        A step is *disturbed*, and dropped from the run, when the
        generator ran late, the backlog was still growing in its last
        third, or the service shed a request: with latency taken from the
        due time none of its numbers can be trusted.  On the shared box
        that is a stall of the whole machine (a 0.2 s freeze holds back 30
        arrivals, which then leave late and at once, past the 18 the
        default admission holds); a program that cannot keep the rate
        disturbs every step, and ``settle`` fails the run."""
        n = len(self.entries) * len(OPEN_LIMITS) if self.smoke else OPEN_STEP_OPS
        ops = self.mix(n)
        lines = [wire.request_line(i, op.text, op.limit) for i, op in enumerate(ops)]
        span = n / self.qps
        offsets = sorted(self.rng.uniform(0.0, span) for _ in ops)
        checked = set(self.rng.sample(range(n), max(1, round(n * VALIDATE_SHARE))))
        replies, outstanding = wire.open_loop(
            self.stack.conns, lines, offsets, keep_rows=checked
        )
        answered = [(i, r) for i, r in enumerate(replies) if r is not None]
        if not answered:
            raise RuntimeError("repro serve answered none of the open loop's requests")
        first, reply = answered[0]
        started = reply.due - offsets[first]
        wall = max(r.decoded for _, r in answered) - started
        lag = percentile([(r.sent - r.due) * 1e3 for _, r in answered], 95)
        third = len(outstanding) // 3
        middle, last = mean(outstanding[third:2 * third]), mean(outstanding[-third:])
        growing = last > 2.0 * middle + 4.0
        shed = sum(self.verdict(op, r) == "overloaded" for op, r in zip(ops, replies))
        disturbed = growing or lag > MAX_GEN_LAG_MS or shed > 0
        samples = [
            self.to_sample(op, reply, disturbed) for op, reply in zip(ops, replies)
        ]
        self.last_step = {
            "gen_lag_ms_p95": lag, "backlog_growing": growing, "shed": shed,
            "outstanding_mean": mean(outstanding),
        }
        return self.finish(samples, wall, disturbed)

    def low_step(self) -> Dict[str, float]:
        """One step at the low rate, reported as layer metrics only."""
        self.qps = OPEN_LOW_QPS
        try:
            for _ in range(3):
                repeat = self.repeat()
                if not repeat.disturbed:
                    break
        finally:
            self.qps = OPEN_QPS
        latencies = [s.latency * 1e3 for s in repeat.samples]
        return {
            "service.latency_p50_ms.low": percentile(latencies, 50),
            "service.latency_p95_ms.low": percentile(latencies, 95),
        }


CLASSES = {cls.name: cls for cls in (Fig4Live, AdhocLimit, ServeOpen, ServeClosed)}


# ----------------------------------------------------------------------
# one run of one workload
# ----------------------------------------------------------------------
def declared() -> dict:
    with open(os.path.join(pins.ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Measure one workload; returns the run's full record."""
    spec = declared()
    load_start = os.getloadavg()
    began = now()
    repro = pins.import_repro()
    pool, pool_digest = pins.load_pool()
    workdir = os.path.join(pins.HERE, ".work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    workload = None
    try:
        workload = CLASSES[name](repro, pool, seed, smoke, workdir)
        gen_s = now() - began
        tracer = Tracer() if trace else None
        workload.tracer = tracer
        timings = workload.setup()
        layers: Dict[str, float] = {}
        if trace:
            # half the time with the tracer off, half with it on: the
            # two best throughputs differ by what tracing costs
            if name == "serve_open":
                layers.update(workload.low_step())
            workload.tracer = None
            repeats = measure(workload, seconds / 2, TRACED_REPEATS)
            workload.tracer = tracer
            traced = max(
                measure(workload, seconds / 2, TRACED_REPEATS),
                key=lambda r: r.metrics()["ops_per_s"],
            )
            # before the layer probes below, which are not the workload
            layers["query.peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
            layers.update(workload.layer_metrics(traced))
            plain = max(r.metrics()["ops_per_s"] for r in repeats)
            layers["harness.trace_overhead_pct"] = 100.0 * ratio(
                plain - traced.metrics()["ops_per_s"], plain
            )
            own = tracer.self_times()
            ops = [i for i, s in enumerate(tracer.spans) if s[0] == "op"]
            layers["harness.unattributed_pct"] = 100.0 * ratio(
                sum(own[i] for i in ops),
                sum(tracer.spans[i][2] - tracer.spans[i][1] for i in ops),
            )
            layers["harness.samples"] = len(traced.samples)
        else:
            repeats = measure(workload, seconds)
        per_repeat = [r.metrics() for r in repeats]
        end_to_end = workload.summarise(repeats)
        end_to_end["setup_s"] = timings["setup_s"]
        best_ops = max(m["ops_per_s"] for m in per_repeat)
        close = sum(
            m["ops_per_s"] >= (1.0 - NOISY_SHARE) * best_ops for m in per_repeat
        )
        noisy = close < min(CORROBORATING, max(1, len(per_repeat) - 1))
        if trace:
            xl = workload.stack.engines["XL"].stats_summary()
            snapshot_bytes = (
                os.path.getsize(workload.stack.snapshot_path)
                if workload.stack.snapshot_path else 0
            )
            layers.update({
                "labeling.build_two_hop_s": timings["labeling.build_two_hop"],
                "labeling.cover_size": xl["cover_size"],
                "labeling.avg_code_size": xl["cover_ratio"],
                "db.build_s": timings["db.build"],
                "db.save_snapshot_s": timings.get("db.save_snapshot", 0.0),
                "db.centers": xl["centers"],
                "storage.snapshot_bytes": snapshot_bytes,
                "storage.snapshot_bytes_per_edge": ratio(snapshot_bytes, xl["edges"]),
                "cli.serve_spawn_s": timings.get("cli.serve_spawn", 0.0),
                "query.cold_pass_ms": timings["warmup"] * 1e3,
                "harness.gen_s": gen_s,
                "harness.cpu_count": os.cpu_count(),
                "harness.noisy": int(noisy),
                "harness.disturbed_steps": workload.disturbed_steps,
                "harness.fail_rate": ratio(workload.failed, workload.attempted),
            })
            if "storage.snapshot_open" in timings:
                layers["storage.snapshot_open_ms"] = (
                    timings["storage.snapshot_open"] * 1e3
                )
            os.makedirs(RESULTS_DIR, exist_ok=True)
            tracer.write(os.path.join(RESULTS_DIR, f"trace_{name}.jsonl"))
        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "smoke": smoke, "pool_digest": pool_digest,
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
            "attempted": workload.attempted, "failed": workload.failed,
            "correct": workload.failed == 0,
            "repeats": len(repeats), "samples_per_repeat": len(repeats[0].samples),
            "noisy": noisy, "disturbed_steps": workload.disturbed_steps,
            "end_to_end": {
                m["name"]: {
                    "value": end_to_end[m["name"]], "unit": m["unit"],
                    "repeats": [r.get(m["name"]) for r in per_repeat]
                    if m["name"] != "setup_s" else [timings["setup_s"]],
                }
                for m in spec["end_to_end"]
            },
            "setup": timings,
        }
        if trace:
            # a layer this workload bypasses spent no time and did no work
            record["per_layer"] = {
                m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
                for m in spec["per_layer"]
            }
            record["bypassed"] = sorted(
                m["name"] for m in spec["per_layer"] if m["name"] not in layers
            )
            unknown = sorted(set(layers) - {m["name"] for m in spec["per_layer"]})
            assert not unknown, f"undeclared layer metrics: {unknown}"
            step = getattr(workload, "last_step", None)
            if step is not None:
                record["open_loop"] = step
        return record
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)


def print_record(record: dict) -> None:
    print(f"== {record['workload']}  seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']} "
          f"repeats={record['repeats']}x{record['samples_per_repeat']} samples "
          f"attempted={record['attempted']} failed={record['failed']} "
          f"disturbed_steps={record['disturbed_steps']}"
          f"{'  NOISY' if record['noisy'] else ''}")
    sections = ["end_to_end"] + (["per_layer"] if "per_layer" in record else [])
    for section in sections:
        for name, metric in record[section].items():
            print(f"  {name:<36} {metric['value']:>14.4f} {metric['unit']}")


def contract_line(record: dict) -> str:
    section = "per_layer" if record["trace"] else "end_to_end"
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": metric["value"], "unit": metric["unit"]}
            for name, metric in record[section].items()
        },
    })


# ----------------------------------------------------------------------
# all four workloads: one child process each, so that no workload's
# heap, caches or peak RSS leak into the next one's numbers
# ----------------------------------------------------------------------
def run_all(seed: int, seconds: float, smoke: bool) -> int:
    started = time.time()
    load_start = os.getloadavg()
    records, status = [], 0
    for name in WORKLOADS:
        for trace in ((1,) if smoke else (0, 1)):
            command = [
                sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace), "--record",
            ] + (["--smoke"] if smoke else [])
            child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            lines = child.stdout.splitlines()
            print("\n".join(lines[:-2]), flush=True)
            if child.returncode != 0 or len(lines) < 2:
                print(f"{name} (trace={trace}) exited {child.returncode}",
                      file=sys.stderr)
                status = 1
            if len(lines) >= 2:
                records.append(json.loads(lines[-2]))
    workloads: Dict[str, dict] = {}
    for record in records:
        entry = workloads.setdefault(record["workload"], {})
        for key in ("attempted", "failed"):
            entry[key] = entry.get(key, 0) + record[key]
        if record["trace"]:
            entry["per_layer"] = record["per_layer"]
            entry["bypassed"] = record["bypassed"]
            entry["traced_end_to_end"] = record["end_to_end"]
            if "open_loop" in record:
                entry["open_loop"] = record["open_loop"]
        else:
            entry["end_to_end"] = record["end_to_end"]
            entry["repeats"] = record["repeats"]
            entry["samples_per_repeat"] = record["samples_per_repeat"]
            entry["noisy"] = record["noisy"]
            entry["setup"] = record["setup"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=pins.ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip() or None
    except OSError:
        commit = None
    document = {
        "seed": seed, "seconds": seconds, "smoke": smoke,
        "pool_digest": records[0]["pool_digest"] if records else None,
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "commit": commit,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "wall_s": time.time() - started,
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "workloads": workloads,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(
        RESULTS_DIR, "BENCH_e2e_smoke.json" if smoke else "BENCH_e2e.json"
    )
    with open(out, "w") as handle:
        json.dump(document, handle, indent=1)
        handle.write("\n")
    failed = sum(w.get("failed", 0) for w in workloads.values())
    print(f"wrote {out}  ({document['wall_s']:.0f}s, {failed} failed ops)")
    return 1 if status or failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny op counts over a light part of the pools")
    parser.add_argument("--record", action="store_true",
                        help="print the run's full record before the last line")
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = 1.5 if args.smoke else declared()["run_seconds"]
    if args.workload is None:
        return run_all(args.seed, seconds, args.smoke)
    record = run_workload(
        args.workload, args.seed, seconds, bool(args.trace), args.smoke
    )
    print_record(record)
    if args.record:
        print(json.dumps(record))
    print(contract_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
