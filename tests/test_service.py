"""The always-on query service: protocol, admission control, end-to-end.

The contract under test: every row served over the wire is
byte-identical to what the library produces directly; admission is
bounded at both stages (slots, queue) with fast sheds beyond; deadlines
and row limits ride the streaming driver's truncation flags; and the
stats endpoint accounts for everything that happened.
"""

import asyncio
import json
import random
import socket
import threading
import time

import pytest

from repro import GraphEngine
from repro.graph import generators
from repro.service import (
    AdmissionScheduler,
    AsyncServiceClient,
    Overloaded,
    ProtocolError,
    QueryService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceStats,
    encode,
    ok_response,
    parse_request,
    percentile,
    rows_as_tuples,
    start_in_thread,
)

PATTERN = "A -> C, B -> C, C -> D, D -> E"


def _seeded_rows(width, seed, count=40):
    """Rows of node ids, edge values (0, a multi-digit id, ids beyond
    a double's exact range) mixed into random ones."""
    rng = random.Random(seed)
    edges = (0, 6537, 2**53 + 1, 2**63 - 1)
    return [
        tuple(
            rng.choice(edges) if rng.random() < 0.3 else rng.randrange(10**6)
            for _ in range(width)
        )
        for _ in range(count)
    ]


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_query_roundtrip(self):
        request = parse_request(
            encode({"op": "query", "id": 3, "pattern": "A -> B",
                    "limit": 5, "timeout_ms": 250, "priority": 2})
        )
        assert request.op == "query"
        assert request.id == 3
        assert request.pattern == "A -> B"
        assert request.limit == 5
        assert request.timeout_ms == 250
        assert request.priority == 2
        assert request.row_limit is None

    def test_defaults(self):
        request = parse_request(b'{"op": "query", "pattern": "A -> B"}')
        assert request.optimizer == "dps"
        assert request.limit is None and request.timeout_ms is None
        assert request.priority == 0

    @pytest.mark.parametrize("line", [
        b"not json",
        b'"just a string"',
        b'{"op": "explode"}',
        b'{"op": "query"}',                                # no pattern
        b'{"op": "query", "pattern": ""}',                 # empty pattern
        b'{"op": "query", "pattern": "A -> B", "limit": -1}',
        b'{"op": "query", "pattern": "A -> B", "limit": true}',
        b'{"op": "query", "pattern": "A -> B", "timeout_ms": -5}',
        b'{"op": "query", "pattern": "A -> B", "priority": "high"}',
        # non-finite numbers: no deadline may be infinite, no echoed id
        # may be invalid JSON
        b'{"op":"query","pattern":"a:x -> b:y","timeout_ms":NaN,"id":Infinity}',
        b'{"op": "query", "pattern": "A -> B", "timeout_ms": 1e400}',
        b'{"op": "query", "pattern": "A -> B", "id": -Infinity}',
        b'{"op": "ping", "id": 1e400}',
        pytest.param(
            b'{"op": "query", "pattern": "A -> B", "timeout_ms": 1'
            + b"0" * 400 + b"}",
            id="timeout_ms-integer-beyond-float-range",
        ),
    ])
    def test_bad_requests_rejected(self, line):
        with pytest.raises(ProtocolError):
            parse_request(line)

    def test_non_query_ops_ignore_query_fields(self):
        request = parse_request(b'{"op": "ping", "id": "x", "limit": -9}')
        assert request.op == "ping" and request.id == "x"

    @pytest.mark.parametrize("width, rows, request_id", [
        pytest.param(2, [], 9, id="rows0"),
        pytest.param(2, [(1, 2)], 9, id="rows1"),
        pytest.param(1, [(7,)], 9, id="rows2"),
        pytest.param(3, [(1, 2, 3), (4, 5, 6)], 9, id="rows3"),
        *(
            pytest.param(width, _seeded_rows(width, seed=width), 9,
                         id=f"seeded-width-{width}")
            for width in range(1, 7)
        ),
        pytest.param(3, [[1, 2, 3], [4, 5, 6]], 9, id="lists"),
        pytest.param(1, [(7,)], None, id="id-none"),
        pytest.param(2, [(1, 2)], "nœud-节点-🔗", id="id-unicode"),
        pytest.param(2, [(1, 2)], {"a": [1, {"b": None}], "rows": 0},
                     id="id-nested"),
        pytest.param(2, [(1, 2)], '"rows":[[3,4]],', id="id-looks-like-rows"),
    ])
    def test_rows_go_to_the_wire_as_given(self, width, rows, request_id):
        """The drivers' rows are serialised without a per-row copy, byte
        for byte what ``json.dumps`` writes for the same payload."""
        def payload(rows):
            return ok_response(
                request_id, [f"v{i}" for i in range(width)], rows,
                truncated=False, stop_reason=None,
                metrics={"rows": len(rows), "exec_span": [0.1, 1e-7]},
            )

        line = encode(payload(rows))
        assert line == json.dumps(
            payload(rows), separators=(",", ":")
        ).encode() + b"\n"
        assert line == encode(payload([list(row) for row in rows]))
        assert payload(rows)["rows"] is rows
        response = json.loads(line)
        assert response["id"] == request_id
        assert rows_as_tuples(response) == [tuple(row) for row in rows]

    @pytest.mark.parametrize("keys", [
        ("columns", "rows"),
        ("rows", "columns"),
        ("rows", "columns", "id"),
    ])
    def test_rows_anywhere_in_the_envelope(self, keys):
        values = {"columns": ["a"], "rows": [(5,), (6,)], "id": 1}
        payload = {key: values[key] for key in keys}
        assert encode(payload) == json.dumps(
            payload, separators=(",", ":")
        ).encode() + b"\n"

    @pytest.mark.parametrize("rows", [[(1, 2), (3,)], [(1, 2, 3)]])
    def test_cells_that_do_not_fill_the_columns_are_refused(self, rows):
        with pytest.raises(ValueError, match="cells"):
            encode(ok_response(1, ("a", "b"), rows, False, None, {}))


# ----------------------------------------------------------------------
# admission scheduler (loop-confined state machine, tested standalone)
# ----------------------------------------------------------------------
class _Waiter:
    def __init__(self):
        self.result = None
        self._done = False

    def done(self):
        return self._done

    def set_result(self, value):
        self._done = True
        self.result = value

    def set_exception(self, err):
        self._done = True

    def cancel(self):
        self._done = True


class TestAdmissionScheduler:
    def test_slots_then_queue_then_shed(self):
        sched = AdmissionScheduler(max_inflight=2, queue_depth=1)
        assert sched.try_acquire(waiter_factory=_Waiter) is None
        assert sched.try_acquire(waiter_factory=_Waiter) is None
        queued = sched.try_acquire(waiter_factory=_Waiter)
        assert isinstance(queued, _Waiter)
        with pytest.raises(Overloaded):
            sched.try_acquire(waiter_factory=_Waiter)
        assert sched.inflight == 2 and sched.queued == 1

    def test_release_transfers_slot_to_waiter(self):
        sched = AdmissionScheduler(max_inflight=1, queue_depth=2)
        sched.try_acquire(waiter_factory=_Waiter)
        waiter = sched.try_acquire(waiter_factory=_Waiter)
        sched.release()
        assert waiter.done()          # slot handed over, not freed
        assert sched.inflight == 1 and sched.queued == 0
        sched.release()
        assert sched.inflight == 0

    def test_priority_order_fifo_within_class(self):
        sched = AdmissionScheduler(max_inflight=1, queue_depth=4)
        sched.try_acquire(waiter_factory=_Waiter)
        low_a = sched.try_acquire(priority=0, waiter_factory=_Waiter)
        high = sched.try_acquire(priority=5, waiter_factory=_Waiter)
        low_b = sched.try_acquire(priority=0, waiter_factory=_Waiter)
        sched.release()
        assert high.done() and not low_a.done() and not low_b.done()
        sched.release()
        assert low_a.done() and not low_b.done()  # FIFO among equals
        sched.release()
        assert low_b.done()

    def test_abandoned_waiter_skipped(self):
        sched = AdmissionScheduler(max_inflight=1, queue_depth=2)
        sched.try_acquire(waiter_factory=_Waiter)
        dropped = sched.try_acquire(waiter_factory=_Waiter)
        live = sched.try_acquire(waiter_factory=_Waiter)
        dropped.cancel()
        sched.release()
        assert live.done() and live.result is None
        assert sched.inflight == 1

    def test_zero_queue_depth_sheds_immediately(self):
        sched = AdmissionScheduler(max_inflight=1, queue_depth=0)
        sched.try_acquire(waiter_factory=_Waiter)
        with pytest.raises(Overloaded):
            sched.try_acquire(waiter_factory=_Waiter)

    def test_drain_returns_live_waiters(self):
        sched = AdmissionScheduler(max_inflight=1, queue_depth=3)
        sched.try_acquire(waiter_factory=_Waiter)
        a = sched.try_acquire(waiter_factory=_Waiter)
        b = sched.try_acquire(waiter_factory=_Waiter)
        a.cancel()
        assert sched.drain() == [b]
        assert sched.queued == 0


class TestStats:
    def test_percentile_interpolates(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 0) == 10.0
        assert percentile(values, 100) == 40.0
        assert percentile(values, 50) == 25.0
        assert percentile([], 99) == 0.0
        assert percentile([7.0], 95) == 7.0

    def test_snapshot_accounting(self):
        stats = ServiceStats()
        stats.mark_received()
        stats.mark_received()
        stats.mark_shed()
        stats.mark_served(queue_wait_ms=1.0, exec_ms=9.0, rows=4,
                          truncated=True, cache_hits=3, cache_misses=1)
        snap = stats.snapshot()
        assert snap["received"] == 2 and snap["served"] == 1
        assert snap["shed"] == 1 and snap["shed_rate"] == 0.5
        assert snap["truncated"] == 1 and snap["rows_returned"] == 4
        assert snap["cache_hit_rate"] == 0.75
        assert snap["latency_ms"]["p50"] == 10.0


# ----------------------------------------------------------------------
# end-to-end over TCP
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def engine():
    return GraphEngine(generators.figure1_graph())


@pytest.fixture()
def service(engine):
    handle = start_in_thread(engine, ServiceConfig(max_inflight=2, queue_depth=4))
    yield handle
    handle.stop()


class TestServiceEndToEnd:
    def test_rows_byte_identical_to_library(self, engine, service):
        direct = engine.match(PATTERN)
        host, port = service.address
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(encode({"op": "query", "id": 1, "pattern": PATTERN}))
            line = sock.makefile("rb").readline()
        response = json.loads(line)
        # the wire is canonical: exactly what json.dumps writes compactly
        assert line == json.dumps(response, separators=(",", ":")).encode() + b"\n"
        assert response["columns"] == list(direct.columns)
        assert rows_as_tuples(response) == list(direct.rows)
        assert response["truncated"] is False
        assert response["stop_reason"] is None
        assert response["metrics"]["rows"] == len(direct)

    def test_all_optimizers_served(self, engine, service):
        host, port = service.address
        expected = engine.match(PATTERN).as_set()
        with ServiceClient(host, port) as client:
            for optimizer in ("dp", "dps", "wcoj", "auto"):
                response = client.query(PATTERN, optimizer=optimizer)
                assert set(rows_as_tuples(response)) == expected

    def test_limit_truncates_and_flags(self, service):
        host, port = service.address
        with ServiceClient(host, port) as client:
            response = client.query(PATTERN, limit=1)
        assert len(response["rows"]) == 1
        assert response["truncated"] is True
        assert response["stop_reason"] == "limit"

    def test_bad_pattern_is_bad_request(self, service):
        host, port = service.address
        with ServiceClient(host, port) as client:
            with pytest.raises(ServiceError) as err:
                client.query("A -> Z")  # unknown label
            assert err.value.code == "bad_request"
            with pytest.raises(ServiceError) as err:
                client.query("A -> B", optimizer="quantum")
            assert err.value.code == "bad_request"
            # the connection survives errors: next query works
            assert client.ping()

    def test_row_limit_guard_maps_to_error(self, service):
        host, port = service.address
        with ServiceClient(host, port) as client:
            with pytest.raises(ServiceError) as err:
                client.query(PATTERN, row_limit=1)
            assert err.value.code == "row_limit"

    def test_oversized_response_is_a_row_limit_error(self, monkeypatch):
        """No response line is longer than MAX_LINE_BYTES — the clients
        stop reading there.  A result that would be is answered with a
        row_limit error, and the connection stays in step."""
        from repro.graph.digraph import DiGraph
        from repro.service import server

        graph = DiGraph()
        hub = graph.add_node("H")
        graph.add_edges((graph.add_node("A"), hub) for _ in range(20))
        graph.add_edges((hub, graph.add_node("B")) for _ in range(20))
        engine = GraphEngine(graph)
        full = engine.match("A -> B")
        assert len(encode(ok_response(1, full.columns, full.rows, False, None, {}))) > 2048
        monkeypatch.setattr(server, "MAX_LINE_BYTES", 1024)
        with start_in_thread(engine) as handle:
            with ServiceClient(*handle.address) as client:
                with pytest.raises(ServiceError) as err:
                    client.query("A -> B")
                assert err.value.code == "row_limit"
                assert "MAX_LINE_BYTES" in str(err.value)
                assert "pass a limit" in str(err.value)
                # nothing of the refused line is left in the socket
                response = client.query("A -> B", limit=5)
                assert rows_as_tuples(response) == full.rows[:5]
                stats = client.stats()
        # the refused answer is an error, not also a served query
        assert (stats["served"], stats["rows_returned"], stats["errors"]) == (
            1, 5, 1
        )

    def test_clients_refuse_an_overlong_line(self, monkeypatch, service):
        """A server that does not bound its lines (a parent-commit
        server, say) meets a clear error, not a JSON decode error."""
        from repro.service import client as client_module

        monkeypatch.setattr(client_module, "MAX_LINE_BYTES", 64)
        host, port = service.address
        blocking = ServiceClient(host, port)
        with pytest.raises(ProtocolError, match="MAX_LINE_BYTES"):
            blocking.query(PATTERN)
        # the tail of that line is still in flight: the client hung up
        with pytest.raises((OSError, ValueError)):
            blocking.ping()

        async def pipelined():
            client = await AsyncServiceClient.connect(host, port)
            try:
                first = await client.submit({"op": "query", "pattern": PATTERN})
                second = await client.submit({"op": "query", "pattern": PATTERN})
                with pytest.raises(ProtocolError, match="MAX_LINE_BYTES"):
                    await asyncio.wait_for(first, timeout=30)
                # a response behind the lost line cannot be matched either
                with pytest.raises(ProtocolError):
                    await asyncio.wait_for(second, timeout=30)
                with pytest.raises(ConnectionError):
                    await client.submit({"op": "ping"})
            finally:
                await client.close()

        asyncio.run(pipelined())

    def test_non_finite_number_answered_as_bad_request(self, service):
        host, port = service.address
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(
                b'{"op":"query","pattern":"A -> C","timeout_ms":NaN,'
                b'"id":Infinity}\n'
            )
            line = sock.makefile("rb").readline()
        # strict JSON: a bare NaN/Infinity anywhere in the answer fails here
        response = json.loads(line, parse_constant=pytest.fail)
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"

    def test_malformed_line_answered_not_fatal(self, service):
        host, port = service.address
        with socket.create_connection((host, port), timeout=10) as sock:
            reader = sock.makefile("rb")
            sock.sendall(b"this is not json\n")
            response = json.loads(reader.readline())
            assert response["ok"] is False
            assert response["error"]["code"] == "bad_request"
            sock.sendall(encode({"op": "ping", "id": 1}))
            assert json.loads(reader.readline())["pong"] is True

    def test_pipelined_requests_matched_by_id(self, service):
        host, port = service.address
        with socket.create_connection((host, port), timeout=30) as sock:
            reader = sock.makefile("rb")
            for i in range(6):
                sock.sendall(encode(
                    {"op": "query", "id": f"r{i}", "pattern": PATTERN}
                ))
            seen = set()
            for _ in range(6):
                response = json.loads(reader.readline())
                assert response["ok"] is True
                seen.add(response["id"])
            assert seen == {f"r{i}" for i in range(6)}

    def test_stats_endpoint_accounts_queries(self, service):
        host, port = service.address
        with ServiceClient(host, port) as client:
            for _ in range(3):
                client.query(PATTERN)
            snap = client.stats()
        assert snap["served"] >= 3
        assert snap["received"] >= 3
        assert snap["latency_ms"]["p99"] >= snap["latency_ms"]["p50"] > 0
        assert snap["engine"]["plan_cache_entries"] >= 1
        assert 0.0 <= snap["engine"]["center_cache_hit_rate"] <= 1.0

    def test_stats_endpoint_reports_cache_bytes_and_evictions(self):
        """The engine block shows how full the CenterCache is and whether
        it evicts; a 256-byte budget holds two entries, so it must."""
        engine = GraphEngine(generators.figure1_graph(), cache_bytes=256)
        with start_in_thread(engine) as handle, ServiceClient(*handle.address) as client:
            client.query(PATTERN)
            snap = client.stats()
        cache = engine.center_cache
        assert snap["engine"]["center_cache_bytes"] == cache.estimated_bytes > 0
        assert snap["engine"]["center_cache_evictions"] == cache.evictions > 0
        assert snap["engine"]["center_cache_entries"] == cache.entry_count
        assert "cache_hit_rate" in snap  # the top-level key run.py reads

    def test_overload_sheds_with_fast_reject(self, engine):
        """Saturate the slots + queue; the next arrival is shed."""
        handle = start_in_thread(
            engine, ServiceConfig(max_inflight=1, queue_depth=1)
        )
        service = handle.service
        host, port = handle.address
        try:
            # gate execution so the one in-flight query blocks in its
            # executor thread: admission state becomes deterministic
            # (there is no engine lock to hold anymore — queries only
            # serialize on admission slots)
            gate = threading.Event()
            original_execute = service._execute

            def gated_execute(*args):
                assert gate.wait(timeout=60)
                return original_execute(*args)

            service._execute = gated_execute
            try:
                blocked = []

                def run_blocked():
                    with ServiceClient(host, port, timeout=60) as client:
                        blocked.append(client.query(PATTERN))

                t1 = threading.Thread(target=run_blocked)  # takes the slot
                t2 = threading.Thread(target=run_blocked)  # takes the queue
                t1.start()
                deadline = time.perf_counter() + 10
                while service.scheduler.inflight < 1:
                    assert time.perf_counter() < deadline
                    time.sleep(0.01)
                t2.start()
                while service.scheduler.queued < 1:
                    assert time.perf_counter() < deadline
                    time.sleep(0.01)
                started = time.perf_counter()
                with ServiceClient(host, port, timeout=60) as client:
                    with pytest.raises(ServiceError) as err:
                        client.query(PATTERN)
                reject_s = time.perf_counter() - started
                assert err.value.code == "overloaded"
                assert reject_s < 5  # fast reject, no queueing behind work
            finally:
                gate.set()
            t1.join(timeout=60)
            t2.join(timeout=60)
            assert len(blocked) == 2  # queued work completed after release
            snap = service.stats.snapshot()
            assert snap["shed"] == 1 and snap["served"] == 2
        finally:
            handle.stop()

    def test_queue_deadline_times_out_without_execution(self, engine):
        handle = start_in_thread(
            engine, ServiceConfig(max_inflight=1, queue_depth=2)
        )
        service = handle.service
        host, port = handle.address
        try:
            gate = threading.Event()
            original_execute = service._execute

            def gated_execute(*args):
                assert gate.wait(timeout=60)
                return original_execute(*args)

            service._execute = gated_execute
            release = threading.Event()

            def run_blocked():
                with ServiceClient(host, port, timeout=60) as client:
                    client.query(PATTERN)

            holder = threading.Thread(target=run_blocked)
            holder.start()
            deadline = time.perf_counter() + 10
            while service.scheduler.inflight < 1:
                assert time.perf_counter() < deadline
                time.sleep(0.01)

            timed_out = {}

            def run_deadlined():
                with ServiceClient(host, port, timeout=60) as client:
                    try:
                        client.query(PATTERN, timeout_ms=100)
                    except ServiceError as err:
                        timed_out["code"] = err.code
                    finally:
                        release.set()

            waiter = threading.Thread(target=run_deadlined)
            waiter.start()
            # hold the slot well past the queued query's 100ms deadline
            time.sleep(0.5)
            gate.set()
            assert release.wait(timeout=60)
            holder.join(timeout=60)
            waiter.join(timeout=60)
            assert timed_out["code"] == "timeout"
            assert service.stats.snapshot()["timeouts"] >= 1
        finally:
            gate.set()
            handle.stop()


class TestServiceConfig:
    @pytest.mark.parametrize("config", [
        ServiceConfig(max_result_rows=-5),
        ServiceConfig(max_inflight=0),
        ServiceConfig(queue_depth=-1),
        # NaN and inf would mean no deadline, a negative one a timeout
        # for every query while queued
        ServiceConfig(default_timeout_s=float("nan")),
        ServiceConfig(default_timeout_s=float("inf")),
        ServiceConfig(default_timeout_s=-0.005),
    ])
    def test_out_of_range_settings_refused(self, engine, config):
        with pytest.raises(ValueError, match="must be >="):
            QueryService(engine, config)


class TestServeCLI:
    def test_serve_subcommand_end_to_end(self, tmp_path):
        import subprocess
        import sys as _sys

        from repro.db.persist import save_database

        engine = GraphEngine(generators.figure1_graph())
        db_path = tmp_path / "fig1.snap"
        save_database(engine.db, str(db_path), format="snapshot")
        expected = engine.match(PATTERN)

        proc = subprocess.Popen(
            [_sys.executable, "-m", "repro", "serve", str(db_path), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "serving" in banner
            port = int(banner.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])
            with ServiceClient("127.0.0.1", port, timeout=60) as client:
                assert client.ping()
                response = client.query(PATTERN)
                assert rows_as_tuples(response) == list(expected.rows)
                assert client.stats()["served"] >= 1
        finally:
            proc.terminate()
            proc.wait(timeout=30)
