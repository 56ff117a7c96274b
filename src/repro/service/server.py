"""The always-on asyncio query service.

One long-running process owns one :class:`~repro.query.engine.GraphEngine`
— its indexes, plan cache and :class:`CenterCache` — and serves
concurrent pattern queries over the line-delimited JSON protocol
(:mod:`repro.service.protocol`).  Clients connect over TCP, pipeline
requests, and get responses matched by ``id``.

Concurrency model
-----------------
One process serves: ``max_inflight`` slot threads share one engine and
run admitted queries **concurrently with no engine-wide lock**.  The
shared structures each carry their own lock instead:

* the engine's :class:`CenterCache` takes one lock around each lookup
  or insert;
* the plan cache takes a short per-engine lock around dictionary
  bumps only — never around execution;
* a snapshot-backed database reads an immutable mapping and takes no
  storage lock; a B+-tree database's buffer pool and index memos take
  per-structure locks around individual lookups, and the pool charges
  its one I/O counter under its lock;
* per-query cache accounting is exact: each execution context carries
  its own cache recorder, so overlapping queries never bleed hit/miss
  counts into each other.

Protocol parsing, admission and socket I/O run on the event loop; a
query's answer is encoded in the slot thread that produced its rows,
and the loop only writes the bytes.  The engine's amortized
state (plan cache, CenterCache, hot buffer pool) is where the service's
throughput win over per-query cold process invocations comes from.

Admission control (:class:`AdmissionScheduler`) bounds the system:
``max_inflight`` executor slots, ``queue_depth`` waiting queries,
everything beyond shed with a fast ``overloaded`` reject.  The executor
is sized exactly to ``max_inflight`` so ``run_in_executor`` can never
buffer work behind the scheduler's back.

Deadlines ride the streaming driver: a query's ``timeout_ms`` is
measured from *admission* (queue wait included, as a client experiences
it); whatever remains when a slot opens is handed to
``GraphEngine.match_iter(timeout=...)``, whose cooperative deadline
stops the stream between rows and flags the response ``truncated`` with
``stop_reason="timeout"``.  A deadline that expires while still queued
is answered with a ``timeout`` error without touching the engine.
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Optional, Set, Tuple

from ..query import PatternError, QueryResult, RowLimitExceeded
from ..query.engine import GraphEngine
from .protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    Request,
    encode,
    error_response,
    ok_response,
    parse_request,
)
from .scheduler import AdmissionScheduler, Overloaded, ServiceStats


@dataclass
class ServiceConfig:
    """Tunables for one :class:`QueryService` instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral: read the bound port off ``address``
    #: concurrent query slots; admitted queries execute in parallel
    #: (no engine-wide lock — see the module docstring's tier model)
    max_inflight: int = 2
    #: admission queue depth; arrivals beyond it are shed
    queue_depth: int = 16
    #: deadline applied when a query carries no ``timeout_ms`` (seconds,
    #: finite and >= 0; ``None`` = no default deadline)
    default_timeout_s: Optional[float] = None
    #: hard cap on rows returned per query, applied as a stream limit
    #: even when the client asks for more (or for everything)
    max_result_rows: int = 1_000_000


class QueryService:
    """Serve concurrent pattern queries against one shared engine."""

    def __init__(
        self, engine: GraphEngine, config: Optional[ServiceConfig] = None
    ) -> None:
        self.engine = engine
        self.config = config or ServiceConfig()
        self.stats = ServiceStats()
        self.scheduler = AdmissionScheduler(
            self.config.max_inflight, self.config.queue_depth
        )
        if self.config.max_result_rows < 0:
            raise ValueError(
                "max_result_rows must be >= 0, got "
                f"{self.config.max_result_rows}"
            )
        timeout_s = self.config.default_timeout_s
        if timeout_s is not None and not (
            math.isfinite(timeout_s) and timeout_s >= 0
        ):
            raise ValueError(
                f"default_timeout_s must be >= 0 and finite, got {timeout_s}"
            )
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_inflight,
            thread_name_prefix="repro-query",
        )
        self._server: Optional[asyncio.AbstractServer] = None
        self._tasks: Set[asyncio.Task] = set()
        #: one handler task per open connection
        self._connections: Set[asyncio.Task] = set()
        self._started_at = time.perf_counter()
        self._stopping = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting connections; returns (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=MAX_LINE_BYTES,
        )
        return self.address

    @property
    def address(self) -> Tuple[str, int]:
        assert self._server is not None, "service not started"
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def stop(self) -> None:
        """Stop accepting, bounce queued work, finish in-flight queries,
        close every open connection."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
        for waiter in self.scheduler.drain():
            if not waiter.done():
                waiter.set_exception(Overloaded("service stopping"))
        # request tasks first, then the connection handlers that spawned
        # them: a handler left to asyncio.run's teardown is cancelled
        # there, and 3.11's connection_made callback logs that as an error
        for tasks in (self._tasks, self._connections):
            for task in list(tasks):
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    # connection / request handling (event loop)
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        handler = asyncio.current_task()
        self._connections.add(handler)
        try:
            await self._serve_connection(reader, writer)
        except asyncio.CancelledError:
            # stop() cancels the handlers itself and awaits them, so at
            # shutdown a handler ends normally; any other cancellation
            # is the caller's to see
            if not self._stopping:
                raise
        finally:
            writer.close()  # again: the cancel may have landed in the inner finally
            self._connections.discard(handler)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()  # responses interleave whole lines only
        requests: Set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(writer, write_lock, encode(
                        error_response(None, "bad_request", "request line too long")
                    ))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                # one task per request: queries must not block the read
                # loop, so pipelined requests overlap
                task = asyncio.ensure_future(
                    self._handle_request(line, writer, write_lock)
                )
                requests.add(task)
                self._tasks.add(task)
                task.add_done_callback(requests.discard)
                task.add_done_callback(self._tasks.discard)
        finally:
            for task in requests:
                task.cancel()
            if requests:
                await asyncio.gather(*requests, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        data: bytes,
    ) -> None:
        async with write_lock:
            writer.write(data)
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass  # peer went away; the read loop will notice

    async def _handle_request(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        try:
            request = parse_request(line)
        except ProtocolError as err:
            self.stats.mark_error()
            await self._send(
                writer, write_lock, encode(error_response(None, err.code, str(err)))
            )
            return
        try:
            if request.op == "ping":
                data = encode({"id": request.id, "ok": True, "pong": True})
            elif request.op == "stats":
                data = encode(self._stats_payload(request.id))
            else:
                data = await self._run_query(request)
        except asyncio.CancelledError:
            raise
        except Exception as err:  # noqa: BLE001 - every request gets an answer
            self.stats.mark_error()
            data = encode(error_response(
                request.id, "internal", f"{type(err).__name__}: {err}"
            ))
        await self._send(writer, write_lock, data)

    def _stats_payload(self, request_id: Any) -> Dict[str, Any]:
        snapshot = self.stats.snapshot()
        cache = self.engine.center_cache
        snapshot.update(
            {
                "id": request_id,
                "ok": True,
                "uptime_s": time.perf_counter() - self._started_at,
                "inflight": self.scheduler.inflight,
                "queued": self.scheduler.queued,
                "engine": {
                    "plan_cache_entries": len(self.engine._plan_cache),
                    "center_cache_entries": cache.entry_count,
                    "center_cache_hit_rate": cache.hit_rate,
                    "center_cache_bytes": cache.estimated_bytes,
                    "center_cache_evictions": cache.evictions,
                },
            }
        )
        return snapshot

    # ------------------------------------------------------------------
    # the query path
    # ------------------------------------------------------------------
    async def _run_query(self, request: Request) -> bytes:
        self.stats.mark_received()
        if self._stopping:
            self.stats.mark_shed()
            return encode(error_response(request.id, "shutdown", "service stopping"))
        loop = asyncio.get_running_loop()
        admitted = time.perf_counter()
        timeout_s = (
            request.timeout_ms / 1000.0
            if request.timeout_ms is not None
            else self.config.default_timeout_s
        )
        deadline = admitted + timeout_s if timeout_s is not None else None
        try:
            waiter = self.scheduler.try_acquire(
                priority=request.priority, waiter_factory=loop.create_future
            )
        except Overloaded as err:
            self.stats.mark_shed()
            return encode(error_response(request.id, "overloaded", str(err)))
        if waiter is not None:
            try:
                await waiter  # slot transfers on resolution
            except Overloaded as err:
                self.stats.mark_shed()
                return encode(error_response(request.id, "shutdown", str(err)))
            except asyncio.CancelledError:
                # dropped while queued: release() skips the done waiter —
                # unless the slot already transferred in the same tick,
                # in which case it is ours to give back
                if (
                    waiter.done()
                    and not waiter.cancelled()
                    and waiter.exception() is None
                ):
                    self.scheduler.release()
                raise
        # from here on we hold a slot and must release it exactly once
        try:
            queue_wait_s = time.perf_counter() - admitted
            remaining: Optional[float] = None
            if deadline is not None:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    self.stats.mark_timeout()
                    return encode(error_response(
                        request.id, "timeout",
                        "deadline expired while queued for admission",
                    ))
            try:
                data, result, exec_ms = await loop.run_in_executor(
                    self._executor, self._execute, request, remaining,
                    queue_wait_s,
                )
            except RowLimitExceeded as err:
                self.stats.mark_error()
                return encode(error_response(request.id, "row_limit", str(err)))
            except (PatternError, KeyError, ValueError) as err:
                self.stats.mark_error()
                return encode(error_response(request.id, "bad_request", str(err)))
            except Exception as err:  # noqa: BLE001 - the wire needs an answer
                self.stats.mark_error()
                return encode(error_response(
                    request.id, "internal", f"{type(err).__name__}: {err}"
                ))
            if len(data) > MAX_LINE_BYTES:
                # both clients stop reading at MAX_LINE_BYTES: a longer
                # line would be cut mid-JSON and its tail taken for the
                # next reply.  The answer is refused, so it is not served.
                self.stats.mark_error()
                return encode(error_response(
                    request.id, "row_limit",
                    f"response line of {len(data)} bytes exceeds "
                    f"MAX_LINE_BYTES ({MAX_LINE_BYTES}); pass a limit",
                ))
            metrics = result.metrics
            cache = metrics.center_cache
            self.stats.mark_served(
                queue_wait_ms=queue_wait_s * 1000.0,
                exec_ms=exec_ms,
                rows=len(result.rows),
                truncated=metrics.truncated,
                cache_hits=cache.hits,
                cache_misses=cache.misses,
            )
            if metrics.stop_reason == "timeout":
                self.stats.mark_timeout()
            return data
        finally:
            self.scheduler.release()

    def _execute(
        self, request: Request, timeout_s: Optional[float], queue_wait_s: float
    ) -> Tuple[bytes, QueryResult, float]:
        """Run one admitted query and encode its answer (executor thread
        — no engine lock).

        Returns the encoded response line, the result and the execution
        wall in ms.  The response's ``exec_span`` holds the
        ``time.monotonic`` bounds of the execution, so spans from
        different slots are directly comparable.  Overlapping slot
        threads share the engine's caches; the result's cache counts come
        from its execution context's own recorder, so they are this
        query's alone.
        """
        limit = self.config.max_result_rows
        if request.limit is not None:
            limit = min(limit, request.limit)
        started = time.monotonic()
        result = self.engine.match(
            request.pattern,
            optimizer=request.optimizer,
            limit=limit,
            row_limit=request.row_limit,
            timeout=timeout_s,
        )
        ended = time.monotonic()
        exec_ms = (ended - started) * 1000.0
        metrics = result.metrics
        data = encode(ok_response(
            request.id,
            columns=result.columns,
            rows=result.rows,
            truncated=metrics.truncated,
            stop_reason=metrics.stop_reason,
            metrics={
                "queue_ms": round(queue_wait_s * 1000.0, 3),
                "exec_ms": round(exec_ms, 3),
                # monotonic (start, end) of the execution window —
                # comparable across concurrent responses, so clients
                # (and the differential suite) can prove overlap
                "exec_span": [started, ended],
                "rows": len(result.rows),
                "cache_hit_rate": metrics.center_cache.hit_rate,
            },
        ))
        return data, result, exec_ms


# ----------------------------------------------------------------------
# embedding: run the service on a background thread (tests, harness)
# ----------------------------------------------------------------------
class ServiceHandle:
    """A running service on its own event-loop thread."""

    def __init__(
        self,
        service: QueryService,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.service = service
        self._loop = loop
        self._thread = thread

    @property
    def address(self) -> Tuple[str, int]:
        return self.service.address

    def stop(self) -> None:
        """Stop the service and join its thread (idempotent)."""
        if not self._thread.is_alive():
            return
        asyncio.run_coroutine_threadsafe(self.service.stop(), self._loop).result(
            timeout=30
        )
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


def start_in_thread(
    engine: GraphEngine, config: Optional[ServiceConfig] = None
) -> ServiceHandle:
    """Start a :class:`QueryService` on a daemon thread and wait for bind."""
    ready = threading.Event()
    holder: Dict[str, Any] = {}

    def runner() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        service = QueryService(engine, config)
        try:
            loop.run_until_complete(service.start())
        except Exception as err:  # noqa: BLE001 - surface bind failures
            holder["error"] = err
            ready.set()
            loop.close()
            return
        holder["service"] = service
        holder["loop"] = loop
        ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(target=runner, name="repro-service", daemon=True)
    thread.start()
    ready.wait(timeout=30)
    if "error" in holder:
        raise holder["error"]
    return ServiceHandle(holder["service"], holder["loop"], thread)
