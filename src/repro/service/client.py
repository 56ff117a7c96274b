"""Clients for the query service's line-delimited JSON protocol.

:class:`ServiceClient` is the simple blocking client: one socket, one
request in flight at a time — what a CLI, a test, or the closed-loop
half of the benchmark wants.  :class:`AsyncServiceClient` pipelines:
it keeps a map of in-flight request ids to futures and matches
responses as they arrive, which is what the open-loop load harness
needs to issue queries on a fixed schedule regardless of when earlier
answers come back.
"""

from __future__ import annotations

import asyncio
import json
import socket
from typing import Any, Dict, List, Optional, Tuple

from .protocol import MAX_LINE_BYTES, ProtocolError, encode

_OVERLONG = "response line exceeds MAX_LINE_BYTES; the connection is unusable"


class ServiceError(RuntimeError):
    """An error response from the service, with its wire ``code``."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code


def _raise_on_error(response: Dict[str, Any]) -> Dict[str, Any]:
    if not response.get("ok"):
        error = response.get("error") or {}
        raise ServiceError(
            error.get("code", "internal"), error.get("message", "unknown error")
        )
    return response


def _query_payload(
    request_id: Any,
    pattern: str,
    optimizer: str,
    limit: Optional[int],
    row_limit: Optional[int],
    timeout_ms: Optional[float],
    priority: int,
) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "op": "query",
        "id": request_id,
        "pattern": pattern,
        "optimizer": optimizer,
        "priority": priority,
    }
    if limit is not None:
        payload["limit"] = limit
    if row_limit is not None:
        payload["row_limit"] = row_limit
    if timeout_ms is not None:
        payload["timeout_ms"] = timeout_ms
    return payload


def rows_as_tuples(response: Dict[str, Any]) -> List[Tuple[int, ...]]:
    """The response's rows in the library's native shape (tuples)."""
    return [tuple(row) for row in response.get("rows", ())]


class ServiceClient:
    """Blocking request/response client (one in flight at a time)."""

    def __init__(self, host: str, port: int, timeout: float = 60.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._sock.makefile("rb")
        self._next_id = 0

    def _call(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self._sock.sendall(encode(payload))
        line = self._reader.readline(MAX_LINE_BYTES + 1)
        if not line:
            raise ConnectionError("service closed the connection")
        if len(line) > MAX_LINE_BYTES:
            # the rest of the line is still in the socket and would be
            # read as the next response: this connection is finished
            self.close()
            raise ProtocolError(_OVERLONG)
        return json.loads(line)

    def query(
        self,
        pattern: str,
        optimizer: str = "auto",
        limit: Optional[int] = None,
        row_limit: Optional[int] = None,
        timeout_ms: Optional[float] = None,
        priority: int = 0,
    ) -> Dict[str, Any]:
        """Run one pattern query; raises :class:`ServiceError` on failure."""
        self._next_id += 1
        payload = _query_payload(
            self._next_id, pattern, optimizer, limit, row_limit,
            timeout_ms, priority,
        )
        return _raise_on_error(self._call(payload))

    def stats(self) -> Dict[str, Any]:
        self._next_id += 1
        return _raise_on_error(self._call({"op": "stats", "id": self._next_id}))

    def ping(self) -> bool:
        self._next_id += 1
        response = self._call({"op": "ping", "id": self._next_id})
        return bool(response.get("pong"))

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class AsyncServiceClient:
    """Pipelining client: many requests in flight, matched by id."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._pending: Dict[Any, asyncio.Future] = {}
        self._next_id = 0
        self._closed = False
        self._read_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int) -> "AsyncServiceClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_LINE_BYTES
        )
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        failure: Exception = ConnectionError("service connection closed")
        try:
            while True:
                try:
                    line = await self._reader.readline()
                except ValueError:
                    # the reader dropped what it had buffered of the
                    # line: nothing after it can be matched to a request
                    failure = ProtocolError(_OVERLONG)
                    break
                if not line:
                    break
                response = json.loads(line)
                future = self._pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass
        finally:
            # nobody is left to resolve a future: refuse further submits
            self._closed = True
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(failure)
            self._pending.clear()

    async def submit(self, payload: Dict[str, Any]) -> "asyncio.Future":
        """Send one request; returns the future its response resolves."""
        if self._closed:
            raise ConnectionError("client closed")
        self._next_id += 1
        request_id = f"q{self._next_id}"
        payload = dict(payload, id=request_id)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        self._writer.write(encode(payload))
        await self._writer.drain()
        return future

    async def query(
        self,
        pattern: str,
        optimizer: str = "auto",
        limit: Optional[int] = None,
        row_limit: Optional[int] = None,
        timeout_ms: Optional[float] = None,
        priority: int = 0,
    ) -> Dict[str, Any]:
        future = await self.submit(
            _query_payload(
                None, pattern, optimizer, limit, row_limit, timeout_ms, priority
            )
        )
        return _raise_on_error(await future)

    async def stats(self) -> Dict[str, Any]:
        future = await self.submit({"op": "stats"})
        return _raise_on_error(await future)

    async def close(self) -> None:
        self._closed = True
        self._read_task.cancel()
        try:
            await self._read_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
