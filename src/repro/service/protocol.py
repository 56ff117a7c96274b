"""Wire protocol for the always-on query service.

Line-delimited JSON over a byte stream: every request and every
response is one JSON object on one ``\\n``-terminated line, so the
protocol works identically over a raw TCP socket, an SSH tunnel, or
``nc`` by hand.  Requests carry an ``op``:

``query``
    ``{"op": "query", "id": 7, "pattern": "A -> C, C -> D",
    "optimizer": "dps", "limit": 100, "row_limit": 500000,
    "timeout_ms": 2000, "priority": 0}`` — everything after ``pattern``
    is optional (``optimizer`` defaults to ``"auto"``, the multiway
    plan).  ``id`` is echoed verbatim on the response so clients
    may pipeline requests and match answers out of band.
``stats``
    aggregate service counters + latency percentiles.
``ping``
    liveness probe; answers ``{"ok": true, "pong": true}``.

Successful query responses carry ``columns`` (pattern variables in row
order), ``rows`` (arrays of node ids, byte-identical to what the
library's own drivers produce), ``truncated``/``stop_reason`` (the
streaming driver's partial-result flags), and a ``metrics`` object
(queue wait, execution wall, cache hit rate).  Failures carry
``{"ok": false, "error": {"code": ..., "message": ...}}`` with ``code``
from :data:`ERROR_CODES`; ``overloaded`` is the fast 429-style
load-shed reject — the server answers it without queueing any work.
No line in either direction is longer than :data:`MAX_LINE_BYTES`: a
result that would encode to more is answered with a ``row_limit`` error
asking for a ``limit``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from itertools import chain
from typing import Any, Dict, Optional, Sequence

#: hard ceiling on one request/response line; longer lines are a
#: protocol error, never an unbounded buffer
MAX_LINE_BYTES = 8 * 1024 * 1024

#: every ``error.code`` a response may carry
ERROR_CODES = (
    "bad_request",   # malformed JSON / unknown op / invalid field
    "overloaded",    # admission queue full: request shed, retry later
    "timeout",       # deadline expired before any rows were produced
    "row_limit",     # intermediate-result guard tripped mid-query
    "internal",      # unexpected server-side failure
    "shutdown",      # server stopping; in-queue work is bounced
)

OPS = ("query", "stats", "ping")


class ProtocolError(ValueError):
    """A line one side refuses to act on — a request the server rejects
    (with its error code) or a response line a client cannot accept."""

    def __init__(self, message: str, code: str = "bad_request") -> None:
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class Request:
    """One parsed, validated request line."""

    op: str
    id: Any = None
    pattern: str = ""
    optimizer: str = "auto"
    limit: Optional[int] = None
    row_limit: Optional[int] = None
    timeout_ms: Optional[float] = None
    priority: int = 0


def _optional_count(raw: Dict[str, Any], field: str) -> Optional[int]:
    value = raw.get(field)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ProtocolError(f"{field!r} must be a non-negative integer")
    return value


def _reject_constant(name: str) -> float:
    raise ProtocolError(f"{name} is not a JSON number (RFC 8259)")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):  # e.g. 1e400 overflows to inf
        raise ProtocolError(f"{text} overflows a finite number")
    return value


def parse_request(line: bytes) -> Request:
    """Parse and validate one request line (raises :class:`ProtocolError`).

    Every number in the request is finite: ``NaN`` / ``Infinity`` and
    literals that overflow to ``inf`` are refused while parsing, so no
    deadline can be infinite and no echoed ``id`` can be invalid JSON.
    """
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError("request line exceeds MAX_LINE_BYTES")
    try:
        raw = json.loads(
            line, parse_constant=_reject_constant, parse_float=_finite_float
        )
    except (ValueError, UnicodeDecodeError) as err:
        raise ProtocolError(f"request is not valid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise ProtocolError("request must be a JSON object")
    op = raw.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; choose from {list(OPS)}")
    request_id = raw.get("id")
    if op != "query":
        return Request(op=op, id=request_id)
    pattern = raw.get("pattern")
    if not isinstance(pattern, str) or not pattern.strip():
        raise ProtocolError("'pattern' must be a non-empty string")
    optimizer = raw.get("optimizer", "auto")
    if not isinstance(optimizer, str):
        raise ProtocolError("'optimizer' must be a string")
    timeout_ms = raw.get("timeout_ms")
    if timeout_ms is not None and (
        isinstance(timeout_ms, bool)
        or not isinstance(timeout_ms, (int, float))
        # floats are finite already; this bounds an integer too long to
        # become a float deadline
        or not 0 <= timeout_ms <= sys.float_info.max
    ):
        raise ProtocolError("'timeout_ms' must be a finite non-negative number")
    priority = raw.get("priority", 0)
    if isinstance(priority, bool) or not isinstance(priority, int):
        raise ProtocolError("'priority' must be an integer")
    return Request(
        op="query",
        id=request_id,
        pattern=pattern,
        optimizer=optimizer,
        limit=_optional_count(raw, "limit"),
        row_limit=_optional_count(raw, "row_limit"),
        timeout_ms=timeout_ms,
        priority=priority,
    )


_COMPACT = (",", ":")


def encode(payload: Dict[str, Any]) -> bytes:
    """One object as a compact ``\\n``-terminated JSON line.

    The bytes are always ``json.dumps(payload, separators=(",", ":"))``
    plus ``\\n``.  A query answer (a payload with ``columns`` and
    ``rows``) gets there faster: ``json`` dumps the keys before and
    after ``rows``, in their order, and the rows are one bytes ``%``
    over a ``[%d,…,%d]`` template per row, fed every cell at once.  That
    needs the :func:`ok_response` contract — one int per column per row —
    and a cell count that is not ``len(columns) × len(rows)`` raises
    ``ValueError``.
    """
    if "rows" not in payload or "columns" not in payload:
        return json.dumps(payload, separators=_COMPACT).encode() + b"\n"
    keys = list(payload)
    at = keys.index("rows")
    head = json.dumps({key: payload[key] for key in keys[:at]}, separators=_COMPACT)
    tail = json.dumps({key: payload[key] for key in keys[at + 1:]}, separators=_COMPACT)
    rows = payload["rows"]
    width = len(payload["columns"])
    cells = tuple(chain.from_iterable(rows))
    if len(cells) != width * len(rows):
        raise ValueError(
            f"{len(cells)} cells do not make {len(rows)} rows of "
            f"{width} columns"
        )
    row = b"[" + b",".join([b"%d"] * width) + b"]"
    # "{...}" minus its last brace, then "rows", then "{...}" minus its
    # first; a comma only where the envelope has keys on that side
    return b"".join((
        head[:-1].encode(),
        b',"rows":[' if len(head) > 2 else b'"rows":[',
        b",".join([row] * len(rows)) % cells,
        b"]," if len(tail) > 2 else b"]",
        tail[1:].encode(),
        b"\n",
    ))


def ok_response(
    request_id: Any,
    columns: Sequence[str],
    rows: Sequence[Sequence[int]],
    truncated: bool,
    stop_reason: Optional[str],
    metrics: Dict[str, Any],
) -> Dict[str, Any]:
    """A successful query response.

    ``rows`` holds one int per column per row — what
    ``QueryResult.rows`` holds — and goes to :func:`encode` as given,
    tuples or lists, with no per-row copy; :func:`encode` writes it
    without ``json`` and refuses a cell count that does not fit
    ``columns``."""
    return {
        "id": request_id,
        "ok": True,
        "columns": list(columns),
        "rows": rows,
        "truncated": truncated,
        "stop_reason": stop_reason,
        "metrics": metrics,
    }


def error_response(request_id: Any, code: str, message: str) -> Dict[str, Any]:
    if code not in ERROR_CODES:  # defensive: never emit an unknown code
        code = "internal"
    return {
        "id": request_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }
