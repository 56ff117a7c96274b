"""Always-on query service: one shared engine, many concurrent clients.

The engine's expensive state — 2-hop labeling, R-join index, plan
cache, :class:`CenterCache`, hot buffer pool — is paid for once and
amortized across every query the server answers, instead of once *per
query* as in invoke-per-query use.  See
:mod:`repro.service.server` for the concurrency model and
:mod:`repro.service.protocol` for the wire format.

Start a server::

    repro serve --db snapshot.bin --port 7437

or embed one::

    from repro.service import QueryService, ServiceConfig, start_in_thread

    handle = start_in_thread(engine, ServiceConfig(max_inflight=2))
    host, port = handle.address
"""

from .client import AsyncServiceClient, ServiceClient, ServiceError, rows_as_tuples
from .protocol import (
    ERROR_CODES,
    MAX_LINE_BYTES,
    ProtocolError,
    Request,
    encode,
    error_response,
    ok_response,
    parse_request,
)
from .scheduler import AdmissionScheduler, Overloaded, ServiceStats, percentile
from .server import QueryService, ServiceConfig, ServiceHandle, start_in_thread

__all__ = [
    "AdmissionScheduler",
    "AsyncServiceClient",
    "ERROR_CODES",
    "MAX_LINE_BYTES",
    "Overloaded",
    "ProtocolError",
    "QueryService",
    "Request",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceHandle",
    "ServiceStats",
    "encode",
    "error_response",
    "ok_response",
    "parse_request",
    "percentile",
    "rows_as_tuples",
    "start_in_thread",
]
