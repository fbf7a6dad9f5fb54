"""Stdlib HTTP client plumbing for the serve/route front ends.

Shared by the ``repro append`` and ``repro trace`` CLI subcommands and
the examples (``examples/serve_client.py``,
``examples/streaming_monitor.py``): one keep-alive
:class:`http.client.HTTPConnection` carries JSON round trips and raw
NDJSON bodies alike, against either a single ``repro serve`` process
or the routing tier (the protocol is identical).

Every query envelope line (batch-start, per-query result, batch-end)
and every error body carries a ``trace_id``; :func:`fetch_trace` turns
one back into its full span tree via ``GET /debug/traces/<id>`` —
stitched across processes when a router answers.
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Optional, Tuple
from urllib.parse import quote, urlencode

__all__ = [
    "append_events",
    "connect",
    "decode_reply",
    "events_path",
    "fetch_trace",
    "fetch_traces",
    "probe",
    "request",
    "request_raw",
]


def decode_reply(raw: bytes) -> Any:
    """A reply body as JSON: ``{}`` when empty, ``{"error": <text>}``
    when it does not parse."""
    if not raw:
        return {}
    try:
        return json.loads(raw)
    except ValueError:  # not JSON, or not UTF-8
        return {"error": raw.decode("utf-8", "replace")}


def probe(host: str, port: int, timeout: float = 2.0) -> None:
    """One throwaway ``GET /health`` to see whether a server is up.

    Raises :class:`OSError` when nothing is listening — callers decide
    whether to boot an in-process server (the examples do) or fail
    (the CLI does, with the error message).
    """
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", "/health")
        conn.getresponse().read()
    finally:
        conn.close()


def connect(
    host: str, port: int, timeout: float = 30.0
) -> http.client.HTTPConnection:
    """A keep-alive connection for a sequence of :func:`request` calls."""
    return http.client.HTTPConnection(host, port, timeout=timeout)


def request(
    conn: http.client.HTTPConnection,
    method: str,
    path: str,
    body: Optional[Any] = None,
) -> Tuple[int, bytes]:
    """One JSON request on a shared keep-alive connection."""
    conn.request(
        method,
        path,
        body=json.dumps(body) if body is not None else None,
        headers={"Content-Type": "application/json"},
    )
    resp = conn.getresponse()
    return resp.status, resp.read()


def request_raw(
    conn: http.client.HTTPConnection,
    method: str,
    path: str,
    body: bytes,
    content_type: str = "application/x-ndjson",
) -> Tuple[int, bytes]:
    """One raw-body request (NDJSON event batches are not JSON)."""
    conn.request(method, path, body=body, headers={"Content-Type": content_type})
    resp = conn.getresponse()
    return resp.status, resp.read()


def events_path(name: str) -> str:
    """The ``POST`` path for a dataset's event endpoint.

    Dataset names may hold spaces etc. (only ``/`` is banned), so the
    name is percent-encoded, mirroring the server's ``unquote``.
    """
    return f"/datasets/{quote(name, safe='')}/events"


def append_events(
    conn: http.client.HTTPConnection, name: str, batch: bytes
) -> Tuple[int, Any]:
    """POST one NDJSON event batch; returns ``(status, parsed body)``.

    On 200 the body is ``{"appended": {epoch, accepted, rejected, …}}``
    (plus ``worker`` when a router answered); error answers come back
    as whatever JSON the server produced, or ``{"error": <text>}`` for
    an unparsable body.
    """
    status, raw = request_raw(conn, "POST", events_path(name), batch)
    return status, decode_reply(raw)


def fetch_trace(
    conn: http.client.HTTPConnection, trace_id: str
) -> Tuple[int, Any]:
    """``GET /debug/traces/<id>`` → ``(status, trace document)``.

    The document is ``{"trace_id", "spans": [...], ...}`` — render it
    with :func:`repro.obs.format_waterfall`.  Against a router the
    spans are stitched across the proxy and the owning worker.  404
    means the id was never stored (sampled out, evicted, or unknown).
    """
    status, raw = request(
        conn, "GET", f"/debug/traces/{quote(trace_id, safe='')}"
    )
    return status, decode_reply(raw)


def fetch_traces(
    conn: http.client.HTTPConnection,
    min_duration_ms: Optional[float] = None,
    limit: Optional[int] = None,
    dataset: Optional[str] = None,
    route: Optional[str] = None,
) -> Tuple[int, Any]:
    """``GET /debug/traces`` listing → ``(status, {"traces": [...]})``.

    Summaries come back newest-first; pass ``min_duration_ms`` to keep
    only slow requests (the triage entry point for a latency incident).
    """
    params = {}
    if min_duration_ms is not None:
        params["min_ms"] = f"{min_duration_ms:g}"
    if limit is not None:
        params["limit"] = str(limit)
    if dataset is not None:
        params["dataset"] = dataset
    if route is not None:
        params["route"] = route
    path = "/debug/traces"
    if params:
        path += "?" + urlencode(params)
    status, raw = request(conn, "GET", path)
    return status, decode_reply(raw)
