"""The asyncio serving front end: routes, streaming, lifecycle.

Two layers live here.  :class:`AsyncApp` is the protocol half — the
HTTP/1.1 keep-alive connection loop, routing, error→status mapping,
graceful drain, lifecycle, and the per-request metrics seam (every
front end owns a :class:`~repro.obs.MetricsRegistry` and answers ``GET
/metrics``).  Routing comes from one table, :data:`ROUTES`, which maps
each ``(method, route)`` to the name of the handler that answers it;
:func:`match_route` matches a path to its route once per request, and
that route is also the request's metrics label and decides whether it
is traced.  The table is the protocol's front door for both tiers:
:class:`ServeApp` and the multi-process router in :mod:`repro.router`
supply only handlers.  :class:`ServeApp` is the serving half: it wires
the sharded :class:`~repro.serve.registry.DatasetRegistry` and the
bounded async bridge into an HTTP/NDJSON protocol:

* ``GET    /health``   — liveness probe (used by CI to await boot);
* ``GET    /datasets`` — registered dataset identities;
* ``POST   /datasets`` — register ``{"name": ..., "dataset": {spec}}``
  (optional ``"default_backend"``: a registered backend injected into
  queries against this dataset that name none — explicit per-query
  backends always win, kinds the backend cannot serve stay on ``auto``,
  and a metric-incompatible default is rejected here, at registration);
* ``DELETE /datasets/<name>`` — unregister: the shard is closed, its
  index cache and thread pool freed; unknown names get 404.  In-flight
  queries on the shard finish (admission slots release via their
  done-callbacks); queued-but-unstarted work is cancelled;
* ``POST   /query``    — ``{"dataset": ..., "queries": [QuerySpec...]}``,
  answered as a chunked NDJSON stream: a ``batch-start`` line, then per
  query its ``records`` lines (one per τ, so a huge τ-sweep is never
  buffered as one document; :func:`records_line` writes a column
  block's records without building record objects) and a ``result``
  status line, then a ``batch-end`` line with per-batch cache stats
  (the sum of the batch's own queries' cache activity);
* ``GET    /stats``    — who this process is (``pid``, bound address,
  monotonic age) and its effective connection settings; it reports no
  counts;
* ``GET    /metrics``  — the Prometheus text exposition of the app's
  metrics registry, where every count lives (see ``docs/metrics.md``
  for the family reference);
* ``POST   /shutdown`` — graceful stop: new connections are refused,
  in-flight requests drain, idle keep-alive connections are closed;
* ``GET    /debug/traces`` and ``GET /debug/traces/<id>`` — recent
  traces and one trace's span tree (see ``docs/tracing.md``).

With a tenant table configured (``--api-keys``; see
:mod:`repro.serve.tenants`), ``POST /query`` requires a known
``X-API-Key`` header (401 otherwise) and is metered per tenant:
weighted fair admission shares on each shard's queue, optional
per-minute quotas answered with 429 + ``Retry-After``, and
tenant-labelled metrics.  All other routes stay unauthenticated.

Connections are persistent (HTTP/1.1 keep-alive):
:meth:`AsyncApp.handle_connection` is a request loop that serves many
requests per socket, bounded by an idle timeout and a per-connection
request cap, honouring ``Connection: close`` and HTTP/1.0 semantics.
A protocol error closes the connection (framing can no longer be
trusted) through a bounded lingering close, so the error reply reaches
the client; a truncated chunked stream marks the connection broken so a
later response can never be spliced into the half-written body.

Every query failure is isolated per the engine contract: an erroring
query emits ``{"type": "result", "ok": false, "error": ...}`` and its
batch keeps streaming.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Set, Tuple
from urllib.parse import parse_qs, unquote

from ..blocks import RecordBlock
from ..engine.cache import CacheStats
from ..engine.planner import plan_batch
from ..engine.results import QueryResult, record_to_dict
from ..engine.spec import QuerySpec, apply_default_backend
from ..errors import ReproError, ValidationError
from ..obs import CONTENT_TYPE as METRICS_CONTENT_TYPE
from ..obs import MetricsRegistry
from ..obs.trace import TRACEPARENT_HEADER, SpanHandle, TraceRecorder, parse_traceparent
from ..obs.tracestore import (
    DEFAULT_SLOW_QUERY_MS,
    DEFAULT_TRACE_SAMPLE,
    TraceStore,
)
from .bridge import OverloadedError, submit_plans
from .http import (
    MAX_HEADER_BYTES,
    ProtocolError,
    Request,
    end_chunked,
    read_request,
    send_chunk,
    send_json,
    send_text,
    start_stream,
    want_keep_alive,
)
from .registry import (
    DEFAULT_MAX_ENTRIES,
    DEFAULT_QUEUE_LIMIT,
    DatasetRegistry,
    DuplicateDatasetError,
    UnknownDatasetError,
    check_dataset_name,
)
from .tenants import AuthError, Tenant, TenantTable

__all__ = [
    "ConnectionState",
    "UnavailableError",
    "AsyncApp",
    "ServeApp",
    "ServerHandle",
    "ROUTES",
    "UNTRACED_ROUTES",
    "match_route",
    "records_line",
    "run_app",
    "run_server",
    "start_app_thread",
    "start_server_thread",
    "DEFAULT_IDLE_TIMEOUT",
    "DEFAULT_MAX_REQUESTS_PER_CONNECTION",
    "DEFAULT_DRAIN_TIMEOUT",
    "DEFAULT_BODY_TIMEOUT",
]

#: Seconds a keep-alive connection may sit idle between requests before
#: the server closes it.
DEFAULT_IDLE_TIMEOUT = 30.0

#: Requests served on one connection before the server closes it (bounds
#: how long a single client can pin one connection's resources).
DEFAULT_MAX_REQUESTS_PER_CONNECTION = 1000

#: Seconds a graceful shutdown waits for in-flight requests to finish
#: before cancelling them.
DEFAULT_DRAIN_TIMEOUT = 5.0

#: Seconds allowed to receive a declared request body.  Separate from —
#: and much larger than — the idle timeout, so a slow-but-progressing
#: large upload is never mistaken for an idle connection.
DEFAULT_BODY_TIMEOUT = 300.0

#: Lingering close after a framing error (RFC 7230 §6.6): the server
#: half-closes, then reads and discards what the client still sends
#: for at most this many seconds and bytes before closing.  Closing
#: with unread input makes the kernel answer with an RST, which can
#: destroy the error reply before the client has read it.
LINGER_SECONDS = 2.0
LINGER_MAX_BYTES = 256 * 1024


#: The protocol's routes, declared once for both tiers: ``(method,
#: route)`` → the name of the app method that answers it.  A ``{…}``
#: segment of a route matches one non-empty path segment, which the
#: handler receives, percent-decoded, as its first argument.  A path
#: that matches a route under another method is answered 405; a path
#: that matches no route is 404 and labelled ``other``.
ROUTES: Dict[Tuple[str, str], str] = {
    ("GET", "/health"): "_handle_health",
    ("GET", "/stats"): "_handle_stats",
    ("GET", "/metrics"): "_handle_metrics",
    ("GET", "/datasets"): "_handle_list",
    ("POST", "/datasets"): "_handle_register",
    ("DELETE", "/datasets/{name}"): "_handle_unregister",
    ("POST", "/datasets/{name}/events"): "_handle_append",
    ("POST", "/query"): "_handle_query",
    ("POST", "/shutdown"): "_handle_shutdown",
    ("GET", "/debug/traces"): "_handle_traces",
    ("GET", "/debug/traces/{id}"): "_handle_trace",
}

#: Routes that never open a trace: high-frequency probes and scrapes
#: (the router polls worker ``/health`` twice a second; tracing them
#: would churn every ring buffer) and the trace endpoints themselves.
UNTRACED_ROUTES = frozenset(
    {"/health", "/metrics", "/debug/traces", "/debug/traces/{id}"}
)

_ROUTE_SEGMENTS = {route: route.split("/") for _, route in ROUTES}


def match_route(path: str) -> Tuple[str, Optional[str]]:
    """The route of :data:`ROUTES` that ``path`` belongs to, and its
    percent-decoded parameter (``None`` for a route without one).

    Matching is by path segment, because dataset names never contain
    ``/``: a dataset may be called ``events``, and an empty segment or
    an extra one matches nothing.  An unmatched path is ``other``, so
    the ``route`` metrics label stays a bounded set whatever clients
    send.
    """
    if path in _ROUTE_SEGMENTS and "{" not in path:
        return path, None  # a route without a parameter
    parts = path.split("/")
    for route, pattern in _ROUTE_SEGMENTS.items():
        if len(pattern) != len(parts):
            continue
        param = None
        for want, got in zip(pattern, parts):
            if want.startswith("{") and got:
                param = unquote(got)
            elif want != got:
                break
        else:
            return route, param
    return "other", None


async def _lingering_close(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """Half-close, then drain the peer's input within the linger bounds."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + LINGER_SECONDS
    drained = 0
    try:
        if writer.can_write_eof():
            writer.write_eof()
        while drained < LINGER_MAX_BYTES:
            remaining = deadline - loop.time()
            if remaining <= 0:
                break
            chunk = await asyncio.wait_for(reader.read(65536), remaining)
            if not chunk:
                break  # the client closed its side: nothing left unread
            drained += len(chunk)
    except (OSError, asyncio.TimeoutError):
        pass  # out of time, or the peer is gone: close regardless


class UnavailableError(ReproError):
    """The request's target is temporarily gone (HTTP 503).

    Raised by front ends whose backends can come and go — the router's
    proxy uses it for queries that race a dead or restarting worker —
    so the connection loop answers with ``503`` + ``Retry-After``
    instead of hanging or tearing the connection down.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


@dataclass
class ConnectionState:
    """Per-request connection bookkeeping threaded through dispatch.

    ``keep_alive`` is the negotiated decision for the response being
    written (it picks the ``Connection`` header); ``broken`` is set
    when a streamed response was truncated mid-body, after which no
    further bytes may be written on the socket.
    """

    keep_alive: bool = False
    keep_alive_header: Optional[str] = None
    broken: bool = False
    #: The request's route in :data:`ROUTES` (``other`` when none
    #: matched) and its parameter, from :func:`match_route`.
    route: str = "other"
    param: Optional[str] = None
    #: HTTP status of the response written for this request (set by
    #: :meth:`AsyncApp._respond` and the streaming paths); feeds the
    #: ``status`` label of ``http_requests_total``.
    status: Optional[int] = None
    #: Per-request span collector (``None`` on untraced routes or when
    #: tracing is disabled) and the request's root span — dispatch code
    #: hangs child spans off the root, and 4xx/5xx bodies echo
    #: ``trace.trace_id`` so client-visible failures are findable.
    trace: Optional[TraceRecorder] = None
    root_span: Optional[SpanHandle] = None

    def response_headers(self) -> Dict[str, str]:
        """The negotiated ``Keep-Alive`` advertisement, when applicable."""
        if self.keep_alive and self.keep_alive_header:
            return {"Keep-Alive": self.keep_alive_header}
        return {}


class AsyncApp:
    """The shared half of an asyncio HTTP front end.

    Owns the keep-alive request loop, framing-error handling,
    idle/body timeouts, connection counters, graceful drain, the
    serve/run lifecycle and routing.  Routing comes from the
    :data:`ROUTES` table: :meth:`_dispatch` calls the handler the table
    names for the request's route, or answers 404/405.  This class
    answers the routes every front end serves the same way (``/stats``,
    ``/metrics``, ``/shutdown`` and the trace routes); subclasses
    supply the other handlers and :meth:`_cleanup` (resource teardown
    after drain).  :class:`ServeApp` answers from a dataset registry;
    :class:`repro.router.RouterApp` proxies onto a pool of worker
    processes.
    """

    #: Tier name prefixing root span names (``serve.request`` /
    #: ``router.request``); subclasses override.
    tier = "serve"

    def __init__(
        self,
        idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
        max_requests_per_connection: int = DEFAULT_MAX_REQUESTS_PER_CONNECTION,
        drain_timeout: float = DEFAULT_DRAIN_TIMEOUT,
        trace_sample: float = DEFAULT_TRACE_SAMPLE,
        slow_query_ms: float = DEFAULT_SLOW_QUERY_MS,
        tracing: bool = True,
    ) -> None:
        if idle_timeout <= 0:
            raise ValidationError(
                f"idle_timeout must be > 0 seconds, got {idle_timeout!r}"
            )
        if max_requests_per_connection < 1:
            raise ValidationError(
                "max_requests_per_connection must be >= 1, got "
                f"{max_requests_per_connection!r}"
            )
        self.idle_timeout = idle_timeout
        self.max_requests_per_connection = max_requests_per_connection
        self.drain_timeout = drain_timeout
        self.body_timeout = DEFAULT_BODY_TIMEOUT
        # monotonic: wall-clock steps (NTP, DST, manual) must never make
        # the reported uptime jump or go negative.
        self.started_monotonic = time.monotonic()
        #: Bound address, recorded when the listener comes up — the
        #: stable identity /stats reports.
        self.bound_host: Optional[str] = None
        self.bound_port: Optional[int] = None
        self._shutdown = asyncio.Event()
        #: Live connection task -> is it dispatching a request right now?
        #: (Only touched from the event loop; drives graceful drain.)
        self._conn_busy: Dict["asyncio.Task[None]", bool] = {}
        #: Connection tasks the shutdown drain cancelled; they end
        #: without an exception (see :meth:`handle_connection`).
        self._drained: Set["asyncio.Task[None]"] = set()
        #: The app's metric families (``GET /metrics``).  Per-app, not
        #: process-global, so several servers in one process (tests,
        #: router + embedded workers) scrape independently.
        self.metrics = MetricsRegistry()
        self._m_requests = self.metrics.counter(
            "http_requests_total",
            "Requests answered, by method, normalised route and status.",
            ("method", "route", "status"),
        )
        self._m_request_seconds = self.metrics.histogram(
            "http_request_seconds",
            "Request dispatch wall seconds (first byte read to response done).",
            ("route",),
        )
        self.metrics.callback(
            "process_uptime_seconds", "gauge",
            "Seconds since this front end started (monotonic clock).",
            lambda: [({}, time.monotonic() - self.started_monotonic)],
        )
        self._m_connections_opened = self.metrics.counter(
            "http_connections_opened_total", "TCP connections accepted."
        )
        self._m_connections_active = self.metrics.gauge(
            "http_connections_active", "Connections currently open."
        )
        self._m_keepalive_reuses = self.metrics.counter(
            "http_keepalive_reuses_total",
            "Requests served on an already-open connection.",
        )
        #: Per-process trace retention; ``None`` when tracing is off
        #: (the bench's untraced baseline) — no recorder is created and
        #: the request path pays only a ``None`` check.
        self.trace_store: Optional[TraceStore] = (
            TraceStore(sample=trace_sample, slow_ms=slow_query_ms)
            if tracing else None
        )
        # Families are registered whether or not tracing is enabled so
        # the exported name set is constant (docs-sync check).
        self.metrics.callback(
            "trace_stored_total", "counter",
            "Finished traces retained in this process's ring buffer.",
            lambda: [({}, self.trace_store.stored_total
                      if self.trace_store else 0)],
        )
        self.metrics.callback(
            "trace_sampled_out_total", "counter",
            "Fast, successful traces dropped by head sampling.",
            lambda: [({}, self.trace_store.sampled_out_total
                      if self.trace_store else 0)],
        )
        self.metrics.callback(
            "trace_evicted_total", "counter",
            "Stored traces evicted by the ring-buffer capacity bound.",
            lambda: [({}, self.trace_store.evicted_total
                      if self.trace_store else 0)],
        )
        self.metrics.callback(
            "trace_resident", "gauge",
            "Traces currently held in the ring buffer.",
            lambda: [({}, len(self.trace_store) if self.trace_store else 0)],
        )
        self.metrics.callback(
            "slow_queries_total", "counter",
            "Requests over --slow-query-ms logged to the slow-query log.",
            lambda: [({}, self.trace_store.slow_queries_total
                      if self.trace_store else 0)],
        )

    # ------------------------------------------------------------------
    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve requests on one connection until it should close.

        The keep-alive state machine: read a request (bounded by the
        idle timeout), negotiate persistence per HTTP/1.1 rules and the
        per-connection request cap, dispatch, repeat.  The loop exits on
        client EOF, ``Connection: close``, the cap, idle timeout,
        protocol errors (framing no longer trustworthy), a broken
        stream, or server shutdown.
        """
        task = asyncio.current_task()
        if task is not None:
            self._conn_busy[task] = False
        self._m_connections_opened.inc()
        self._m_connections_active.inc()
        served = 0
        try:
            while not self._shutdown.is_set():
                try:
                    # head_timeout is the keep-alive idle window; the
                    # body gets its own (much larger) bound inside
                    # read_request, so a slow large upload that is
                    # still making progress is not reaped as idle.
                    request = await read_request(
                        reader,
                        head_timeout=self.idle_timeout,
                        body_timeout=self.body_timeout,
                    )
                except asyncio.TimeoutError:
                    break  # idle past the keep-alive window
                except ProtocolError as exc:
                    # Framing is unreliable past this point (ambiguous
                    # lengths, unread body bytes): answer, then linger
                    # so the reply survives, then close.
                    await send_json(
                        writer, exc.status, {"error": str(exc)}, close=True
                    )
                    await _lingering_close(reader, writer)
                    break
                if request is None:
                    break  # clean EOF between requests
                served += 1
                if served > 1:
                    self._m_keepalive_reuses.inc()
                route, param = match_route(request.path)
                state = ConnectionState(
                    keep_alive=(
                        want_keep_alive(request)
                        and served < self.max_requests_per_connection
                        and not self._shutdown.is_set()
                    ),
                    route=route,
                    param=param,
                )
                if state.keep_alive:
                    state.keep_alive_header = (
                        f"timeout={int(self.idle_timeout)}, "
                        f"max={self.max_requests_per_connection - served}"
                    )
                if task is not None:
                    self._conn_busy[task] = True
                if self.trace_store is not None and route not in UNTRACED_ROUTES:
                    # Continue a propagated context (the router's, or a
                    # tracing client's) or open a fresh trace; the root
                    # span covers the whole dispatch.
                    ctx = parse_traceparent(
                        request.headers.get(TRACEPARENT_HEADER)
                    )
                    state.trace = TraceRecorder(
                        trace_id=ctx.trace_id if ctx else None,
                        parent_id=ctx.span_id if ctx else None,
                    )
                    state.root_span = state.trace.start_span(
                        f"{self.tier}.request",
                        parent_id=ctx.span_id if ctx else None,
                        attrs={"method": request.method},
                    )
                dispatch_t0 = time.perf_counter()
                try:
                    await self._dispatch(request, writer, state)
                except ProtocolError as exc:
                    await self._respond(writer, state, exc.status, {"error": str(exc)})
                except AuthError as exc:
                    await self._respond(writer, state, 401, {"error": str(exc)})
                except ValidationError as exc:
                    await self._respond(writer, state, 400, {"error": str(exc)})
                except UnknownDatasetError as exc:
                    await self._respond(writer, state, 404, {"error": str(exc)})
                except OverloadedError as exc:
                    await self._respond(
                        writer,
                        state,
                        429,
                        {"error": str(exc), "retry_after": exc.retry_after},
                        extra_headers={"Retry-After": str(int(exc.retry_after) or 1)},
                    )
                except UnavailableError as exc:
                    await self._respond(
                        writer,
                        state,
                        503,
                        {"error": str(exc), "retry_after": exc.retry_after},
                        extra_headers={"Retry-After": str(int(exc.retry_after) or 1)},
                    )
                except Exception as exc:  # noqa: BLE001 - last-resort 500
                    await self._respond(
                        writer, state, 500, {"error": f"{type(exc).__name__}: {exc}"}
                    )
                finally:
                    if task is not None:
                        self._conn_busy[task] = False
                    self._m_requests.labels(
                        method=request.method,
                        route=route,
                        status=str(state.status or 0),
                    ).inc()
                    self._m_request_seconds.labels(route=route).observe(
                        time.perf_counter() - dispatch_t0
                    )
                    self._finish_trace(state)
                if state.broken or not state.keep_alive:
                    break
        except (ConnectionError, asyncio.TimeoutError):
            pass  # peer went away; admission slots are freed by callbacks
        except asyncio.CancelledError:
            # Stopped by the shutdown drain: end without an exception.
            # On Python 3.11 and 3.12 asyncio's start_server callback
            # calls exception() on a cancelled connection task, which
            # raises and logs a traceback.  Other cancellations propagate.
            if task not in self._drained:
                raise
        finally:
            self._m_connections_active.dec()
            if task is not None:
                self._conn_busy.pop(task, None)
                self._drained.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, asyncio.TimeoutError):
                pass

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        state: ConnectionState,
        status: int,
        payload: Any,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        """One complete JSON response with the negotiated framing headers.

        Error replies (4xx/5xx) carry the request's ``trace_id`` so a
        client-visible failure can be looked up in the trace store —
        the correlation id the batch error bodies used to lack.
        """
        state.status = status
        if (
            status >= 400
            and state.trace is not None
            and isinstance(payload, dict)
            and "trace_id" not in payload
        ):
            payload = {**payload, "trace_id": state.trace.trace_id}
            if state.root_span is not None:
                state.root_span.set_error(str(payload.get("error", "")))
        headers = {**state.response_headers(), **(extra_headers or {})}
        await send_json(
            writer, status, payload,
            extra_headers=headers, close=not state.keep_alive,
        )

    async def _start_stream(
        self, request: Request, writer: asyncio.StreamWriter,
        state: ConnectionState, status: int,
    ) -> bool:
        """Open a streamed NDJSON response; returns whether it is chunked.

        HTTP/1.0 clients must never be sent chunked framing (RFC 7230
        §3.3.1): they get raw NDJSON delimited by connection close, so
        their connection cannot be kept alive.
        """
        state.status = status
        chunked = request.version != "HTTP/1.0"
        if not chunked:
            state.keep_alive = False
        await start_stream(
            writer, status,
            extra_headers=state.response_headers() or None,
            close=not state.keep_alive,
            chunked=chunked,
        )
        return chunked

    @staticmethod
    def _register_body(request: Request) -> Mapping[str, Any]:
        """A ``POST /datasets`` body, checked the same way on both tiers:
        ``{"name": ..., "dataset": {spec}}`` with a valid dataset name."""
        doc = request.json()
        if not isinstance(doc, Mapping) or "name" not in doc or "dataset" not in doc:
            raise ProtocolError(
                400, "register body must be {'name': ..., 'dataset': {spec}}"
            )
        check_dataset_name(doc["name"])
        return doc

    # ------------------------------------------------------------------
    def _finish_trace(self, state: ConnectionState) -> None:
        """Close the request's root span and offer the trace for retention."""
        if state.trace is None or state.root_span is None:
            return
        root = state.root_span
        root.set_attr("route", state.route)
        if state.status is not None:
            root.set_attr("status", state.status)
            if state.status >= 400 and root.span.status == "ok":
                root.set_error(f"HTTP {state.status}")
        if state.broken and root.span.status == "ok":
            # A truncated stream (peer gone, worker killed mid-relay)
            # is an error outcome even though the status line said 200.
            root.set_error("response stream truncated")
        span = root.finish()
        assert self.trace_store is not None  # guarded at creation
        self.trace_store.offer(
            state.trace,
            route=state.route,
            status=span.status,
            duration_ms=span.duration * 1000.0,
            attrs={
                "dataset": span.attrs.get("dataset"),
                "tenant": span.attrs.get("tenant"),
                "template": span.attrs.get("template"),
            },
        )

    def _require_traces(self) -> TraceStore:
        """The trace store; 503 on a process with tracing off."""
        if self.trace_store is None:
            raise UnavailableError("tracing is disabled on this process")
        return self.trace_store

    async def _handle_traces(
        self, request: Request, writer: asyncio.StreamWriter, state: ConnectionState
    ) -> None:
        """``GET /debug/traces``: recent trace summaries, filterable."""
        store = self._require_traces()
        params = parse_qs(request.query)

        def _one(key: str) -> Optional[str]:
            values = params.get(key)
            return values[-1] if values else None

        min_ms: Optional[float] = None
        raw_min = _one("min_ms") or _one("min_duration_ms")
        if raw_min is not None:
            try:
                min_ms = float(raw_min)
            except ValueError:
                raise ProtocolError(400, f"bad min_ms value: {raw_min!r}")
        limit = 50
        raw_limit = _one("limit")
        if raw_limit is not None:
            try:
                limit = max(1, min(500, int(raw_limit)))
            except ValueError:
                raise ProtocolError(400, f"bad limit value: {raw_limit!r}")
        traces = store.recent(
            limit=limit,
            min_duration_ms=min_ms,
            dataset=_one("dataset"),
            route=_one("route"),
        )
        await self._respond(
            writer, state, 200, {"traces": traces, "store": store.stats()}
        )

    async def _handle_trace(
        self, trace_id: str, request: Request, writer: asyncio.StreamWriter,
        state: ConnectionState,
    ) -> None:
        """``GET /debug/traces/<id>``: one trace's full span tree."""
        doc = await self._trace_document(trace_id)
        if doc is None:
            await self._respond(
                writer, state, 404,
                {"error": f"unknown trace {trace_id!r} (evicted, sampled "
                          "out, or never seen by this process)"},
            )
            return
        await self._respond(writer, state, 200, doc)

    async def _trace_document(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """Full trace document for one id (router overrides to stitch in
        the owning worker's spans)."""
        return self._require_traces().get(trace_id)

    async def _dispatch(
        self, request: Request, writer: asyncio.StreamWriter, state: ConnectionState
    ) -> None:
        """Run the handler :data:`ROUTES` names for the request's route."""
        handler = ROUTES.get((request.method, state.route))
        if handler is None:
            if state.route == "other":
                raise ProtocolError(404, f"no route for {request.path!r}")
            raise ProtocolError(405, f"{request.method} not allowed on {request.path}")
        params = () if state.param is None else (state.param,)
        await getattr(self, handler)(*params, request, writer, state)

    async def _handle_stats(
        self, request: Request, writer: asyncio.StreamWriter, state: ConnectionState
    ) -> None:
        await self._respond(writer, state, 200, self.stats())

    async def _handle_shutdown(
        self, request: Request, writer: asyncio.StreamWriter, state: ConnectionState
    ) -> None:
        state.keep_alive = False
        await self._respond(writer, state, 200, {"ok": True, "stopping": True})
        self._shutdown.set()

    # ------------------------------------------------------------------
    async def _metrics_text(self) -> str:
        """The exposition body of ``GET /metrics`` (router overrides to
        merge in its workers' re-labelled scrapes)."""
        return self.metrics.render()

    async def _handle_metrics(
        self, request: Request, writer: asyncio.StreamWriter, state: ConnectionState
    ) -> None:
        text = await self._metrics_text()
        state.status = 200
        await send_text(
            writer, 200, text,
            content_type=METRICS_CONTENT_TYPE,
            extra_headers=state.response_headers() or None,
            close=not state.keep_alive,
        )

    # ------------------------------------------------------------------
    def identity(self) -> Dict[str, Any]:
        """Stable process identity: pid, bound address, monotonic age."""
        return {
            "pid": os.getpid(),
            "host": self.bound_host,
            "port": self.bound_port,
            "started_age_seconds": time.monotonic() - self.started_monotonic,
        }

    def stats(self) -> Dict[str, Any]:
        """The ``GET /stats`` document: identity and connection settings.

        It holds no counts; every count is an instrument in ``/metrics``.
        """
        return {
            "server": {
                "identity": self.identity(),
                "connections": {
                    "idle_timeout_seconds": self.idle_timeout,
                    "max_requests_per_connection": self.max_requests_per_connection,
                },
            }
        }

    # ------------------------------------------------------------------
    async def serve(self, host: str, port: int) -> "asyncio.AbstractServer":
        # limit= bounds the reader's buffer, so an oversized request head
        # overruns readuntil() at MAX_HEADER_BYTES instead of sitting in
        # asyncio's 64 KiB default buffer before our size check runs.
        # (Bodies are unaffected: readexactly() drains past the limit.)
        return await asyncio.start_server(
            self.handle_connection, host, port, limit=MAX_HEADER_BYTES
        )

    async def _drain_connections(self) -> None:
        """Finish in-flight requests, then cancel whatever remains.

        Idle keep-alive connections (parked between requests) are
        cancelled immediately — there is nothing to wait for.  Busy
        connections get ``drain_timeout`` seconds to finish their
        current response before being cancelled too.
        """
        busy, idle = [], []
        for conn_task, is_busy in list(self._conn_busy.items()):
            if conn_task.done():
                continue
            (busy if is_busy else idle).append(conn_task)
        self._drained.update(idle)
        for conn_task in idle:
            conn_task.cancel()
        if busy:
            _done, pending = await asyncio.wait(busy, timeout=self.drain_timeout)
            self._drained.update(pending)
            for conn_task in pending:
                conn_task.cancel()
        leftovers = [t for t in (*idle, *busy) if not t.done()]
        if leftovers:
            await asyncio.wait(leftovers, timeout=1.0)

    def _cleanup(self) -> None:
        """Tear down the app's resources after the connection drain.

        Runs in ``run_until_shutdown``'s ``finally`` even when the
        drain itself was cancelled (Ctrl-C).  Subclasses close what
        they own: the registry's shard executors, the router's worker
        pool.
        """

    async def run_until_shutdown(
        self,
        host: str,
        port: int,
        on_bound: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        """Serve until ``POST /shutdown`` (or cancellation), then clean up.

        Shutdown is graceful: the listener closes first (no new
        connections), open connections drain per
        :meth:`_drain_connections`, and only then does :meth:`_cleanup`
        release the app's resources.
        """
        server = await self.serve(host, port)
        sockets = server.sockets or ()
        bound = sockets[0].getsockname()[:2] if sockets else (host, port)
        self.bound_host, self.bound_port = bound[0], bound[1]
        if on_bound is not None:
            on_bound(bound[0], bound[1])
        try:
            await self._shutdown.wait()
        finally:
            server.close()
            try:
                await self._drain_connections()
                await server.wait_closed()
            finally:
                # Even if the drain itself is cancelled (Ctrl-C), the
                # app's resources must still be torn down.
                self._cleanup()

    def request_shutdown(self) -> None:
        """Thread-safe shutdown trigger for embedding runners."""
        self._shutdown.set()


class ServeApp(AsyncApp):
    """Answer the protocol from the registry and the async bridge.

    ``settings`` are :class:`AsyncApp`'s connection and tracing
    settings, passed through.
    """

    def __init__(
        self,
        max_entries: Optional[int] = DEFAULT_MAX_ENTRIES,
        max_workers: Optional[int] = None,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        default_backend: Optional[str] = None,
        tenants: Optional[TenantTable] = None,
        **settings: Any,
    ) -> None:
        super().__init__(**settings)
        self.registry = DatasetRegistry(
            max_entries=max_entries,
            max_workers=max_workers,
            queue_limit=queue_limit,
            default_backend=default_backend,
            metrics=self.metrics,
        )
        #: Optional tenant table (``--api-keys``): when set, ``POST
        #: /query`` requires a known ``X-API-Key`` and is metered per
        #: tenant (fair shares + quotas).
        self.tenants = tenants
        if tenants is not None:
            self.registry.set_tenant_weights(tenants.weights())
        # Tenant families are registered unconditionally — with no
        # tenant table they render as empty families — so the metric
        # name set is identical with and without QoS enabled (the
        # docs-sync check depends on that).
        self._m_tenant_queries = self.metrics.counter(
            "serve_tenant_queries_total",
            "Queries admitted per tenant.",
            ("tenant",),
        )
        self._m_tenant_rejections = self.metrics.counter(
            "serve_tenant_rejections_total",
            "Per-tenant rejections by reason: queue, share or quota.",
            ("tenant", "reason"),
        )
        self.metrics.callback(
            "serve_tenant_quota_remaining", "gauge",
            "Queries left in the tenant's current per-minute quota window.",
            self._tenant_quota_samples,
        )

    def _tenant_quota_samples(self):
        if self.tenants is None:
            return []
        return [
            ({"tenant": name}, remaining)
            for name, (_, remaining) in sorted(self.tenants.quota_snapshot().items())
        ]

    def _resolve_tenant(self, request: Request) -> Optional[Tenant]:
        """The caller's tenant, or ``None`` when QoS is not configured.

        Raises :class:`AuthError` (→ 401) for a missing or unknown
        ``X-API-Key`` once a tenant table is loaded.
        """
        if self.tenants is None:
            return None
        return self.tenants.resolve(request.headers.get("x-api-key"))

    # ------------------------------------------------------------------
    async def _handle_health(
        self, request: Request, writer: asyncio.StreamWriter, state: ConnectionState
    ) -> None:
        await self._respond(
            writer, state, 200, {"ok": True, "datasets": len(self.registry)}
        )

    async def _handle_list(
        self, request: Request, writer: asyncio.StreamWriter, state: ConnectionState
    ) -> None:
        await self._respond(
            writer,
            state,
            200,
            {
                "datasets": [
                    self.registry.get(name).describe()
                    for name in self.registry.names()
                ]
            },
        )

    async def _handle_register(
        self, request: Request, writer: asyncio.StreamWriter, state: ConnectionState
    ) -> None:
        doc = self._register_body(request)
        name = doc["name"]
        replace = bool(doc.get("replace", False))
        loop = asyncio.get_running_loop()
        # Materialising a workload can be seconds of numpy work — keep it
        # off the event loop so health checks and queries stay live.  The
        # registry reserves the name before building, so duplicates (racy
        # or not) are rejected without wasting a build.
        try:
            shard = await loop.run_in_executor(
                None,
                lambda: self.registry.register(
                    name,
                    doc["dataset"],
                    max_entries=doc.get("max_entries"),
                    max_workers=doc.get("max_workers"),
                    queue_limit=doc.get("queue_limit"),
                    default_backend=doc.get("default_backend"),
                    replace=replace,
                ),
            )
        except DuplicateDatasetError as exc:
            await self._respond(writer, state, 409, {"error": str(exc)})
            return
        await self._respond(writer, state, 201, {"registered": shard.describe()})

    async def _handle_unregister(
        self, name: str, request: Request, writer: asyncio.StreamWriter,
        state: ConnectionState,
    ) -> None:
        """``DELETE /datasets/<name>`` — close the shard and forget it.

        The router needs this for rebalancing (moving a dataset off a
        worker); operators need it standalone to reclaim a shard's
        index cache and thread pool without a restart.  Closing the
        executor waits for running queries (their admission slots are
        released by done-callbacks), so it runs off the event loop like
        registration does.
        """
        loop = asyncio.get_running_loop()
        # Raises UnknownDatasetError -> the connection loop answers 404.
        shard = await loop.run_in_executor(None, self.registry.remove, name)
        await self._respond(writer, state, 200, {"removed": shard.describe()})

    async def _handle_append(
        self, name: str, request: Request, writer: asyncio.StreamWriter,
        state: ConnectionState,
    ) -> None:
        """``POST /datasets/<name>/events`` — append an NDJSON event batch.

        The body is one event per line (``{"point": ..., "start": ...,
        "end": ...}``).  Appends are single-writer per shard
        (:meth:`~repro.serve.registry.DatasetShard.append_events` holds
        the shard's append lock) and bump the dataset epoch; the
        response reports the new epoch plus accepted/rejected counts.
        Parsing and index maintenance are CPU work, so they run off the
        event loop like registration does.
        """
        if not request.body:
            raise ProtocolError(400, "event batch body must not be empty")
        # Raises UnknownDatasetError -> the connection loop answers 404.
        shard = self.registry.get(name)
        loop = asyncio.get_running_loop()
        report = await loop.run_in_executor(
            None, shard.append_events, request.body
        )
        await self._respond(writer, state, 200, {"appended": report})

    async def _handle_query(
        self, request: Request, writer: asyncio.StreamWriter, state: ConnectionState
    ) -> None:
        doc = request.json()
        if not isinstance(doc, Mapping):
            raise ProtocolError(400, "query body must be a JSON object")
        queries = doc.get("queries")
        if isinstance(doc.get("dataset"), Mapping):
            raise ProtocolError(
                400,
                "inline dataset specs are not accepted here; register the "
                "dataset via POST /datasets and query it by name",
            )
        name = doc.get("dataset")
        if not isinstance(name, str):
            raise ProtocolError(400, "query body needs a 'dataset' name")
        if not isinstance(queries, list) or not queries:
            raise ProtocolError(400, "query body needs a non-empty 'queries' list")
        include_records = bool(doc.get("include_records", True))

        tenant = self._resolve_tenant(request)  # may raise AuthError → 401
        shard = self.registry.get(name)
        root = state.root_span
        if root is not None:
            root.set_attr("dataset", name)
            if tenant is not None:
                root.set_attr("tenant", tenant.name)
        # Per-dataset default backend; precedence rules (explicit wins,
        # kind-aware) live in one place: engine.spec.apply_default_backend.
        queries = apply_default_backend(queries, shard.default_backend)
        plan_span = None
        if state.trace is not None and root is not None:
            plan_span = state.trace.start_span(
                "serve.plan", parent_id=root.span_id,
                attrs={"queries": len(queries)},
            )
        try:
            specs = []
            for i, q in enumerate(queries):
                try:
                    specs.append(QuerySpec.from_dict(q))
                except ValidationError as exc:
                    raise ValidationError(f"query #{i}: {exc}") from exc
            plans = plan_batch(specs, shard.tps)
        except ValidationError as exc:
            if plan_span is not None:
                plan_span.set_error(str(exc))
                plan_span.finish()
            raise
        if plan_span is not None:
            plan_span.finish()
        if root is not None and plans:
            root.set_attr("template", plans[0].spec.kind)
        if tenant is not None:
            # Quota before admission: a breach must not consume queue
            # slots.  check_and_consume only commits on success, so a
            # rejected burst does not eat the next window either.
            retry_after = self.tenants.check_and_consume(tenant.name, len(plans))
            if retry_after is not None:
                self._m_tenant_rejections.labels(
                    tenant=tenant.name, reason="quota"
                ).inc(len(plans))
                raise OverloadedError(
                    f"tenant {tenant.name!r} exceeded its per-minute quota; "
                    "retry after the window resets",
                    retry_after=retry_after,
                    reason="quota",
                )
        try:
            # May raise OverloadedError → 429 (shard limit or fair share).
            futures = submit_plans(
                shard, plans, tenant=tenant.name if tenant is not None else None,
                recorder=state.trace,
                parent_span_id=root.span_id if root is not None else None,
            )
        except OverloadedError as exc:
            if tenant is not None:
                self._m_tenant_rejections.labels(
                    tenant=tenant.name, reason=exc.reason
                ).inc(len(plans))
            raise
        if tenant is not None:
            self._m_tenant_queries.labels(tenant=tenant.name).inc(len(plans))

        t0 = time.perf_counter()
        chunked = await self._start_stream(request, writer, state, 200)
        trace_id = state.trace.trace_id if state.trace is not None else None
        start_line = {"type": "batch-start", "dataset": name, "queries": len(plans)}
        if trace_id is not None:
            start_line["trace_id"] = trace_id
        streamed = await send_chunk(writer, start_line, chunked=chunked)
        n_errors = 0
        activity = CacheStats()
        try:
            for i, future in enumerate(futures):
                result = await future
                if not result.ok:
                    n_errors += 1
                activity += result.cache_activity
                # Lines are produced one at a time and sent as they come;
                # time both activities, summed over the lines.
                start = time.time()
                encode = write = 0.0
                t = time.perf_counter()
                for line in _result_lines(i, result, include_records, trace_id=trace_id):
                    t_line = time.perf_counter()
                    encode += t_line - t
                    streamed += await send_chunk(writer, line, chunked=chunked)
                    t = time.perf_counter()
                    write += t - t_line
                encode += time.perf_counter() - t
                if state.trace is not None and root is not None:
                    # Encode and write alternate line by line with no gap
                    # between them, so drawn back to back the two spans
                    # cover the query's streaming interval exactly.
                    for span, at, seconds in (
                        ("serve.encode", start, encode),
                        ("serve.write", start + encode, write),
                    ):
                        state.trace.add_timed(
                            span, parent_id=root.span_id, start=at,
                            duration=seconds, attrs={"query": i},
                        )
            end_line = {
                "type": "batch-end",
                "dataset": name,
                "queries": len(plans),
                "errors": n_errors,
                "ok": n_errors == 0,
                "wall_seconds": time.perf_counter() - t0,
                "cache": activity.as_dict(),
            }
            if trace_id is not None:
                end_line["trace_id"] = trace_id
            streamed += await send_chunk(writer, end_line, chunked=chunked)
            if n_errors and root is not None:
                # Per-query failures stream inside a 200 body; the root
                # span still records them so the trace is never sampled
                # away and `status=error` is searchable.
                root.set_error(f"{n_errors} of {len(plans)} queries failed")
            if chunked:
                await end_chunked(writer)
        except asyncio.CancelledError:
            # Cancelled mid-stream (shutdown drain, task teardown): the
            # chunked body has no terminator, so this connection can
            # never carry another response — mark it broken and close
            # the transport *now* so no later write can interleave with
            # the half-written stream, then let cancellation propagate.
            state.broken = True
            writer.close()
            raise
        except Exception:
            # The response status line is already on the wire: a second
            # one (a 500 reply) would splice a malformed response into
            # the chunked body.  Whatever went wrong mid-stream —
            # client hang-up, socket error, a worker torn down by
            # shutdown — the only sound move is to stop writing; the
            # truncated stream (no terminal 0-chunk) tells the client
            # the batch did not finish, and in-flight work still
            # completes on the shard executor, releasing admission via
            # the done-callbacks.  ``broken`` makes the connection loop
            # close the socket instead of reusing it.
            state.broken = True
        finally:
            # Counted whether or not the stream finished: a truncated
            # stream's bytes still crossed the wire.
            shard.record_streamed(streamed)

    # ------------------------------------------------------------------
    def _cleanup(self) -> None:
        self.registry.close()


def records_line(index: int, tau: float, records: Sequence[Any]) -> str:
    """The ``records`` NDJSON line of query ``index`` at ``tau``, encoded
    (without its newline).

    A :class:`~repro.blocks.RecordBlock` writes its array straight from
    its columns; a list of record objects goes through
    :func:`record_to_dict` and ``json.dumps``.  Both give the bytes
    ``json.dumps`` gives for the whole line (DESIGN.md note 9).
    """
    head = json.dumps({"type": "records", "query": index, "tau": tau, "count": len(records)})
    if isinstance(records, RecordBlock):
        body = records.json_array()
    else:
        body = json.dumps([record_to_dict(r) for r in records])
    return f'{head[:-1]}, "records": {body}}}'


def _result_lines(index: int, result: QueryResult, include_records: bool,
                  trace_id: Optional[str] = None):
    """The NDJSON lines one finished query contributes to the stream:
    its encoded ``records`` lines, then its ``result`` line.

    Every ``result`` line — success or per-query error — carries the
    request's ``trace_id`` so a client can correlate any line of the
    envelope with the stored trace.
    """
    if result.ok and include_records:
        for tau, records in result.records_by_tau.items():
            yield records_line(index, tau, records)
    line = {
        "type": "result",
        "query": index,
        "label": result.spec.label,
        "kind": result.spec.kind,
        "taus": list(result.spec.taus),
        "ok": result.ok,
        "error": result.error,
        "counts": {str(tau): len(r) for tau, r in result.records_by_tau.items()},
        "cache_hit": result.cache_hit,
        "build_seconds": result.build_seconds,
        "query_seconds": result.query_seconds,
    }
    if trace_id is not None:
        line["trace_id"] = trace_id
    if result.stages:
        line["stages"] = [dict(s) for s in result.stages]
    yield line


# ----------------------------------------------------------------------
def run_app(app: AsyncApp, host: str, port: int, announce=None) -> None:
    """Serve ``app`` until it shuts down (blocking; Ctrl-C stops it too).

    ``announce(host, port, app)`` runs once the listener is bound.
    """
    on_bound = None
    if announce is not None:
        on_bound = lambda h, p: announce(h, p, app)
    try:
        asyncio.run(app.run_until_shutdown(host, port, on_bound=on_bound))
    except KeyboardInterrupt:
        pass


def run_server(
    host: str = "127.0.0.1",
    port: int = 8765,
    datasets: Optional[Mapping[str, Mapping[str, Any]]] = None,
    api_keys: Optional[str] = None,
    announce=None,
    **settings: Any,
) -> None:
    """Blocking entry point for ``python -m repro serve``.

    ``settings`` are :class:`ServeApp`'s; ``api_keys`` is the path of
    its tenant table.
    """
    app = ServeApp(
        tenants=TenantTable.from_file(api_keys) if api_keys else None, **settings
    )
    for name, spec in (datasets or {}).items():
        app.registry.register(name, spec)
    run_app(app, host, port, announce)


class ServerHandle:
    """An in-process front end running on a background thread.

    Used by the tests, the bench drivers and the example client: start
    on an ephemeral port, poke it over real sockets, stop it cleanly.
    Works for any :class:`AsyncApp` (serve or router).
    """

    def __init__(self, app: AsyncApp, host: str, port: int,
                 thread: threading.Thread, loop: asyncio.AbstractEventLoop) -> None:
        self.app = app
        self.host = host
        self.port = port
        self._thread = thread
        self._loop = loop

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def stop(self, timeout: float = 10.0) -> None:
        """Request shutdown and join the server thread (idempotent)."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.app.request_shutdown)
        self._thread.join(timeout)
        if self._thread.is_alive():  # pragma: no cover - defensive
            raise RuntimeError("server thread did not stop in time")


def start_app_thread(
    app: AsyncApp,
    host: str = "127.0.0.1",
    port: int = 0,
    boot_timeout: float = 15.0,
    thread_name: str = "repro-serve",
) -> ServerHandle:
    """Run any :class:`AsyncApp` on a daemon thread; returns once bound."""
    booted = threading.Event()
    state: Dict[str, Any] = {}

    def _run() -> None:
        def on_bound(bound_host: str, bound_port: int) -> None:
            state["host"], state["port"] = bound_host, bound_port
            state["loop"] = asyncio.get_running_loop()
            booted.set()

        try:
            asyncio.run(app.run_until_shutdown(host, port, on_bound=on_bound))
        except BaseException as exc:  # pragma: no cover - surfaced via boot
            state["error"] = exc
            booted.set()

    thread = threading.Thread(target=_run, name=thread_name, daemon=True)
    thread.start()
    if not booted.wait(boot_timeout) or "error" in state:
        raise RuntimeError(f"server failed to boot: {state.get('error')!r}")
    return ServerHandle(app, state["host"], state["port"], thread, state["loop"])


def start_server_thread(
    host: str = "127.0.0.1",
    port: int = 0,
    boot_timeout: float = 15.0,
    **settings: Any,
) -> ServerHandle:
    """Start a server on a daemon thread; returns once it is listening.

    ``settings`` are :class:`ServeApp`'s.
    """
    return start_app_thread(ServeApp(**settings), host, port, boot_timeout=boot_timeout)
