"""The routing front end: one public port over N worker processes.

:class:`RouterApp` speaks the exact same NDJSON-over-HTTP protocol as
the single-process serve layer — both answer from one route table,
:data:`repro.serve.server.ROUTES`, so clients cannot tell the
difference — but owns **placement** instead of shards:

* ``POST   /datasets`` picks the owning worker by rendezvous (HRW)
  hashing over slot ids (:mod:`repro.router.placement`), forwards the
  registration, and records the placement in the manifest that
  restart-with-replay trusts;
* ``POST   /query`` proxies the owning worker's chunked NDJSON stream
  line by line — per-query fault isolation and incremental τ-sweep
  delivery survive the extra hop, and a worker dying mid-stream
  surfaces as a cleanly truncated chunked body (no terminal 0-chunk),
  exactly like a direct serve crash would;
* ``POST   /datasets/<name>/events`` forwards an NDJSON event batch to
  the owning worker verbatim and, once the worker accepts it, records
  the batch in the manifest's event log — restart-with-replay and
  router boots then restore appended state, not just the seed;
* ``DELETE /datasets/<name>`` forwards to the owner and releases the
  placement (the rebalancing primitive);
* ``GET    /stats`` answers from the router alone: its identity and
  connection settings, the placement map, and the supervisor's record
  of every worker slot (pid, address, generation, restarts); it
  reports no counts and makes no upstream request;
* ``GET    /metrics`` scrapes every live worker's ``/metrics``,
  re-labels each worker's samples with ``worker="<slot>"``, and merges
  them with the router's own families into one Prometheus text
  exposition — one scrape covers the whole fleet, and every count in
  it is there;
* ``POST   /shutdown`` drains the router's connections, then fans the
  shutdown out to the fleet.

``X-API-Key`` headers pass through ``POST /query`` untouched: tenant
resolution, fair shares and quotas are enforced by the owning worker
(boot the fleet with ``--api-keys`` to enable them), and the workers'
tenant-labelled metrics come back through the fleet scrape.

Queries that race a dead or restarting worker get ``503`` +
``Retry-After`` (via :class:`~repro.serve.server.UnavailableError`),
never a hang: connects to a dead loopback port fail fast, restarting
slots are flagged by the supervisor, and one transparent retry on a
stale pooled connection separates "worker closed an idle socket" from
"worker is gone".

Upstream connections are pooled per ``(slot, generation)`` — the
router holds keep-alive sockets to each worker just like clients hold
them to the router — and a worker restart (new generation) strands the
old generation's sockets, which then fail their next use and are
discarded.
"""

from __future__ import annotations

import asyncio
import json
from collections import deque
from typing import Any, Deque, Dict, Optional, Tuple
from urllib.parse import quote

from ..errors import ValidationError
from ..obs import ExpositionError, parse_exposition, relabel, render_merged
from ..obs.trace import TRACEPARENT_HEADER, format_traceparent
from ..serve.client import decode_reply
from ..serve.http import ProtocolError, Request, end_chunked
from ..serve.registry import UnknownDatasetError
from ..serve.server import AsyncApp, ConnectionState, UnavailableError
from .manifest import PlacementManifest
from .placement import choose_worker
from .supervisor import WorkerPool, WorkerStatus, worker_request

__all__ = ["RouterApp"]

#: Seconds to establish a TCP connection to a worker.  Loopback either
#: connects instantly or refuses instantly; anything slower means the
#: worker is in real trouble and 503 is the right answer.
CONNECT_TIMEOUT = 5.0

#: Seconds for a worker to answer a proxied *non-streaming* round trip
#: (register may materialise a workload, so it gets a generous bound).
UPSTREAM_TIMEOUT = 120.0

#: Seconds for one worker's answer during a fan-out (the fleet scrape,
#: trace stitching); a slow worker is skipped instead of stalling it.
FANOUT_TIMEOUT = 5.0

#: Everything that can go wrong talking to a worker over a socket.
_UPSTREAM_ERRORS = (
    OSError,
    ConnectionError,
    asyncio.IncompleteReadError,
    asyncio.TimeoutError,
)


class RouterApp(AsyncApp):
    """Answer the protocol by proxying onto the worker pool.

    ``settings`` are :class:`~repro.serve.server.AsyncApp`'s connection
    and tracing settings, passed through.
    """

    tier = "router"

    def __init__(
        self,
        pool: WorkerPool,
        manifest: Optional[PlacementManifest] = None,
        **settings: Any,
    ) -> None:
        super().__init__(**settings)
        self.pool = pool
        self.manifest = manifest if manifest is not None else pool.manifest
        #: Idle upstream keep-alive sockets per (slot, generation).
        self._upstream: Dict[
            Tuple[str, int],
            Deque[Tuple[asyncio.StreamReader, asyncio.StreamWriter]],
        ] = {}
        self._register_router_metrics()

    def _register_router_metrics(self) -> None:
        """The ``router_*`` families (on top of AsyncApp's ``http_*``).

        Proxy and upstream counts are instruments, incremented where
        the event happens.  Callbacks read the supervisor's records
        and the upstream pool; they run on the event-loop thread (the
        scrape is served there), so reading the pool is race-free.
        """
        m = self.metrics

        def per_worker(field):
            def collect():
                return [
                    ({"worker": slot}, info[field])
                    for slot, info in sorted(self.pool.stats().items())
                ]

            return collect

        m.callback(
            "router_workers", "gauge", "Configured worker slots.",
            lambda: [({}, len(self.pool.slots()))],
        )
        m.callback(
            "router_worker_up", "gauge",
            "1 when the slot's process is running and announced, else 0.",
            lambda: [
                ({"worker": s.slot}, 1 if s.running else 0)
                for s in self.pool.statuses()
            ],
        )
        m.callback(
            "router_worker_restarts_total", "counter",
            "Times the slot's process was restarted by the supervisor.",
            per_worker("restarts"),
        )
        m.callback(
            "router_worker_probe_failures_total", "counter",
            "Failed health probes against the slot (cumulative).",
            per_worker("probe_failures_total"),
        )
        m.callback(
            "router_worker_replay_errors_total", "counter",
            "Manifest replay registrations that failed after a restart.",
            per_worker("replay_errors"),
        )
        self._m_proxied = m.counter(
            "router_proxied_queries_total", "Query streams proxied to workers."
        )
        self._m_unavailable = m.counter(
            "router_proxy_unavailable_total",
            "Requests answered 503 because the owning worker was gone.",
        )
        self._m_registrations = m.counter(
            "router_registrations_total",
            "Dataset registrations placed onto workers.",
        )
        self._m_deletions = m.counter(
            "router_deletions_total", "Dataset deletions forwarded to workers."
        )
        self._m_appends = m.counter(
            "router_forwarded_appends_total",
            "Event-batch appends forwarded to owning workers and accepted.",
        )
        m.callback(
            "router_replayed_event_batches_total", "counter",
            "Event batches re-appended from the manifest during replay "
            "(worker restarts and router boots).",
            lambda: [({}, self.pool.replayed_event_batches_total)],
        )
        self._m_upstream_connects = m.counter(
            "router_upstream_connects_total",
            "Fresh TCP connections opened to workers.",
        )
        self._m_upstream_reuses = m.counter(
            "router_upstream_reuses_total",
            "Upstream requests served on a pooled keep-alive socket.",
        )

        def pool_idle():
            out: Dict[str, int] = {}
            for (slot, _generation), idle in self._upstream.items():
                out[slot] = out.get(slot, 0) + len(idle)
            return [({"worker": slot}, n) for slot, n in sorted(out.items())]

        m.callback(
            "router_upstream_pool_idle", "gauge",
            "Idle pooled sockets held per worker.",
            pool_idle,
        )
        self._m_relay_bytes = m.counter(
            "router_relay_bytes_total",
            "Streamed NDJSON payload bytes relayed from workers to clients.",
            ("worker",),
        )
        self._m_scrape_errors = m.counter(
            "router_worker_scrape_errors_total",
            "Worker /metrics scrapes that failed or were malformed.",
            ("worker",),
        )

    # ------------------------------------------------------------------
    # Upstream connection management
    # ------------------------------------------------------------------
    def _worker_for(self, name: str) -> Tuple[str, WorkerStatus]:
        """The (slot, live status) owning ``name``; 404/503 otherwise."""
        entry = self.manifest.get(name)
        if entry is None:
            raise UnknownDatasetError(name, self.manifest.names())
        status = self.pool.status(entry.worker)
        if not status.running:
            self._m_unavailable.inc()
            raise UnavailableError(
                f"worker {entry.worker!r} owning dataset {name!r} is "
                "restarting; retry shortly",
                retry_after=2.0,
            )
        return entry.worker, status

    async def _connect(
        self, status: WorkerStatus
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        try:
            conn = await asyncio.wait_for(
                asyncio.open_connection(status.host, status.port),
                CONNECT_TIMEOUT,
            )
            self._m_upstream_connects.inc()
            return conn
        except (OSError, asyncio.TimeoutError) as exc:
            self._m_unavailable.inc()
            raise UnavailableError(
                f"worker {status.slot!r} at {status.host}:{status.port} is not "
                f"accepting connections ({type(exc).__name__}); retry shortly",
                retry_after=2.0,
            ) from exc

    def _pool_key(self, status: WorkerStatus) -> Tuple[str, int]:
        return (status.slot, status.generation)

    def _take_pooled(
        self, status: WorkerStatus
    ) -> Optional[Tuple[asyncio.StreamReader, asyncio.StreamWriter]]:
        idle = self._upstream.get(self._pool_key(status))
        while idle:
            reader, writer = idle.popleft()
            if writer.is_closing() or reader.at_eof():
                writer.close()
                continue
            self._m_upstream_reuses.inc()
            return reader, writer
        return None

    def _release(
        self,
        status: WorkerStatus,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        reusable: bool,
    ) -> None:
        # A restart bumped the slot's generation: sockets pooled for the
        # dead process will never be taken again — close them now so a
        # flapping worker can't leak one deque of FDs per restart.
        key = self._pool_key(status)
        stale = [k for k in self._upstream if k[0] == status.slot and k != key]
        for stale_key in stale:
            for _reader, stale_writer in self._upstream.pop(stale_key):
                stale_writer.close()
        if reusable and not writer.is_closing():
            self._upstream.setdefault(key, deque()).append((reader, writer))
        else:
            writer.close()

    def _close_upstream(self) -> None:
        for idle in self._upstream.values():
            for _reader, writer in idle:
                writer.close()
        self._upstream.clear()

    # ------------------------------------------------------------------
    @staticmethod
    async def _send_upstream(
        writer: asyncio.StreamWriter,
        status: WorkerStatus,
        method: str,
        path: str,
        body: bytes,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        lines = [
            f"{method} {path} HTTP/1.1",
            f"Host: {status.host}:{status.port}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    @staticmethod
    async def _read_upstream_head(
        reader: asyncio.StreamReader,
    ) -> Tuple[int, Dict[str, str]]:
        line = await reader.readline()
        if not line:
            raise ConnectionError("worker closed the connection")
        parts = line.decode("latin-1").split(None, 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ConnectionError(f"malformed worker status line: {line!r}")
        headers: Dict[str, str] = {}
        while True:
            hline = await reader.readline()
            if hline in (b"\r\n", b"\n"):
                break
            if not hline:
                raise ConnectionError("worker closed mid-headers")
            name, _sep, value = hline.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return int(parts[1]), headers

    async def _upstream_request(
        self,
        status: WorkerStatus,
        method: str,
        path: str,
        body: bytes,
        head_timeout: float,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], asyncio.StreamReader, asyncio.StreamWriter]:
        """Acquire a connection, send one request, read the response head.

        One shared retry policy for JSON round trips and streamed
        queries alike: a stale pooled socket (the worker idle-timed it
        out, or its request cap closed it) gets one transparent retry
        on a fresh connection; a fresh connection failing means the
        worker is actually gone → 503.  The caller owns the returned
        connection — it must consume the body and then
        :meth:`_release` (or close) it.
        """
        for attempt in ("pooled", "fresh"):
            conn = self._take_pooled(status) if attempt == "pooled" else None
            pooled = conn is not None
            if conn is None:
                conn = await self._connect(status)
            reader, writer = conn
            try:
                await self._send_upstream(
                    writer, status, method, path, body, headers
                )
                code, headers = await asyncio.wait_for(
                    self._read_upstream_head(reader), head_timeout
                )
            except _UPSTREAM_ERRORS as exc:
                writer.close()
                if pooled:
                    continue  # stale keep-alive socket: retry fresh once
                self._m_unavailable.inc()
                raise UnavailableError(
                    f"worker {status.slot!r} dropped the proxied request "
                    f"({type(exc).__name__}); retry shortly",
                    retry_after=2.0,
                ) from exc
            return code, headers, reader, writer
        raise AssertionError("unreachable: fresh attempt returns or raises")

    async def _read_upstream_body(
        self,
        status: WorkerStatus,
        headers: Dict[str, str],
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        timeout: float,
    ) -> bytes:
        """Consume a ``Content-Length`` body and release the connection."""
        try:
            length = int(headers.get("content-length", "0"))
            raw = await asyncio.wait_for(reader.readexactly(length), timeout)
        except _UPSTREAM_ERRORS as exc:
            # The head arrived but the body did not: the worker really
            # failed mid-response; no retry.
            writer.close()
            self._m_unavailable.inc()
            raise UnavailableError(
                f"worker {status.slot!r} dropped the proxied reply "
                f"({type(exc).__name__}); retry shortly",
                retry_after=2.0,
            ) from exc
        keep = headers.get("connection", "keep-alive").lower() != "close"
        self._release(status, reader, writer, reusable=keep)
        return raw

    async def _roundtrip(
        self,
        status: WorkerStatus,
        method: str,
        path: str,
        body: bytes = b"",
        timeout: float = UPSTREAM_TIMEOUT,
    ) -> Tuple[int, Any]:
        """One round trip to a worker over a pooled connection; returns
        the status and the decoded JSON reply."""
        code, headers, reader, writer = await self._upstream_request(
            status, method, path, body, timeout
        )
        raw = await self._read_upstream_body(
            status, headers, reader, writer, timeout
        )
        return code, decode_reply(raw)

    # ------------------------------------------------------------------
    # Route handlers (the routes themselves are serve.server.ROUTES)
    # ------------------------------------------------------------------
    async def _handle_health(
        self, request: Request, writer: asyncio.StreamWriter, state: ConnectionState
    ) -> None:
        statuses = self.pool.statuses()
        await self._respond(
            writer,
            state,
            200,
            {
                "ok": True,
                "role": "router",
                "workers": {
                    "total": len(statuses),
                    "alive": sum(1 for s in statuses if s.running),
                },
                "datasets": len(self.manifest),
            },
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
                    {
                        "name": entry.name,
                        "worker": entry.worker,
                        "dataset": entry.payload.get("dataset"),
                        "event_batches": len(entry.events),
                    }
                    for entry in sorted(
                        self.manifest.entries(), key=lambda e: e.name
                    )
                ]
            },
        )

    async def _trace_document(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """One stitched cross-process span tree for ``trace_id``.

        The router's own spans (root + proxy) are merged with the span
        sets of every running worker that retained the trace — the same
        fan-out machinery as the fleet ``/metrics`` scrape.  Worker
        spans were created from the forwarded ``traceparent``, so their
        subtree roots parent directly onto the router's proxy span and
        the merged list is a single tree.  Each process samples
        independently, so a partial answer (worker kept it, router
        evicted it, or vice versa) still renders.
        """
        own = self._require_traces().get(trace_id)
        spans = list(own["spans"]) if own else []

        async def fetch(slot: str):
            status = self.pool.status(slot)
            if not status.running:
                return None
            try:
                code, doc = await self._roundtrip(
                    status, "GET",
                    f"/debug/traces/{quote(trace_id, safe='')}",
                    timeout=FANOUT_TIMEOUT,
                )
            except UnavailableError:
                return None
            if code != 200 or not isinstance(doc, dict):
                return None
            return slot, doc

        fetched = await asyncio.gather(
            *(fetch(slot) for slot in self.pool.slots())
        )
        workers = []
        for item in fetched:
            if item is None:
                continue
            slot, doc = item
            workers.append(slot)
            for span in doc.get("spans", ()):
                span = dict(span)
                attrs = dict(span.get("attrs") or {})
                attrs.setdefault("worker", slot)
                span["attrs"] = attrs
                spans.append(span)
        if not spans:
            return None
        base: Dict[str, Any] = dict(own) if own else {"trace_id": trace_id}
        base["spans"] = spans
        base["stitched"] = True
        base["workers"] = workers
        return base

    async def _metrics_text(self) -> str:
        """One scrape for the whole fleet.

        Every running worker's ``/metrics`` is fetched over the pooled
        upstream connections, strictly re-parsed, re-labelled with
        ``worker="<slot>"`` and merged after the router's own families.
        A worker that is down, slow, or emits a malformed exposition is
        skipped (and counted in ``router_worker_scrape_errors_total``)
        rather than poisoning the fleet scrape.
        """
        own = {family.name: family for family in self.metrics.collect()}

        async def scrape(slot: str):
            status = self.pool.status(slot)
            if not status.running:
                return None
            try:
                code, headers, reader, writer = await self._upstream_request(
                    status, "GET", "/metrics", b"", FANOUT_TIMEOUT
                )
                raw = await self._read_upstream_body(
                    status, headers, reader, writer, FANOUT_TIMEOUT
                )
                if code != 200:
                    raise ExpositionError(0, f"worker answered HTTP {code}")
                return relabel(
                    parse_exposition(raw.decode("utf-8")), worker=slot
                )
            except (UnavailableError, ExpositionError, UnicodeDecodeError):
                self._m_scrape_errors.labels(worker=slot).inc()
                return None

        scraped = await asyncio.gather(
            *(scrape(slot) for slot in self.pool.slots())
        )
        return render_merged(own, *(m for m in scraped if m is not None))

    # ------------------------------------------------------------------
    async def _handle_register(
        self, request: Request, writer: asyncio.StreamWriter, state: ConnectionState
    ) -> None:
        doc = self._register_body(request)
        name = doc["name"]
        replace = bool(doc.get("replace", False))
        existing = self.manifest.get(name)
        if existing is not None and not replace:
            # Mirror the worker's own duplicate answer without a hop —
            # the owning worker may not even be the placement target
            # anymore (e.g. the fleet size changed across a restart).
            await self._respond(
                writer,
                state,
                409,
                {
                    "error": f"dataset {name!r} is already registered; "
                    "pass replace to overwrite"
                },
            )
            return
        slot = choose_worker(name, self.pool.slots())
        status = self.pool.status(slot)
        if not status.running:
            self._m_unavailable.inc()
            raise UnavailableError(
                f"placement chose worker {slot!r}, which is restarting; "
                "retry shortly",
                retry_after=2.0,
            )
        code, body = await self._roundtrip(
            status, "POST", "/datasets",
            json.dumps(dict(doc, replace=replace)).encode(),
        )
        if code == 201:
            self._m_registrations.inc()
            old = self.manifest.record(name, slot, doc)
            if old is not None and old.worker != slot:
                # replace=True moved the dataset (fleet changed since it
                # was placed): evict the stale shard, best-effort.
                await self._forward_delete(old.worker, name)
            if isinstance(body, dict):
                body["worker"] = slot
        await self._respond(writer, state, code, body)

    async def _forward_delete(self, slot: str, name: str) -> Tuple[int, Any]:
        """Best-effort ``DELETE`` on a worker; unreachable workers are
        fine (their next restart replays only what the manifest says)."""
        try:
            status = self.pool.status(slot)
        except ValidationError:
            return 0, None
        if not status.running:
            return 0, None
        try:
            # Names may hold spaces etc. (only "/" is banned): percent-
            # encode for the request line, mirroring the worker's unquote.
            return await self._roundtrip(
                status, "DELETE", f"/datasets/{quote(name, safe='')}",
                timeout=30.0,
            )
        except UnavailableError:
            return 0, None

    async def _handle_unregister(
        self, name: str, request: Request, writer: asyncio.StreamWriter,
        state: ConnectionState,
    ) -> None:
        entry = self.manifest.get(name)
        if entry is None:
            raise UnknownDatasetError(name, self.manifest.names())
        code, body = await self._forward_delete(entry.worker, name)
        # The manifest entry goes regardless: once the operator deletes
        # a dataset, a later worker restart must not resurrect it.  An
        # unreachable worker's stale shard dies with its process.
        self.manifest.remove(name)
        self._m_deletions.inc()
        payload: Dict[str, Any] = {"removed": name, "worker": entry.worker}
        if code == 200 and isinstance(body, dict):
            payload["dataset"] = body.get("removed")
        elif code == 0:
            payload["worker_unreachable"] = True
        await self._respond(writer, state, 200, payload)

    async def _handle_append(
        self, name: str, request: Request, writer: asyncio.StreamWriter,
        state: ConnectionState,
    ) -> None:
        """``POST /datasets/<name>/events`` — forward to the owner.

        The NDJSON body passes through verbatim.  A batch the worker
        *accepted* — any accepted count, even alongside rejected lines
        — is recorded in the manifest's event log, so
        restart-with-replay and router boots restore the appended
        state, not just the seed registration.
        """
        if not request.body:
            raise ProtocolError(400, "event batch body must not be empty")
        slot, status = self._worker_for(name)
        code, body = await self._roundtrip(
            status, "POST", f"/datasets/{quote(name, safe='')}/events",
            request.body,
        )
        if code == 200:
            self._m_appends.inc()
            report = body.get("appended") if isinstance(body, dict) else None
            accepted = report.get("accepted", 0) if isinstance(report, dict) else 0
            if accepted:
                # Log only batches that changed state: an all-rejected
                # batch bumps nothing, and replaying it would be noise.
                self.manifest.record_events(
                    name, request.body.decode("utf-8", "replace")
                )
            if isinstance(body, dict):
                body["worker"] = slot
        await self._respond(writer, state, code, body)

    # ------------------------------------------------------------------
    async def _handle_query(
        self, request: Request, writer: asyncio.StreamWriter, state: ConnectionState
    ) -> None:
        doc = request.json()
        if not isinstance(doc, dict):
            raise ProtocolError(400, "query body must be a JSON object")
        name = doc.get("dataset")
        if isinstance(name, dict):
            raise ProtocolError(
                400,
                "inline dataset specs are not accepted here; register the "
                "dataset via POST /datasets and query it by name",
            )
        if not isinstance(name, str):
            raise ProtocolError(400, "query body needs a 'dataset' name")
        slot, status = self._worker_for(name)
        proxy_span = None
        if state.trace is not None and state.root_span is not None:
            state.root_span.set_attr("dataset", name)
            proxy_span = state.trace.start_span(
                "router.proxy",
                parent_id=state.root_span.span_id,
                attrs={"worker": slot, "dataset": name},
            )
        # Tenant identity rides along untouched: the owning worker is
        # the enforcement point for shares and quotas.
        forward: Dict[str, str] = {}
        api_key = request.headers.get("x-api-key")
        if api_key is not None:
            forward["X-API-Key"] = api_key
        if proxy_span is not None:
            # Propagate the context on the upstream socket: the worker
            # continues this trace with the proxy span as its parent,
            # which is what lets /debug/traces/<id> stitch one tree.
            forward[TRACEPARENT_HEADER] = format_traceparent(
                proxy_span.trace_id, proxy_span.span_id
            )
        try:
            code, up_headers, up_reader, up_writer = await self._upstream_request(
                status, "POST", "/query", request.body, UPSTREAM_TIMEOUT,
                headers=forward or None,
            )
        except UnavailableError as exc:
            if proxy_span is not None:
                proxy_span.set_error(str(exc))
                proxy_span.finish()
            raise

        if up_headers.get("transfer-encoding", "").lower() != "chunked":
            # Non-streaming answer (400/404/429/…): relay it whole.
            payload = decode_reply(await self._read_upstream_body(
                status, up_headers, up_reader, up_writer, UPSTREAM_TIMEOUT
            ))
            extra = {}
            if code in (429, 503) and "retry-after" in up_headers:
                extra["Retry-After"] = up_headers["retry-after"]
            if proxy_span is not None:
                proxy_span.set_attr("status", code)
                if code >= 400:
                    proxy_span.set_error(f"HTTP {code}")
                proxy_span.finish()
            await self._respond(
                writer, state, code, payload, extra_headers=extra or None
            )
            return

        # Streaming answer: re-frame the worker's chunked NDJSON to the
        # client chunk by chunk.  Every chunk is one NDJSON line, so the
        # incremental τ-sweep delivery survives the hop.
        self._m_proxied.inc()
        chunked = await self._start_stream(request, writer, state, code)
        try:
            complete, relayed = await self._relay_chunks(up_reader, writer, chunked)
            self._m_relay_bytes.labels(worker=slot).inc(relayed)
            if proxy_span is not None:
                proxy_span.set_attr("relayed_bytes", relayed)
            if complete:
                if chunked:
                    await end_chunked(writer)
                if proxy_span is not None:
                    proxy_span.finish()
                # Honour the worker's own close decision (e.g. its
                # per-connection request cap) — pooling a closing
                # socket would burn the stale-socket retry next time.
                up_keep = (
                    up_headers.get("connection", "keep-alive").lower() != "close"
                )
                self._release(status, up_reader, up_writer, reusable=up_keep)
            else:
                # The worker died (or its stream broke) mid-body: the
                # client's stream is truncated without a terminator —
                # the same contract as a direct serve crash — and this
                # connection can't carry another response.
                state.broken = True
                if proxy_span is not None:
                    proxy_span.set_error("worker stream truncated")
                    proxy_span.finish()
                up_writer.close()
        except asyncio.CancelledError:
            state.broken = True
            if proxy_span is not None:
                proxy_span.set_error("relay cancelled")
                proxy_span.finish()
            up_writer.close()
            writer.close()
            raise
        except Exception as exc:
            # Client-side write failure mid-stream: stop writing, drop
            # both sockets (the upstream body position is unknowable).
            state.broken = True
            if proxy_span is not None:
                proxy_span.set_error(f"{type(exc).__name__}: {exc}")
                proxy_span.finish()
            up_writer.close()

    @staticmethod
    async def _relay_chunks(
        up_reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        chunked: bool,
    ) -> Tuple[bool, int]:
        """Relay one chunked body → ``(complete, payload_bytes)``.

        ``complete`` is ``True`` iff the terminal chunk arrived.  Parses
        the worker's chunk framing rather than blind-piping bytes, so
        the router knows the difference between a complete stream
        (reusable upstream socket, terminator owed to the client) and a
        truncated one (worker died — propagate the truncation), and can
        account the payload bytes it relayed either way.
        """
        relayed = 0
        try:
            while True:
                size_line = await up_reader.readline()
                if not size_line.endswith(b"\r\n"):
                    return False, relayed  # EOF mid-framing
                try:
                    size = int(size_line.strip().split(b";", 1)[0], 16)
                except ValueError:
                    return False, relayed
                if size == 0:
                    # Terminal chunk; consume the trailing CRLF (the
                    # serve layer never sends trailers).
                    await up_reader.readexactly(2)
                    return True, relayed
                payload = await up_reader.readexactly(size)
                await up_reader.readexactly(2)  # chunk CRLF
                if chunked:
                    writer.write(
                        f"{size:x}\r\n".encode("latin-1") + payload + b"\r\n"
                    )
                else:
                    writer.write(payload)
                relayed += size
                await writer.drain()
        except (OSError, ConnectionError, asyncio.IncompleteReadError):
            return False, relayed

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """The ``GET /stats`` document, answered without an upstream hop."""
        router = super().stats()["server"]
        router["placement"] = {
            "policy": "rendezvous (HRW)",
            "datasets": self.manifest.placements(),
        }
        return {"router": router, "workers": self.pool.stats()}

    # ------------------------------------------------------------------
    def bootstrap(self) -> int:
        """Re-register every manifest entry onto its placed worker.

        Called (blocking, before the listener binds) when a router
        starts with a persisted manifest: placement is recomputed —
        deterministic HRW gives the same worker for an unchanged
        fleet — the seed registration is replayed with ``replace=True``
        followed by the entry's recorded event batches in order, and
        the manifest is updated (event log preserved) in case the
        fleet *did* change.  Returns the number of datasets restored.
        """
        restored = 0
        for entry in self.manifest.entries():
            slot = choose_worker(entry.name, self.pool.slots())
            status = self.pool.status(slot)
            if not status.running:
                continue  # supervisor will replay once the slot is back
            errors, _last = self.pool.replay_entry(
                status.host, status.port, entry
            )
            if errors == 0:
                self.manifest.record(
                    entry.name, slot, entry.payload, events=entry.events
                )
                restored += 1
        return restored

    def register_blocking(self, name: str, dataset_spec: Any) -> str:
        """Boot-time registration (CLI ``--dataset``); returns the slot."""
        payload = {"name": name, "dataset": dataset_spec}
        slot = choose_worker(name, self.pool.slots())
        status = self.pool.status(slot)
        code, body = worker_request(
            status.host, status.port, "POST", "/datasets",
            dict(payload, replace=True), timeout=UPSTREAM_TIMEOUT,
        )
        if code != 201:
            raise ValidationError(
                f"boot registration of dataset {name!r} on {slot!r} failed: "
                f"HTTP {code} {body[:200]!r}"
            )
        self.manifest.record(name, slot, payload)
        return slot

    def _cleanup(self) -> None:
        self._close_upstream()
        self.pool.stop(graceful=True)
