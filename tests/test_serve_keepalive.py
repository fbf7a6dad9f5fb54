"""Keep-alive protocol coverage for the serving front end (ISSUE 3).

Drives the persistent-connection state machine over raw sockets (so
framing is asserted byte-exactly) and ``http.client`` (a real pooling
client): sequential and pipelined requests on one socket, keep-alive
negotiation (HTTP/1.0 vs 1.1, ``Connection: close``), idle-timeout
close, the per-connection request cap, graceful drain on shutdown, and
regressions for the framing bugfixes — duplicate/conflicting
``Content-Length``, ``Content-Length`` + ``Transfer-Encoding``,
reader-bounded oversized heads, monotonic uptime, and cancellation
mid-chunked-stream.
"""

import asyncio
import http.client
import json
import logging
import socket
import threading
import time
import types

import pytest

from repro.obs import counter_value, parse_exposition
from repro.serve import start_server_thread
from repro.serve.http import MAX_HEADER_BYTES, Request, want_keep_alive
from repro.serve.server import ConnectionState, ServeApp

from conftest import random_tps

SOCIAL_SPEC = {"workload": "social", "n": 80, "seed": 5}


# ----------------------------------------------------------------------
# Raw-socket helpers: exact bytes in, parsed frames out
# ----------------------------------------------------------------------
class RawConnection:
    """A raw TCP client that parses HTTP responses byte-exactly."""

    def __init__(self, handle, timeout=10.0):
        self.sock = socket.create_connection((handle.host, handle.port), timeout=timeout)
        self.buf = b""

    def send_request(self, method, path, headers=(), body=b"", version="HTTP/1.1",
                     content_length=None):
        lines = [f"{method} {path} {version}", "Host: test"]
        if content_length is None and (body or method == "POST"):
            lines.append(f"Content-Length: {len(body)}")
        elif content_length is not None:
            lines.append(f"Content-Length: {content_length}")
        lines.extend(headers)
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        self.sock.sendall(head + body)

    def _fill(self):
        data = self.sock.recv(65536)
        if not data:
            raise ConnectionError("peer closed the connection")
        self.buf += data

    def _read_until(self, marker):
        while marker not in self.buf:
            self._fill()
        out, self.buf = self.buf.split(marker, 1)
        return out

    def _read_n(self, n):
        while len(self.buf) < n:
            self._fill()
        out, self.buf = self.buf[:n], self.buf[n:]
        return out

    def read_response(self):
        """Parse one response: (status, headers, body-bytes)."""
        head = self._read_until(b"\r\n\r\n").decode("latin-1")
        lines = head.split("\r\n")
        status = int(lines[0].split()[1])
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        if headers.get("transfer-encoding") == "chunked":
            body = b""
            while True:
                size = int(self._read_until(b"\r\n"), 16)
                chunk = self._read_n(size + 2)
                assert chunk.endswith(b"\r\n"), f"chunk not CRLF-terminated: {chunk!r}"
                if size == 0:
                    assert chunk == b"\r\n", f"stray bytes after terminator: {chunk!r}"
                    break
                body += chunk[:-2]
        elif "content-length" in headers:
            body = self._read_n(int(headers["content-length"]))
        else:
            # EOF-delimited body (identity framing, HTTP/1.0 streams).
            body = self.buf
            self.buf = b""
            while True:
                data = self.sock.recv(65536)
                if not data:
                    break
                body += data
        return status, headers, body

    def read_json(self):
        status, headers, body = self.read_response()
        return status, headers, json.loads(body)

    def expect_eof(self, timeout=5.0):
        """The server must close without sending any further bytes."""
        assert not self.buf, f"unconsumed bytes before EOF: {self.buf!r}"
        self.sock.settimeout(timeout)
        assert self.sock.recv(4096) == b""

    def close(self):
        self.sock.close()


def pooled_json(conn, method, path, body=None):
    """One request over a shared http.client connection."""
    conn.request(
        method, path,
        body=json.dumps(body) if body is not None else None,
        headers={"Content-Type": "application/json"},
    )
    resp = conn.getresponse()
    return resp.status, dict(resp.getheaders()), resp.read()


def pooled_scrape(conn):
    """``GET /metrics`` over a shared connection, strictly parsed."""
    status, _, data = pooled_json(conn, "GET", "/metrics")
    assert status == 200
    return parse_exposition(data.decode())


@pytest.fixture(scope="module")
def server():
    handle = start_server_thread(queue_limit=8)
    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=30)
    status, _, _ = pooled_json(
        conn, "POST", "/datasets", {"name": "soc", "dataset": SOCIAL_SPEC}
    )
    conn.close()
    assert status == 201
    yield handle
    handle.stop()


# ----------------------------------------------------------------------
# Keep-alive request loop
# ----------------------------------------------------------------------
class TestKeepAlive:
    def test_sequential_requests_on_one_socket(self, server):
        raw = RawConnection(server)
        try:
            for i in range(3):
                raw.send_request("GET", "/health")
                status, headers, doc = raw.read_json()
                assert status == 200 and doc["ok"] is True
                assert headers["connection"] == "keep-alive"
                assert "timeout=" in headers["keep-alive"]
                assert "max=" in headers["keep-alive"]
        finally:
            raw.close()

    def test_pipelined_requests_are_answered_in_order(self, server):
        raw = RawConnection(server)
        try:
            # Two requests in one write: the loop must answer both, in
            # order, with byte-exact framing between them.
            raw.send_request("GET", "/health")
            raw.send_request("GET", "/stats")
            status1, _, doc1 = raw.read_json()
            status2, _, doc2 = raw.read_json()
            assert status1 == 200 and doc1["ok"] is True
            assert status2 == 200 and "identity" in doc2["server"]
        finally:
            raw.close()

    def test_interleaved_query_stats_health_on_reused_connection(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            status, _, data = pooled_json(conn, "GET", "/stats")
            assert status == 200
            before = pooled_scrape(conn)
            status, headers, data = pooled_json(
                conn, "POST", "/query",
                {"dataset": "soc",
                 "queries": [{"kind": "triangles", "taus": [2.0, 3.0]}]},
            )
            assert status == 200
            assert headers["Connection"] == "keep-alive"
            lines = [json.loads(ln) for ln in data.decode().strip().split("\n")]
            assert lines[-1]["type"] == "batch-end" and lines[-1]["ok"] is True
            status, _, _ = pooled_json(conn, "GET", "/health")
            assert status == 200
            after = pooled_scrape(conn)

            def grew(name):
                return counter_value(after, name) - counter_value(before, name)

            # Three requests since the baseline (a scrape counts itself
            # once it is answered), zero new connections.
            assert grew("http_requests_total") == 3
            assert grew("http_connections_opened_total") == 0
            assert grew("http_keepalive_reuses_total") == 3
        finally:
            conn.close()

    def test_connection_close_header_is_honoured(self, server):
        raw = RawConnection(server)
        try:
            raw.send_request("GET", "/health", headers=["Connection: close"])
            status, headers, _ = raw.read_json()
            assert status == 200
            assert headers["connection"] == "close"
            assert "keep-alive" not in headers
            raw.expect_eof()
        finally:
            raw.close()

    def test_http10_defaults_to_close(self, server):
        raw = RawConnection(server)
        try:
            raw.send_request("GET", "/health", version="HTTP/1.0")
            status, headers, _ = raw.read_json()
            assert status == 200 and headers["connection"] == "close"
            raw.expect_eof()
        finally:
            raw.close()

    def test_http10_keep_alive_opt_in(self, server):
        raw = RawConnection(server)
        try:
            raw.send_request(
                "GET", "/health", version="HTTP/1.0",
                headers=["Connection: keep-alive"],
            )
            status, headers, _ = raw.read_json()
            assert status == 200 and headers["connection"] == "keep-alive"
            raw.send_request("GET", "/health")  # still open: serve another
            status, _, _ = raw.read_json()
            assert status == 200
        finally:
            raw.close()

    def test_http10_query_stream_is_identity_framed_and_closes(self, server):
        # HTTP/1.0 clients must never be sent chunked framing (RFC 7230
        # §3.3.1): the /query stream is raw NDJSON delimited by
        # connection close for them, even if they asked for keep-alive.
        raw = RawConnection(server)
        try:
            body = json.dumps(
                {"dataset": "soc",
                 "queries": [{"kind": "triangles", "tau": 2.0}],
                 "include_records": False}
            ).encode()
            raw.send_request(
                "POST", "/query", body=body, version="HTTP/1.0",
                headers=["Connection: keep-alive"],
            )
            status, headers, data = raw.read_response()
            assert status == 200 and headers["connection"] == "close"
            assert "transfer-encoding" not in headers
            # The EOF-delimited body is plain NDJSON — every line must
            # parse directly, with no chunk-size framing interleaved.
            lines = [json.loads(ln) for ln in data.decode().strip().split("\n")]
            assert lines[0]["type"] == "batch-start"
            assert lines[-1]["type"] == "batch-end" and lines[-1]["ok"] is True
        finally:
            raw.close()

    def test_want_keep_alive_rules(self):
        assert want_keep_alive(Request("GET", "/")) is True
        assert want_keep_alive(Request("GET", "/", headers={"connection": "close"})) is False
        assert want_keep_alive(
            Request("GET", "/", headers={"connection": "Keep-Alive, Upgrade"})
        ) is True
        assert want_keep_alive(Request("GET", "/", version="HTTP/1.0")) is False
        assert want_keep_alive(
            Request("GET", "/", headers={"connection": "keep-alive"}, version="HTTP/1.0")
        ) is True

    def test_error_responses_keep_the_connection_alive(self, server):
        # Application-level errors (routing, validation) consume the
        # whole request, so the connection stays reusable.
        raw = RawConnection(server)
        try:
            raw.send_request("GET", "/nope")
            status, headers, _ = raw.read_json()
            assert status == 404 and headers["connection"] == "keep-alive"
            body = json.dumps({"dataset": "ghost", "queries": [{"kind": "triangles", "tau": 2.0}]}).encode()
            raw.send_request("POST", "/query", body=body)
            status, headers, _ = raw.read_json()
            assert status == 404 and headers["connection"] == "keep-alive"
            raw.send_request("GET", "/health")
            status, _, doc = raw.read_json()
            assert status == 200 and doc["ok"] is True
        finally:
            raw.close()


class TestConnectionBounds:
    def test_idle_timeout_closes_the_connection(self):
        handle = start_server_thread(idle_timeout=0.3)
        try:
            raw = RawConnection(handle)
            try:
                raw.send_request("GET", "/health")
                status, headers, _ = raw.read_json()
                assert status == 200 and headers["connection"] == "keep-alive"
                t0 = time.monotonic()
                raw.expect_eof(timeout=5.0)  # no request within 0.3s -> close
                assert time.monotonic() - t0 < 4.0
            finally:
                raw.close()
            # A connection that never sends anything is reaped too.
            raw = RawConnection(handle)
            try:
                raw.expect_eof(timeout=5.0)
            finally:
                raw.close()
        finally:
            handle.stop()

    def test_stalled_body_times_out_with_400_not_idle_close(self):
        # The idle timeout must only cover the wait for a request head;
        # a body that stops arriving gets its own bound and an explicit
        # 400, instead of being silently reaped as an idle connection.
        handle = start_server_thread(idle_timeout=30.0)
        handle.app.body_timeout = 0.3
        try:
            raw = RawConnection(handle)
            try:
                raw.send_request("POST", "/query", body=b"{..", content_length=10)
                status, headers, doc = raw.read_json()
                assert status == 400 and "timed out" in doc["error"]
                assert headers["connection"] == "close"
                raw.expect_eof()
            finally:
                raw.close()
        finally:
            handle.stop()

    def test_slowly_arriving_body_is_not_reaped_as_idle(self):
        # A body that keeps making progress past the idle window must
        # still be served: the head wait is the only idle-bounded read.
        handle = start_server_thread(idle_timeout=0.4)
        try:
            raw = RawConnection(handle)
            try:
                body = b'{"unknown": 1}'
                raw.send_request("POST", "/datasets", content_length=len(body))
                for ch in body:  # trickle: ~0.7s total, > idle_timeout
                    raw.sock.sendall(bytes([ch]))
                    time.sleep(0.05)
                status, _, doc = raw.read_json()
                # Answered on the merits (bad register body -> 400 with
                # the route's message), not dropped mid-upload.
                assert status == 400 and "register body" in doc["error"]
            finally:
                raw.close()
        finally:
            handle.stop()

    def test_max_requests_per_connection_cap(self):
        handle = start_server_thread(max_requests_per_connection=2)
        try:
            raw = RawConnection(handle)
            try:
                raw.send_request("GET", "/health")
                status, headers, _ = raw.read_json()
                assert status == 200 and headers["connection"] == "keep-alive"
                assert headers["keep-alive"].endswith("max=1")
                raw.send_request("GET", "/health")
                status, headers, _ = raw.read_json()
                assert status == 200 and headers["connection"] == "close"
                raw.expect_eof()
            finally:
                raw.close()
        finally:
            handle.stop()

    def test_stats_reports_connection_counters(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            _, _, data = pooled_json(conn, "GET", "/stats")
            connections = json.loads(data)["server"]["connections"]
            assert connections["idle_timeout_seconds"] == 30.0
            assert connections["max_requests_per_connection"] == 1000
            families = pooled_scrape(conn)
            assert counter_value(families, "http_connections_opened_total") >= 1
            # At least this connection.
            assert counter_value(families, "http_connections_active") >= 1
            assert counter_value(families, "http_keepalive_reuses_total") >= 1
        finally:
            conn.close()


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------
class TestShutdownDrain:
    def test_inflight_stream_finishes_before_shutdown(self, monkeypatch):
        import repro.serve.bridge as bridge_mod
        from repro.engine.executor import execute_plan as real_execute

        def slow_execute(plan, cache, raise_on_error=True, trace=None):
            time.sleep(0.4)
            return real_execute(plan, cache, raise_on_error, trace=trace)

        handle = start_server_thread(queue_limit=8)
        try:
            conn = http.client.HTTPConnection(handle.host, handle.port, timeout=30)
            status, _, _ = pooled_json(
                conn, "POST", "/datasets",
                {"name": "d", "dataset": {"workload": "uniform", "n": 40}},
            )
            assert status == 201
            monkeypatch.setattr(bridge_mod, "execute_plan", slow_execute)

            outcome = {}

            def issue_query():
                c = http.client.HTTPConnection(handle.host, handle.port, timeout=30)
                try:
                    outcome["status"], _, outcome["data"] = pooled_json(
                        c, "POST", "/query",
                        {"dataset": "d",
                         "queries": [{"kind": "triangles", "tau": 0.5}],
                         "include_records": False},
                    )
                finally:
                    c.close()

            t = threading.Thread(target=issue_query)
            t.start()
            time.sleep(0.15)  # the query is now mid-flight on the executor
            status, _, doc = pooled_json(conn, "POST", "/shutdown")
            assert status == 200 and json.loads(doc)["stopping"] is True
            t.join(10)
            conn.close()

            # The in-flight stream completed: terminal batch-end, ok.
            assert outcome["status"] == 200
            lines = [json.loads(ln) for ln in outcome["data"].decode().strip().split("\n")]
            assert lines[-1]["type"] == "batch-end" and lines[-1]["ok"] is True
            handle._thread.join(10)
            assert not handle._thread.is_alive()
        finally:
            handle.stop()

    def test_shutdown_response_closes_its_own_connection(self):
        handle = start_server_thread()
        try:
            raw = RawConnection(handle)
            try:
                raw.send_request("POST", "/shutdown", body=b"")
                status, headers, _ = raw.read_json()
                assert status == 200 and headers["connection"] == "close"
                raw.expect_eof()
            finally:
                raw.close()
            handle._thread.join(10)
            assert not handle._thread.is_alive()
        finally:
            handle.stop()

    def test_idle_keepalive_connection_is_reaped_on_shutdown(self):
        handle = start_server_thread()  # idle timeout 30s: drain must not wait it out
        try:
            idle = RawConnection(handle)
            try:
                idle.send_request("GET", "/health")
                assert idle.read_json()[0] == 200
                t0 = time.monotonic()
                handle.stop(timeout=10.0)
                assert time.monotonic() - t0 < 5.0  # idle conn cancelled, not awaited
                idle.expect_eof()
            finally:
                idle.close()
        finally:
            handle.stop()

    def test_idle_keepalive_connection_stops_without_an_asyncio_error(
        self, caplog
    ):
        # The drain cancels the idle connection's task; asyncio must not
        # find an exception on it to log.
        handle = start_server_thread()
        try:
            conn = http.client.HTTPConnection(handle.host, handle.port, timeout=10)
            try:
                status, _, _ = pooled_json(conn, "GET", "/health")
                assert status == 200
                handle.stop(timeout=10.0)
            finally:
                conn.close()
        finally:
            handle.stop()
        assert [
            r.getMessage() for r in caplog.records
            if r.name == "asyncio" and r.levelno >= logging.ERROR
        ] == []

    def test_only_the_drain_ends_a_connection_task_without_cancelling_it(self):
        class Writer:
            def close(self):
                pass

            async def wait_closed(self):
                pass

        app = ServeApp()
        try:
            async def parked_connection():
                # No bytes ever arrive: the loop waits in read_request.
                task = asyncio.ensure_future(
                    app.handle_connection(asyncio.StreamReader(), Writer())
                )
                await asyncio.sleep(0.05)
                return task

            async def main():
                task = await parked_connection()
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                assert task.cancelled()
                task = await parked_connection()
                await app._drain_connections()
                assert task.done() and not task.cancelled()
                assert task.exception() is None

            asyncio.run(main())
        finally:
            app.registry.close()


# ----------------------------------------------------------------------
# Framing regressions (satellite bugfixes)
# ----------------------------------------------------------------------
class TestFramingRejections:
    def test_duplicate_content_length_is_rejected(self, server):
        raw = RawConnection(server)
        try:
            body = b"{}"
            raw.send_request(
                "POST", "/health", body=body,
                headers=[f"Content-Length: {len(body)}"],  # second copy, same value
            )
            status, headers, doc = raw.read_json()
            assert status == 400 and "Content-Length" in doc["error"]
            assert headers["connection"] == "close"
            raw.expect_eof()
        finally:
            raw.close()

    def test_conflicting_content_length_is_rejected(self, server):
        raw = RawConnection(server)
        try:
            raw.send_request(
                "POST", "/health", body=b"{}", content_length=2,
                headers=["Content-Length: 999"],
            )
            status, headers, doc = raw.read_json()
            assert status == 400 and "Content-Length" in doc["error"]
            assert headers["connection"] == "close"
            raw.expect_eof()
        finally:
            raw.close()

    def test_content_length_with_transfer_encoding_is_rejected(self, server):
        raw = RawConnection(server)
        try:
            raw.send_request(
                "POST", "/query", body=b"{}",
                headers=["Transfer-Encoding: gzip"],
            )
            status, headers, doc = raw.read_json()
            assert status == 400
            assert "Transfer-Encoding" in doc["error"]
            assert headers["connection"] == "close"
            raw.expect_eof()
        finally:
            raw.close()

    def test_non_integer_content_length_is_rejected(self, server):
        for bad in ("+2", "2_0", "-1"):
            raw = RawConnection(server)
            try:
                raw.send_request("POST", "/health", body=b"{}", content_length=bad)
                status, headers, doc = raw.read_json()
                assert status == 400 and "Content-Length" in doc["error"]
                assert headers["connection"] == "close"
            finally:
                raw.close()

    def test_oversized_head_is_bounded_at_the_reader(self, server):
        # 20 KiB of headers with NO terminating blank line: under the
        # old code (asyncio's 64 KiB default limit) the server would
        # buffer silently and wait for more; with limit=MAX_HEADER_BYTES
        # the reader overruns at 16 KiB and answers 413 immediately.
        raw = RawConnection(server)
        try:
            raw.sock.sendall(b"GET /health HTTP/1.1\r\n")
            filler = b"X-Filler: " + b"y" * 120 + b"\r\n"
            for _ in range((20 * 1024) // len(filler)):
                raw.sock.sendall(filler)
            status, headers, doc = raw.read_json()
            assert status == 413 and "head" in doc["error"]
            assert headers["connection"] == "close"
        finally:
            raw.close()

    def test_max_header_bytes_matches_reader_limit(self):
        assert MAX_HEADER_BYTES == 16 * 1024


class TestMonotonicUptime:
    def test_server_uptime_survives_wall_clock_step(self, monkeypatch):
        import repro.serve.server as server_mod

        app = ServeApp()
        fake_time = types.SimpleNamespace(
            time=lambda: 0.0,
            monotonic=lambda: app.started_monotonic + 7.0,
            perf_counter=time.perf_counter,
        )
        monkeypatch.setattr(server_mod, "time", fake_time)
        try:
            age = app.stats()["server"]["identity"]["started_age_seconds"]
            assert age == pytest.approx(7.0)
        finally:
            monkeypatch.undo()
            app.registry.close()


class TestCancelledMidStream:
    def test_cancellation_closes_transport_and_reraises(self, monkeypatch):
        """A handler cancelled mid-chunked-stream must stop writing,
        mark the connection broken, close the transport, and let the
        cancellation propagate (shutdown depends on it)."""
        import repro.serve.server as server_mod

        class FakeWriter:
            def __init__(self):
                self.chunks = []
                self.closed = False

            def write(self, data):
                assert not self.closed, "write after close (interleaved bytes)"
                self.chunks.append(data)

            async def drain(self):
                pass

            def close(self):
                self.closed = True

            async def wait_closed(self):
                pass

        app = ServeApp()
        try:
            app.registry.register("d", random_tps(n=20, seed=1))

            def never_finishing_submit(shard, plans, tenant=None, **kwargs):
                return [asyncio.get_running_loop().create_future()]

            monkeypatch.setattr(server_mod, "submit_plans", never_finishing_submit)

            async def main():
                writer = FakeWriter()
                state = ConnectionState(keep_alive=True)
                request = Request(
                    method="POST",
                    path="/query",
                    body=json.dumps(
                        {"dataset": "d",
                         "queries": [{"kind": "triangles", "tau": 2.0}]}
                    ).encode(),
                )
                task = asyncio.ensure_future(
                    app._handle_query(request, writer, state)
                )
                await asyncio.sleep(0.05)  # batch-start is on the wire
                writes_before = len(writer.chunks)
                assert writes_before > 0
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                assert task.cancelled()
                assert state.broken is True
                assert writer.closed is True
                assert len(writer.chunks) == writes_before  # nothing after cancel

            asyncio.run(main())
        finally:
            app.registry.close()
