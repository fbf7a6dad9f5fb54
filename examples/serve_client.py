#!/usr/bin/env python3
"""Talk to the serving front end from plain stdlib ``http.client``.

Registers a dataset, streams a durable-pattern query batch line by
line (NDJSON), asks ``GET /stats`` who answered, and reads the shard's
cache counts from ``GET /metrics`` — the complete client lifecycle of
:mod:`repro.serve` — all over **one keep-alive connection**: the
server holds HTTP/1.1 connections open, so a client sweeping many τ
thresholds pays TCP setup once, not per request.  It
also scrapes ``GET /metrics`` before and after its own traffic and
prints the diff — the server's accounting of exactly what this script
did (see ``docs/metrics.md``).  If no server is listening on
``--host``/``--port``, the example boots one in-process so it is
self-contained:

    python examples/serve_client.py
    # ...or against a server you started yourself:
    python -m repro serve --port 8765 &
    python examples/serve_client.py --port 8765
"""

import argparse
import http.client
import json
import os
import sys

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"),
)

from repro.obs import (
    counter_value,
    format_waterfall,
    histogram_snapshot,
    parse_exposition,
)

# The client plumbing lives in the library so the `repro append` and
# `repro trace` CLIs and the examples share one implementation.
from repro.serve.client import append_events, fetch_trace, fetch_traces, probe, request


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8765)
    args = parser.parse_args()

    host, port, handle = args.host, args.port, None
    try:
        probe(host, port)
    except OSError:
        print(f"no server on {host}:{port}; booting one in-process")
        from repro.serve import start_server_thread

        handle = start_server_thread()
        host, port = handle.host, handle.port

    # Every request below rides this one connection (HTTP/1.1
    # keep-alive): the server answers and waits for the next request
    # instead of closing the socket.
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        # -- scrape /metrics BEFORE doing anything: the baseline half
        #    of the diff printed at the end.
        status, data = request(conn, "GET", "/metrics")
        before = parse_exposition(data.decode())
        print(f"GET /metrics -> {status}: baseline scrape taken")

        # -- register a dataset (its own shard: cache + workers + queue)
        status, data = request(
            conn, "POST", "/datasets",
            {"name": "forum", "dataset": {"workload": "social", "n": 300, "seed": 7},
             "replace": True},
        )
        print(f"POST /datasets -> {status}: {data.decode().strip()}")

        # -- stream a mixed batch: results arrive one NDJSON line at a
        #    time, per τ, so nothing is buffered server-side.
        status, data = request(
            conn, "POST", "/query",
            {
                "dataset": "forum",
                "queries": [
                    {"kind": "triangles", "taus": [1.0, 2.0, 3.0], "label": "sweep"},
                    {"kind": "pairs-sum", "tau": 3.0},
                    {"kind": "cliques", "tau": 2.0, "m": 3},
                ],
                "include_records": False,
            },
        )
        print(f"POST /query -> {status}")
        for line in data.decode().strip().split("\n"):
            doc = json.loads(line)
            if doc["type"] == "result":
                state = "ok" if doc["ok"] else f"ERROR {doc['error']}"
                print(
                    f"  [{doc['query']}] {doc['kind']:10s} {state}  "
                    f"counts={doc['counts']}  "
                    f"{'cache hit' if doc['cache_hit'] else 'built'}"
                )
            elif doc["type"] == "batch-end":
                print(
                    f"  batch: {doc['queries']} queries, {doc['errors']} errors, "
                    f"{doc['wall_seconds'] * 1e3:.1f} ms  "
                    f"trace_id={doc.get('trace_id')}"
                )

        # -- stream a few live events into the dataset: the epoch bumps,
        #    indexes that support incremental maintenance are carried
        #    over, and the next query sees the merged point set.
        batch = "\n".join(
            json.dumps({"point": [0.1 * i, 0.2 * i], "start": 0.0, "end": 30.0})
            for i in range(1, 4)
        ).encode()
        status, doc = append_events(conn, "forum", batch)
        report = doc.get("appended", {})
        print(
            f"POST /datasets/forum/events -> {status}: epoch "
            f"{report.get('epoch')}, n={report.get('n')}, "
            f"accepted {report.get('accepted')} / rejected {report.get('rejected')}, "
            f"maintained={report.get('maintained_families')}"
        )

        # -- /stats says who answered and how its connections are set;
        #    it holds no counts (those are all in /metrics).
        status, data = request(conn, "GET", "/stats")
        server = json.loads(data)["server"]
        identity = server["identity"]
        print(
            f"GET /stats -> {status}: pid {identity['pid']} on "
            f"{identity['host']}:{identity['port']}, up "
            f"{identity['started_age_seconds']:.1f}s, idle timeout "
            f"{server['connections']['idle_timeout_seconds']:g}s"
        )

        # -- scrape /metrics again: the shard's cache and queue, the
        #    connection counts, and the diff against the baseline — the
        #    server-side account of exactly the traffic this script
        #    generated, the same subtraction a Prometheus rate() does.
        status, data = request(conn, "GET", "/metrics")
        after = parse_exposition(data.decode())
        forum = {"dataset": "forum"}

        def now(name, labels=None):
            return counter_value(after, name, labels)

        print(
            f"GET /metrics -> {status}: shard 'forum' holds "
            f"{now('serve_cache_resident_indexes', forum):g} indexes, "
            f"{now('serve_cache_hits_total', forum):g} hits / "
            f"{now('serve_cache_misses_total', forum):g} builds, "
            f"{now('serve_queue_depth', forum):g} in flight "
            f"(limit {now('serve_queue_limit', forum):g})"
        )
        print(
            f"connections: {now('http_connections_opened_total'):g} opened, "
            f"{now('http_keepalive_reuses_total'):g} keep-alive reuses — "
            "register, query, stats and scrapes all rode this one socket"
        )

        def diff(name, labels=None):
            return counter_value(after, name, labels) - counter_value(
                before, name, labels
            )

        latency = histogram_snapshot(
            after, "serve_query_seconds", {"dataset": "forum"}
        ) - histogram_snapshot(before, "serve_query_seconds", {"dataset": "forum"})
        print("diff vs the baseline scrape —")
        print(
            f"  http_requests_total          +{diff('http_requests_total'):g} "
            "(register + query + stats + the scrapes themselves)"
        )
        print(
            f"  serve_queries_total{{forum}}   "
            f"+{diff('serve_queries_total', {'dataset': 'forum'}):g}"
        )
        print(
            f"  serve_cache_misses_total     "
            f"+{diff('serve_cache_misses_total'):g} (indexes built)  "
            f"hits +{diff('serve_cache_hits_total'):g}"
        )
        print(
            f"  serve_stream_bytes_total     "
            f"+{diff('serve_stream_bytes_total'):g} B of NDJSON"
        )
        if latency.count:
            print(
                f"  serve_query_seconds{{forum}}   {latency.count:g} queries, "
                f"mean {latency.mean * 1e3:.1f} ms, "
                f"p90 {latency.quantile(0.9) * 1e3:.1f} ms"
            )

        # -- every request above left a trace in the server's ring
        #    (GET /debug/traces): fetch the slowest and print its span
        #    waterfall — where that request's time actually went.
        status, doc = fetch_traces(conn, limit=50)
        traces = sorted(
            doc.get("traces", []),
            key=lambda t: -(t.get("duration_ms") or 0.0),
        )
        if traces:
            slowest = traces[0]
            status, full = fetch_trace(conn, slowest["trace_id"])
            print(
                f"GET /debug/traces -> slowest of this session's "
                f"{len(traces)} requests ({slowest.get('route')}):"
            )
            for line in format_waterfall(full).splitlines():
                print(f"  {line}")
    finally:
        conn.close()
        if handle is not None:
            handle.stop()
            print("in-process server stopped")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
