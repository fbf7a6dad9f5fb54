#!/usr/bin/env python3
"""Closed-loop load driver for the serving front end → ``BENCH_serve.json``.

Boots an in-process server (ephemeral port), registers **two datasets
on separate shards**, then runs six phases:

1. **warmup** — one batch per dataset so every index the load phase
   needs is built (the steady-state serving regime the paper's
   preprocess-once economics predict);
2. **load** — closed-loop: ``--clients`` worker threads per dataset,
   each issuing ``--requests`` streamed query batches back-to-back over
   a pooled keep-alive connection; per-request wall latencies are
   recorded;
3. **connection reuse** — a τ-sweep-plus-``/stats``-polling request
   stream (a client sweeping thresholds while a dashboard polls — the
   cheap, chatty traffic where connection setup is a real fraction of
   request cost) is replayed twice: once opening a fresh TCP connection
   per request with ``Connection: close``, once over pooled keep-alive
   connections.  Identical workload, so the latency delta is purely
   connection amortisation;
4. **overload** — the shard's admission queue is saturated and a burst
   of requests is fired to demonstrate bounded-queue 429 rejection;
5. **ingestion** — NDJSON event batches are streamed into the warm
   shard (``POST /datasets/social/events``), timing append throughput
   and the query that follows each epoch bump, then the merged point
   set is registered fresh and queried cold — the full re-registration
   baseline the incremental path is compared against.  Both paths must
   report identical per-query counts (the versioned-dataset identity);
6. **tracing overhead** — an identical cached τ-sweep is replayed
   against two fresh servers that differ only in ``tracing=``, with
   requests alternating between them so machine noise lands on both
   sides alike.  The traced mean latency is gated at ≤5% over the
   untraced mean (``tracing_overhead`` in the JSON) — the number
   ``docs/tracing.md`` promises.

Server-side facts come from **/metrics diffs**: the driver scrapes
``GET /metrics`` before and after each phase and derives latency
(``http_request_seconds`` / ``serve_query_seconds`` interval
histograms), throughput and overload counts (``http_requests_total``,
``serve_admission_rejected_total``) from the subtraction — the same
arithmetic a Prometheus ``rate()``/``histogram_quantile()`` pair would
do, so the bench exercises the exposition path itself and cross-checks
the server's own accounting against the client's request counts.  The
connection-reuse latency comparison stays *client*-measured (TCP setup
happens before the server's request clock starts), but its connection
counters are metrics diffs too.

The emitted JSON carries client latency percentiles, the metrics-diff
facts, per-dataset cache counts from a final ``/metrics`` scrape, the
overload counts, and a ``connection_reuse`` section comparing the two reuse
modes; the driver fails (non-zero exit) unless keep-alive opened fewer
connections than it served requests *and* beat the
per-request-connection mean latency on the identical workload, and the
metrics-side request accounting matches the client's.  CI uploads the
JSON next to ``BENCH_smoke.json`` so the serving-path trajectory
accumulates run over run.

Usage::

    python benchmarks/bench_serve.py [--n 300] [--clients 4] [--requests 8]
"""

from __future__ import annotations

import argparse
import http.client
import json
import platform
import statistics
import sys
import threading
import time

from repro.obs import counter_value, histogram_snapshot, parse_exposition
from repro.serve import start_server_thread

DATASETS = {
    "social": {"workload": "social", "n": None, "seed": 7},
    "coauthor": {"workload": "coauthor", "n": None, "seed": 3},
}

#: One mixed batch per request: a τ-sweep plus pair aggregates — all
#: cache hits after warmup, which is the serving regime under test.
QUERIES = {
    "social": [
        {"kind": "triangles", "taus": [1.5, 2.0, 3.0], "label": "sweep"},
        {"kind": "pairs-sum", "tau": 2.0},
        {"kind": "cliques", "tau": 2.0, "m": 3},
    ],
    "coauthor": [
        {"kind": "triangles", "taus": [15.0, 25.0], "label": "sweep"},
        {"kind": "pairs-union", "tau": 15.0, "kappa": 2},
    ],
}


class Client:
    """Stdlib HTTP client that makes connection reuse measurable.

    ``pooled=True`` keeps one ``http.client.HTTPConnection`` open across
    requests (HTTP/1.1 keep-alive, with one transparent reconnect if the
    server closed the socket — idle timeout or max-requests cap);
    ``pooled=False`` opens a fresh connection per request and sends
    ``Connection: close``, the baseline the reuse numbers are compared
    against.  ``connections_opened`` counts real TCP connects either way.
    """

    def __init__(self, host, port, pooled=True, timeout=60):
        self.host = host
        self.port = port
        self.pooled = pooled
        self.timeout = timeout
        self.connections_opened = 0
        self._conn = None

    def _new_conn(self):
        self.connections_opened += 1
        return http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)

    @staticmethod
    def _issue(conn, method, path, body, headers):
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()

    def request(self, method, path, body=None):
        payload = json.dumps(body) if body is not None else None
        return self._request(method, path, payload, "application/json")

    def request_ndjson(self, method, path, payload):
        """Raw-body request (event batches are NDJSON, not JSON)."""
        return self._request(method, path, payload, "application/x-ndjson")

    def _request(self, method, path, payload, content_type):
        headers = {"Content-Type": content_type}
        if not self.pooled:
            headers["Connection"] = "close"
            conn = self._new_conn()
            try:
                return self._issue(conn, method, path, payload, headers)
            finally:
                conn.close()
        if self._conn is None:
            self._conn = self._new_conn()
        try:
            return self._issue(self._conn, method, path, payload, headers)
        except (http.client.HTTPException, OSError):
            self._conn.close()
            self._conn = self._new_conn()
            return self._issue(self._conn, method, path, payload, headers)

    def close(self):
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def scrape_metrics(client):
    """One strict ``GET /metrics`` scrape → ``{family: Family}``."""
    status, data = client.request("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered HTTP {status}")
    return parse_exposition(data.decode())


def _interval_latency_ms(before, after, name, labels=None):
    """Latency facts for one phase from two scrapes of a histogram."""
    delta = histogram_snapshot(after, name, labels) - histogram_snapshot(
        before, name, labels
    )
    return {
        "count": delta.count,
        "mean": delta.mean * 1e3,
        "p50": delta.quantile(0.50) * 1e3,
        "p90": delta.quantile(0.90) * 1e3,
        "p99": delta.quantile(0.99) * 1e3,
    }


def _query_once(client, dataset, include_records=False):
    t0 = time.perf_counter()
    status, data = client.request(
        "POST",
        "/query",
        {
            "dataset": dataset,
            "queries": QUERIES[dataset],
            "include_records": include_records,
        },
    )
    latency = time.perf_counter() - t0
    if status != 200:
        return status, latency, None
    last = json.loads(data.decode().strip().rsplit("\n", 1)[-1])
    return status, latency, last


def _query_counts(client, dataset, queries):
    """Per-query count dicts from one streamed batch (None on error)."""
    status, data = client.request(
        "POST", "/query",
        {"dataset": dataset, "queries": queries, "include_records": False},
    )
    if status != 200:
        return status, None
    counts = []
    for line in data.decode().strip().split("\n"):
        doc = json.loads(line)
        if doc.get("type") == "result":
            if not doc.get("ok"):
                return status, None
            counts.append(doc["counts"])
    return status, counts


def _percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[idx]


def _latency_ms(values):
    values = sorted(values)
    return {
        "mean": statistics.fmean(values) * 1e3 if values else 0.0,
        "p50": _percentile(values, 0.50) * 1e3,
        "p90": _percentile(values, 0.90) * 1e3,
        "p99": _percentile(values, 0.99) * 1e3,
        "max": values[-1] * 1e3 if values else 0.0,
    }


def run_load(handle, clients, requests, pooled):
    """One closed-loop load phase; every worker owns one Client."""
    latencies = {name: [] for name in DATASETS}
    errors = {name: 0 for name in DATASETS}
    lock = threading.Lock()
    connections = []

    def worker(name):
        client = Client(handle.host, handle.port, pooled=pooled)
        try:
            for _ in range(requests):
                status, latency, end = _query_once(client, name)
                with lock:
                    if status == 200 and end is not None and end.get("ok"):
                        latencies[name].append(latency)
                    else:
                        errors[name] += 1
        finally:
            client.close()
            with lock:
                connections.append(client.connections_opened)

    threads = [
        threading.Thread(target=worker, args=(name,))
        for name in DATASETS
        for _ in range(clients)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0

    all_latencies = [v for values in latencies.values() for v in values]
    return {
        "mode": "keep-alive" if pooled else "close",
        "latencies": latencies,
        "errors": errors,
        "requests": len(all_latencies),
        "connections_opened": sum(connections),
        "wall_seconds": wall,
        "latency_ms": _latency_ms(all_latencies),
    }


#: One reuse-phase iteration: a τ-sweep against the (cached) index,
#: then four ``/stats`` polls — the cheap per-request regime where TCP
#: setup is a measurable slice of every ``Connection: close`` request.
REUSE_SWEEP = {"kind": "triangles", "taus": [1.5, 2.0, 3.0], "label": "sweep"}


def run_reuse_phase(handle, clients, iterations, pooled, dataset="sweep"):
    """Replay the sweep-plus-polling stream in one connection mode."""
    latencies = []
    errors = [0]
    lock = threading.Lock()
    connections = []

    def one_request(client, method, path, body):
        t0 = time.perf_counter()
        status, data = client.request(method, path, body)
        latency = time.perf_counter() - t0
        ok = status == 200
        if ok and path == "/query":
            last = json.loads(data.decode().strip().rsplit("\n", 1)[-1])
            ok = last.get("type") == "batch-end" and last.get("ok", False)
        with lock:
            if ok:
                latencies.append(latency)
            else:
                errors[0] += 1

    query_body = {
        "dataset": dataset,
        "queries": [REUSE_SWEEP],
        "include_records": False,
    }

    def worker():
        client = Client(handle.host, handle.port, pooled=pooled)
        try:
            for _ in range(iterations):
                one_request(client, "POST", "/query", query_body)
                for _ in range(4):
                    one_request(client, "GET", "/stats", None)
        finally:
            client.close()
            with lock:
                connections.append(client.connections_opened)

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0

    return {
        "mode": "keep-alive" if pooled else "close",
        "requests": len(latencies),
        "errors": errors[0],
        "connections_opened": sum(connections),
        "wall_seconds": wall,
        "latency_ms": _latency_ms(latencies),
    }


#: The tracing-overhead gate: the traced mean may exceed the untraced
#: mean by at most this percentage (docs/tracing.md quotes the 5%).
#: The absolute floor absorbs timer granularity on sub-millisecond
#: requests, where 5% of the mean is smaller than scheduler noise.
TRACING_OVERHEAD_GATE_PCT = 5.0
TRACING_NOISE_FLOOR_MS = 0.2


def run_tracing_overhead(queue_limit, n, rounds, failures):
    """Phase 6: the traced-vs-untraced latency comparison.

    Boots two fresh servers identical except for ``tracing=``, warms
    the same index on both, then replays ``rounds`` cached τ-sweep
    batches against each — alternating sides every request, order
    flipped every round, so drift and background noise cancel instead
    of biasing one mode.  Responses double as a sanity check that the
    knob did something: the traced side must echo a ``trace_id``, the
    untraced side must not (otherwise the gate would be vacuous).
    """
    spec = {"workload": "social", "n": n, "seed": 13}
    body = {"dataset": "ovh", "queries": [REUSE_SWEEP], "include_records": False}
    latencies = {"traced": [], "untraced": []}
    trace_ids = {"traced": set(), "untraced": set()}
    servers = []

    def one(label, client):
        t0 = time.perf_counter()
        status, data = client.request("POST", "/query", body)
        latency = time.perf_counter() - t0
        if status != 200:
            failures.append(f"tracing-overhead query ({label}): HTTP {status}")
            return
        last = json.loads(data.decode().strip().rsplit("\n", 1)[-1])
        if not last.get("ok"):
            failures.append(f"tracing-overhead query ({label}): batch not ok")
            return
        latencies[label].append(latency)
        trace_ids[label].add(last.get("trace_id"))

    try:
        for label, tracing in (("traced", True), ("untraced", False)):
            handle = start_server_thread(
                queue_limit=queue_limit, tracing=tracing, slow_query_ms=1e9
            )
            client = Client(handle.host, handle.port, pooled=True)
            status, data = client.request(
                "POST", "/datasets", {"name": "ovh", "dataset": spec}
            )
            if status != 201:
                failures.append(
                    f"tracing-overhead register ({label}): HTTP {status} {data!r}"
                )
            # Warm the sweep index so both sides measure pure serving
            # cost — the regime where per-span bookkeeping would show.
            client.request("POST", "/query", body)
            servers.append((label, handle, client))
        for r in range(rounds):
            order = servers if r % 2 == 0 else servers[::-1]
            for label, _handle, client in order:
                one(label, client)
    finally:
        for _label, handle, client in servers:
            client.close()
            try:
                handle.stop()
            except Exception as exc:  # noqa: BLE001
                failures.append(f"tracing-overhead shutdown: {exc}")

    if not all(trace_ids["traced"]):
        failures.append(
            "tracing-overhead: traced server responses missing trace_id"
        )
    if any(trace_ids["untraced"]):
        failures.append(
            "tracing-overhead: untraced server responses carried a trace_id"
        )
    traced_ms = _latency_ms(latencies["traced"])
    untraced_ms = _latency_ms(latencies["untraced"])
    overhead_pct = (
        (traced_ms["mean"] / untraced_ms["mean"] - 1.0) * 100.0
        if untraced_ms["mean"]
        else 0.0
    )
    gate_ms = (
        untraced_ms["mean"] * (1.0 + TRACING_OVERHEAD_GATE_PCT / 100.0)
        + TRACING_NOISE_FLOOR_MS
    )
    passed = traced_ms["mean"] <= gate_ms
    if latencies["traced"] and latencies["untraced"] and not passed:
        failures.append(
            "tracing overhead over gate: traced mean "
            f"{traced_ms['mean']:.3f} ms vs untraced "
            f"{untraced_ms['mean']:.3f} ms "
            f"({overhead_pct:+.1f}% > {TRACING_OVERHEAD_GATE_PCT:.0f}% "
            f"+ {TRACING_NOISE_FLOOR_MS} ms floor)"
        )
    return {
        "requests_per_mode": len(latencies["traced"]),
        "traced_latency_ms": traced_ms,
        "untraced_latency_ms": untraced_ms,
        "mean_overhead_pct": overhead_pct,
        "gate_pct": TRACING_OVERHEAD_GATE_PCT,
        "noise_floor_ms": TRACING_NOISE_FLOOR_MS,
        "passed": passed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=300, help="points per dataset")
    parser.add_argument("--clients", type=int, default=4,
                        help="closed-loop workers per dataset")
    parser.add_argument("--requests", type=int, default=8,
                        help="requests per worker (per load mode)")
    parser.add_argument("--queue-limit", type=int, default=16,
                        help="per-shard admission bound")
    parser.add_argument("--append-batches", type=int, default=4,
                        help="event batches streamed in the ingestion phase")
    parser.add_argument("--events-per-batch", type=int, default=15,
                        help="events per appended batch")
    parser.add_argument("--out", default="BENCH_serve.json")
    args = parser.parse_args(argv)

    failures = []
    handle = start_server_thread(queue_limit=args.queue_limit)
    admin = Client(handle.host, handle.port, pooled=True)
    try:
        # -- register two datasets, one shard each --------------------
        for name, spec in DATASETS.items():
            spec = dict(spec, n=args.n)
            status, data = admin.request(
                "POST", "/datasets", {"name": name, "dataset": spec}
            )
            if status != 201:
                failures.append(f"register {name}: HTTP {status} {data!r}")

        # -- warmup: build every index the load phase will hit --------
        build_seconds = {}
        for name in DATASETS:
            t0 = time.perf_counter()
            status, _latency, end = _query_once(admin, name)
            if status != 200 or end is None or not end.get("ok"):
                failures.append(f"warmup {name}: HTTP {status}, end={end}")
                continue
            build_seconds[name] = time.perf_counter() - t0

        # -- closed-loop load over both shards, pooled connections ----
        m_load0 = scrape_metrics(admin)
        load_phase = run_load(handle, args.clients, args.requests, pooled=True)
        m_load1 = scrape_metrics(admin)
        if any(load_phase["errors"].values()):
            failures.append(f"load-phase errors: {load_phase['errors']}")

        # Server-side view of the same phase, from the /metrics diff.
        served_200 = counter_value(
            m_load1, "http_requests_total", {"route": "/query", "status": "200"}
        ) - counter_value(
            m_load0, "http_requests_total", {"route": "/query", "status": "200"}
        )
        if served_200 != load_phase["requests"]:
            failures.append(
                "metrics accounting mismatch: server counted "
                f"{served_200:g} successful /query requests, clients made "
                f"{load_phase['requests']}"
            )
        load_metrics = {
            "request_latency_ms": _interval_latency_ms(
                m_load0, m_load1, "http_request_seconds", {"route": "/query"}
            ),
            "per_dataset_query_latency_ms": {
                name: _interval_latency_ms(
                    m_load0, m_load1, "serve_query_seconds", {"dataset": name}
                )
                for name in DATASETS
            },
            "stream_bytes": counter_value(m_load1, "serve_stream_bytes_total")
            - counter_value(m_load0, "serve_stream_bytes_total"),
        }

        # -- connection reuse: identical stream, both connection modes -
        status, data = admin.request(
            "POST", "/datasets",
            {"name": "sweep",
             "dataset": {"workload": "social", "n": min(args.n, 60), "seed": 11}},
        )
        if status != 201:
            failures.append(f"register sweep dataset: HTTP {status} {data!r}")
        # Warm the sweep index so both modes measure pure serving cost.
        admin.request(
            "POST", "/query",
            {"dataset": "sweep", "queries": [REUSE_SWEEP], "include_records": False},
        )
        reuse_iterations = max(args.requests * 2, 10)
        m_reuse0 = scrape_metrics(admin)
        close_phase = run_reuse_phase(handle, 2, reuse_iterations, pooled=False)
        m_reuse1 = scrape_metrics(admin)
        ka_phase = run_reuse_phase(handle, 2, reuse_iterations, pooled=True)
        m_reuse2 = scrape_metrics(admin)
        # The server's own accounting of the two modes: Connection:
        # close opens one TCP connection per request and never reuses;
        # keep-alive piles reuses onto a handful of connections.
        for phase, before, after in (
            (close_phase, m_reuse0, m_reuse1),
            (ka_phase, m_reuse1, m_reuse2),
        ):
            phase["server_connections_opened"] = counter_value(
                after, "http_connections_opened_total"
            ) - counter_value(before, "http_connections_opened_total")
            phase["server_keepalive_reuses"] = counter_value(
                after, "http_keepalive_reuses_total"
            ) - counter_value(before, "http_keepalive_reuses_total")
        if not ka_phase["server_keepalive_reuses"]:
            failures.append(
                "metrics saw no keep-alive reuse in the keep-alive phase"
            )
        for phase in (close_phase, ka_phase):
            if phase["errors"]:
                failures.append(
                    f"reuse-phase ({phase['mode']}) errors: {phase['errors']}"
                )

        # The whole point of keep-alive: far fewer connections than
        # requests, and a lower mean per-request wall time once setup
        # is amortised.
        if ka_phase["requests"] and not (
            ka_phase["connections_opened"] < ka_phase["requests"]
        ):
            failures.append(
                "keep-alive did not reuse connections: "
                f"{ka_phase['connections_opened']} opened for "
                f"{ka_phase['requests']} requests"
            )
        ka_mean = ka_phase["latency_ms"]["mean"]
        close_mean = close_phase["latency_ms"]["mean"]
        if ka_phase["requests"] and close_phase["requests"] and ka_mean >= close_mean:
            failures.append(
                "keep-alive mean latency did not beat Connection: close "
                f"({ka_mean:.3f} ms >= {close_mean:.3f} ms)"
            )

        # -- overload: prove the admission bound rejects, not buffers -
        shard = handle.app.registry.get("social")
        held = shard.admission.limit
        rejected = 0
        m_over0 = scrape_metrics(admin)
        if not shard.admission.try_acquire(held):
            failures.append("could not saturate the admission queue")
        else:
            try:
                for _ in range(5):
                    status, _latency, _end = _query_once(admin, "social")
                    if status == 429:
                        rejected += 1
            finally:
                shard.admission.release(held)
        m_over1 = scrape_metrics(admin)
        if rejected != 5:
            failures.append(f"expected 5 overload rejections, saw {rejected}")
        # The same burst, as the server accounted it.  Admission counts
        # rejected *plans* (all-or-nothing batches of len(QUERIES)),
        # the HTTP layer counts rejected *requests*.
        expect_plans = 5 * len(QUERIES["social"])
        metrics_rejected = counter_value(
            m_over1, "serve_admission_rejected_total", {"dataset": "social"}
        ) - counter_value(
            m_over0, "serve_admission_rejected_total", {"dataset": "social"}
        )
        metrics_429 = counter_value(
            m_over1, "http_requests_total", {"route": "/query", "status": "429"}
        ) - counter_value(
            m_over0, "http_requests_total", {"route": "/query", "status": "429"}
        )
        if metrics_rejected != expect_plans or metrics_429 != 5:
            failures.append(
                "overload metrics mismatch: serve_admission_rejected_total "
                f"+{metrics_rejected:g} (expected {expect_plans}), "
                f"429s +{metrics_429:g} (expected 5)"
            )
        status, _latency, end = _query_once(admin, "social")
        if status != 200:
            failures.append(f"post-overload query failed: HTTP {status}")

        # -- ingestion: append throughput + maintained-query latency --
        # Streams --append-batches NDJSON batches into the (warm)
        # social shard, timing each append and the query that follows
        # it (its families resolve to `vector`, so every entry is
        # maintained across the epoch bump).  The same merged
        # point set is then registered fresh under another name and
        # queried cold — the full re-registration baseline — and both
        # paths must report identical per-query counts.
        n_batches, per_batch = args.append_batches, args.events_per_batch
        events = [
            {
                "point": [0.31 + 0.003 * i, 0.42 + 0.002 * (i % 7)],
                "start": 0.0,
                "end": 20.0 + (i % 9),
            }
            for i in range(n_batches * per_batch)
        ]
        m_ing0 = scrape_metrics(admin)
        append_walls, post_query_latencies = [], []
        final_report = {}
        for b in range(n_batches):
            batch = "\n".join(
                json.dumps(e) for e in events[b * per_batch:(b + 1) * per_batch]
            ).encode()
            t0 = time.perf_counter()
            status, data = admin.request_ndjson(
                "POST", "/datasets/social/events", batch
            )
            append_walls.append(time.perf_counter() - t0)
            if status != 200:
                failures.append(f"append batch {b}: HTTP {status} {data!r}")
                continue
            final_report = json.loads(data)["appended"]
            if final_report["rejected"]:
                failures.append(
                    f"append batch {b} rejected events: {final_report['errors']}"
                )
            status, latency, end = _query_once(admin, "social")
            if status != 200 or end is None or not end.get("ok"):
                failures.append(f"post-append query {b}: HTTP {status}, {end}")
            else:
                post_query_latencies.append(latency)
        m_ing1 = scrape_metrics(admin)
        if final_report.get("epoch") != n_batches:
            failures.append(
                f"expected epoch {n_batches} after {n_batches} batches, "
                f"got {final_report.get('epoch')}"
            )
        appended_events = counter_value(
            m_ing1, "serve_events_appended_total", {"dataset": "social"}
        ) - counter_value(
            m_ing0, "serve_events_appended_total", {"dataset": "social"}
        )
        if appended_events != len(events):
            failures.append(
                f"metrics counted {appended_events:g} appended events, "
                f"client sent {len(events)}"
            )
        migrated = counter_value(
            m_ing1, "serve_cache_migrated_total", {"dataset": "social"}
        ) - counter_value(m_ing0, "serve_cache_migrated_total", {"dataset": "social"})
        invalidated = counter_value(
            m_ing1, "serve_cache_invalidated_total", {"dataset": "social"}
        ) - counter_value(
            m_ing0, "serve_cache_invalidated_total", {"dataset": "social"}
        )
        if not migrated:
            failures.append(
                "no index migrations during ingestion — incremental "
                "maintenance never ran on a warm shard"
            )

        # Full re-registration baseline: the merged point set, cold.
        import os
        import tempfile

        from repro.datasets import workload_from_spec

        merged = workload_from_spec(dict(DATASETS["social"], n=args.n)).with_events(
            [e["point"] for e in events],
            [e["start"] for e in events],
            [e["end"] for e in events],
        )
        csv = tempfile.NamedTemporaryFile(
            mode="w", suffix=".csv", delete=False
        )
        try:
            for i in range(merged.n):
                row = [*merged.points[i], merged.starts[i], merged.ends[i]]
                csv.write(",".join("%.17g" % v for v in row) + "\n")
            csv.close()
            t0 = time.perf_counter()
            status, data = admin.request(
                "POST", "/datasets",
                {"name": "social-fresh",
                 "dataset": {"csv": csv.name, "metric": merged.metric.name}},
            )
            register_seconds = time.perf_counter() - t0
            if status != 201:
                failures.append(
                    f"register social-fresh: HTTP {status} {data!r}"
                )
            t0 = time.perf_counter()
            status, fresh_counts = _query_counts(
                admin, "social-fresh", QUERIES["social"]
            )
            cold_query_seconds = time.perf_counter() - t0
            if fresh_counts is None:
                failures.append(f"cold query on social-fresh: HTTP {status}")
            # The acceptance identity, through HTTP: the appended shard
            # and the fresh registration answer every query alike.
            status, appended_counts = _query_counts(
                admin, "social", QUERIES["social"]
            )
            if appended_counts is None:
                failures.append(f"post-ingest query on social: HTTP {status}")
            elif fresh_counts is not None and appended_counts != fresh_counts:
                failures.append(
                    "append-then-query diverged from fresh registration: "
                    f"{appended_counts} != {fresh_counts}"
                )
            admin.request("DELETE", "/datasets/social-fresh")
        finally:
            os.unlink(csv.name)

        append_wall = sum(append_walls)
        ingestion = {
            "batches": n_batches,
            "events_per_batch": per_batch,
            "events_total": len(events),
            "final_epoch": final_report.get("epoch"),
            "append_wall_seconds": append_wall,
            "events_per_second": (
                len(events) / append_wall if append_wall else 0.0
            ),
            "append_latency_ms": _latency_ms(append_walls),
            "server_append_seconds": counter_value(
                m_ing1, "serve_append_seconds_total", {"dataset": "social"}
            ) - counter_value(
                m_ing0, "serve_append_seconds_total", {"dataset": "social"}
            ),
            "cache_migrated": migrated,
            "cache_invalidated": invalidated,
            "post_append_query_latency_ms": _latency_ms(post_query_latencies),
            "full_reregistration": {
                "register_seconds": register_seconds,
                "cold_query_seconds": cold_query_seconds,
            },
        }

        # -- tracing overhead: traced vs untraced, identical sweep ----
        tracing_overhead = run_tracing_overhead(
            args.queue_limit,
            min(args.n, 120),
            max(args.clients * args.requests, 30),
            failures,
        )

        # -- registered shards, cache and connection counts -----------
        status, data = admin.request("GET", "/datasets")
        shards = (
            {d["name"] for d in json.loads(data)["datasets"]}
            if status == 200 else set()
        )
        expected_shards = set(DATASETS) | {"sweep"}
        if shards != expected_shards:
            failures.append(f"expected shards {expected_shards}, got {shards}")
        final = scrape_metrics(admin)
        server_connections = {
            "opened": counter_value(final, "http_connections_opened_total"),
            "keepalive_reuses": counter_value(final, "http_keepalive_reuses_total"),
        }
        if not server_connections["keepalive_reuses"]:
            failures.append(
                f"server saw no keep-alive reuse: {server_connections}"
            )

        per_dataset = {}
        for name, values in load_phase["latencies"].items():
            per_dataset[name] = {
                "requests": len(values),
                "errors": load_phase["errors"][name],
                "warmup_seconds": build_seconds.get(name),
                "latency_ms": _latency_ms(values),
                "cache": {
                    field: counter_value(
                        final, f"serve_cache_{field}_total", {"dataset": name}
                    )
                    for field in ("hits", "misses")
                },
            }

        total_requests = load_phase["requests"]
        load_wall = load_phase["wall_seconds"]
        payload = {
            "bench": "serve",
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "config": {
                "n": args.n,
                "clients_per_dataset": args.clients,
                "requests_per_client": args.requests,
                "queue_limit": args.queue_limit,
            },
            "load": {
                "wall_seconds": load_wall,
                "total_requests": total_requests,
                "throughput_rps": total_requests / load_wall if load_wall else 0.0,
                "server_requests_200": served_200,
                "metrics": load_metrics,
            },
            "connection_reuse": {
                mode["mode"]: {
                    "requests": mode["requests"],
                    "connections_opened": mode["connections_opened"],
                    "server_connections_opened": mode["server_connections_opened"],
                    "server_keepalive_reuses": mode["server_keepalive_reuses"],
                    "wall_seconds": mode["wall_seconds"],
                    "latency_ms": mode["latency_ms"],
                }
                for mode in (close_phase, ka_phase)
            },
            "server_connections": server_connections,
            "overload": {
                "burst": 5,
                "rejected_429": rejected,
            },
            "ingestion": ingestion,
            "tracing_overhead": tracing_overhead,
            "datasets": per_dataset,
            "failures": failures,
        }
        payload["connection_reuse"]["reuse_ratio"] = (
            ka_phase["requests"] / ka_phase["connections_opened"]
            if ka_phase["connections_opened"] else 0.0
        )
        payload["connection_reuse"]["mean_latency_improvement"] = (
            1.0 - ka_mean / close_mean if close_mean else 0.0
        )
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)

        for name, entry in per_dataset.items():
            lat = entry["latency_ms"]
            cache = entry["cache"]
            print(
                f"{name:10s} {entry['requests']:4d} req  "
                f"p50 {lat['p50']:6.1f} ms  p99 {lat['p99']:6.1f} ms  "
                f"cache hits {cache['hits']:g} builds {cache['misses']:g}"
            )
        print(
            f"keep-alive: {ka_phase['requests']} req over "
            f"{ka_phase['connections_opened']} conns "
            f"({payload['connection_reuse']['reuse_ratio']:.1f}x reuse)  "
            f"mean {ka_mean:.2f} ms  vs close {close_mean:.2f} ms  "
            f"({payload['connection_reuse']['mean_latency_improvement']:+.1%})"
        )
        served_lat = load_metrics["request_latency_ms"]
        print(
            f"metrics diff: {served_200:g} /query 200s  "
            f"server-side p50 {served_lat['p50']:.1f} ms  "
            f"p99 {served_lat['p99']:.1f} ms  "
            f"{load_metrics['stream_bytes']:.0f} B streamed"
        )
        print(
            f"ingestion: {ingestion['events_total']} events over "
            f"{ingestion['batches']} batches -> epoch "
            f"{ingestion['final_epoch']} at "
            f"{ingestion['events_per_second']:.0f} ev/s  "
            f"({ingestion['cache_migrated']:g} migrations, "
            f"{ingestion['cache_invalidated']:g} invalidations)  "
            f"post-append query p50 "
            f"{ingestion['post_append_query_latency_ms']['p50']:.1f} ms vs "
            "re-register+cold "
            f"{(ingestion['full_reregistration']['register_seconds'] + ingestion['full_reregistration']['cold_query_seconds']) * 1e3:.1f} ms"
        )
        print(
            f"tracing overhead: traced mean "
            f"{tracing_overhead['traced_latency_ms']['mean']:.2f} ms vs "
            f"untraced {tracing_overhead['untraced_latency_ms']['mean']:.2f} ms "
            f"({tracing_overhead['mean_overhead_pct']:+.1f}%, gate "
            f"{tracing_overhead['gate_pct']:.0f}%)"
        )
        print(
            f"serve bench: {total_requests} requests in {load_wall:.2f}s "
            f"({payload['load']['throughput_rps']:.1f} req/s), "
            f"{rejected}/5 overload rejections -> {args.out}"
        )
    finally:
        admin.close()
        try:
            handle.stop()
        except Exception as exc:  # noqa: BLE001
            failures.append(f"unclean shutdown: {exc}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("clean shutdown")
    return 0


if __name__ == "__main__":
    sys.exit(main())
