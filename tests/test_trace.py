"""End-to-end distributed tracing (ISSUE 10 tentpole).

Unit layers (traceparent codec, recorder/span trees, the ring-buffer
:class:`~repro.obs.tracestore.TraceStore` with its retention rules) are
pure and fast.  The integration classes drive real servers: span-tree
integrity under concurrent batches on one worker, and router↔worker
stitching over real sockets — including a worker SIGKILLed mid-stream,
where the router's root span must still close with an error status and
``GET /debug/traces/<id>`` must answer without hanging.
"""

import io
import json
import os
import signal
import socket
import threading
import time

import pytest

from repro.obs.trace import (
    TraceContext,
    TraceRecorder,
    format_traceparent,
    format_waterfall,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    span_tree,
)
from repro.cli import main as cli_main
from repro.obs.tracestore import TraceStore
from repro.router import start_router_thread
from repro.serve import start_server_thread
from repro.serve.client import connect, fetch_trace, fetch_traces, request

SOCIAL_SPEC = {"workload": "social", "n": 90, "seed": 5}


# ----------------------------------------------------------------------
# traceparent codec
# ----------------------------------------------------------------------
class TestTraceparent:
    def test_roundtrip(self):
        tid, sid = new_trace_id(), new_span_id()
        ctx = parse_traceparent(format_traceparent(tid, sid))
        assert ctx == TraceContext(trace_id=tid, span_id=sid, sampled=True)

    def test_unsampled_flag_roundtrips(self):
        header = format_traceparent(new_trace_id(), new_span_id(), sampled=False)
        assert header.endswith("-00")
        assert parse_traceparent(header).sampled is False

    @pytest.mark.parametrize(
        "header",
        [
            "",
            "garbage",
            "00-short-0123456789abcdef-01",
            "00-" + "0" * 32 + "-0123456789abcdef-01",  # all-zero trace id
            "00-" + "a" * 32 + "-" + "0" * 16 + "-01",  # all-zero span id
            "00-" + "g" * 32 + "-0123456789abcdef-01",  # non-hex
            "00-" + "a" * 32 + "-0123456789abcdef",  # missing flags
        ],
    )
    def test_malformed_headers_are_dropped_not_fatal(self, header):
        assert parse_traceparent(header) is None

    def test_ids_are_unique_and_well_formed(self):
        tids = {new_trace_id() for _ in range(64)}
        assert len(tids) == 64
        assert all(len(t) == 32 and int(t, 16) for t in tids)


# ----------------------------------------------------------------------
# recorder + span trees
# ----------------------------------------------------------------------
class TestRecorder:
    def test_span_tree_nests_by_parent_id(self):
        rec = TraceRecorder()
        root = rec.start_span("root")
        child = rec.start_span("child", parent_id=root.span_id)
        rec.start_span("grandchild", parent_id=child.span_id).finish()
        child.finish()
        root.finish()
        tree = span_tree([s.to_dict() for s in rec.spans()])
        assert [(d, s["name"]) for d, s in tree] == [
            (0, "root"), (1, "child"), (2, "grandchild"),
        ]

    def test_context_manager_marks_error(self):
        rec = TraceRecorder()
        with pytest.raises(ValueError):
            with rec.start_span("boom"):
                raise ValueError("exploded")
        (span,) = rec.spans()
        assert span.status == "error" and "exploded" in span.attrs["error"]

    def test_continues_remote_context(self):
        ctx = parse_traceparent(format_traceparent(new_trace_id(), new_span_id()))
        rec = TraceRecorder(trace_id=ctx.trace_id, parent_id=ctx.span_id)
        rec.start_span("local-root", parent_id=ctx.span_id).finish()
        (span,) = rec.spans()
        assert span.trace_id == ctx.trace_id
        assert span.parent_id == ctx.span_id

    def test_waterfall_renders_every_span(self):
        rec = TraceRecorder()
        root = rec.start_span("serve.request", attrs={"route": "/query"})
        rec.start_span("cache.get", parent_id=root.span_id).finish()
        root.finish()
        text = format_waterfall(
            {"trace_id": rec.trace_id, "spans": [s.to_dict() for s in rec.spans()]}
        )
        assert "serve.request" in text and "cache.get" in text
        assert "route=/query" in text


# ----------------------------------------------------------------------
# TraceStore retention
# ----------------------------------------------------------------------
def _offer(store, duration_ms=1.0, status="ok", route="/query", attrs=None):
    rec = TraceRecorder()
    rec.start_span("serve.request").finish(
        status="error" if status != "ok" else None
    )
    return store.offer(
        rec, route=route, status=status, duration_ms=duration_ms, attrs=attrs
    )


class TestTraceStore:
    def test_ring_eviction_bounds_memory(self):
        store = TraceStore(capacity=8, sample=1.0, slow_ms=1e9)
        for _ in range(50):
            assert _offer(store)
        assert len(store) == 8
        stats = store.stats()
        assert stats["stored"] == 50
        assert stats["evicted"] == 42
        # Newest-first listing, and everything listed is still gettable.
        summaries = store.recent(limit=100)
        assert len(summaries) == 8
        assert all(store.get(s["trace_id"]) is not None for s in summaries)

    def test_sample_zero_keeps_slow_and_error_only(self):
        store = TraceStore(capacity=64, sample=0.0, slow_ms=100.0)
        assert not _offer(store, duration_ms=1.0)  # fast + ok: sampled out
        assert _offer(store, duration_ms=250.0)  # slow: always kept
        assert _offer(store, duration_ms=1.0, status="error")  # always kept
        assert len(store) == 2
        kept = {r["status"] for r in store.recent()}
        assert kept == {"ok", "error"}
        assert all(r["slow"] or r["status"] == "error" for r in store.recent())
        assert store.stats()["sampled_out"] == 1

    def test_sample_one_keeps_everything(self):
        store = TraceStore(capacity=64, sample=1.0, slow_ms=1e9)
        for _ in range(10):
            assert _offer(store)
        assert len(store) == 10

    def test_slow_query_log_emits_ndjson_with_breakdown(self):
        log = io.StringIO()
        store = TraceStore(capacity=8, sample=1.0, slow_ms=50.0, slow_log=log)
        _offer(
            store, duration_ms=80.0,
            attrs={"dataset": "forum", "tenant": "acme", "template": "triangles"},
        )
        _offer(store, duration_ms=1.0, attrs={"dataset": "forum"})  # not slow
        lines = [json.loads(line) for line in log.getvalue().splitlines()]
        assert len(lines) == 1
        (entry,) = lines
        assert entry["slow_query"] is True
        assert entry["dataset"] == "forum"
        assert entry["tenant"] == "acme"
        assert entry["template"] == "triangles"
        assert entry["duration_ms"] >= 50.0
        assert "serve.request" in entry["breakdown_ms"]
        assert store.stats()["slow_queries"] == 1

    def test_slow_query_breakdown_is_self_time(self):
        # root ⊃ plan ⊃ query ⊃ cache.get, one after another: each entry
        # is that span's own time, so they add up to the root's.
        log = io.StringIO()
        store = TraceStore(capacity=8, sample=1.0, slow_ms=50.0, slow_log=log)
        rec = TraceRecorder()
        t0 = 1_700_000_000.0
        root = rec.add_timed("serve.request", None, t0, 0.200)
        plan = rec.add_timed("serve.plan", root.span_id, t0 + 0.010, 0.150)
        query = rec.add_timed("engine.query", plan.span_id, t0 + 0.020, 0.100)
        rec.add_timed("cache.get", query.span_id, t0 + 0.030, 0.040)
        store.offer(rec, route="/query", duration_ms=200.0,
                    attrs={"dataset": "forum"})
        (entry,) = [json.loads(line) for line in log.getvalue().splitlines()]
        assert entry["breakdown_ms"] == pytest.approx({
            "serve.request": 50.0, "serve.plan": 50.0,
            "engine.query": 60.0, "cache.get": 40.0,
        }, abs=0.01)
        assert sum(entry["breakdown_ms"].values()) == pytest.approx(
            entry["duration_ms"], abs=0.01
        )

    def test_filters_on_recent(self):
        store = TraceStore(capacity=16, sample=1.0, slow_ms=1e9)
        _offer(store, duration_ms=5.0, attrs={"dataset": "a"})
        _offer(store, duration_ms=50.0, attrs={"dataset": "b"})
        _offer(store, duration_ms=500.0, route="/stats")
        assert len(store.recent(min_duration_ms=40.0)) == 2
        assert len(store.recent(dataset="a")) == 1
        assert len(store.recent(route="/query")) == 2


# ----------------------------------------------------------------------
# one worker: envelope ids, error paths, concurrent integrity
# ----------------------------------------------------------------------
@pytest.fixture(scope="class")
def server():
    handle = start_server_thread(slow_query_ms=1e9)
    conn = connect(handle.host, handle.port)
    status, _ = request(
        conn, "POST", "/datasets", {"name": "forum", "dataset": SOCIAL_SPEC}
    )
    assert status == 201
    conn.close()
    yield handle
    handle.stop()


def _query_lines(conn, dataset, queries, **extra):
    status, data = request(
        conn, "POST", "/query",
        {"dataset": dataset, "queries": queries, "include_records": False, **extra},
    )
    if status != 200:
        return status, json.loads(data)
    return status, [json.loads(line) for line in data.decode().strip().split("\n")]


class TestWorkerTracing:
    def test_envelope_lines_and_store_share_one_trace_id(self, server):
        conn = connect(server.host, server.port)
        try:
            status, lines = _query_lines(
                conn, "forum", [{"kind": "triangles", "taus": [1.0, 2.0]}]
            )
            assert status == 200
            ids = {line.get("trace_id") for line in lines}
            assert len(ids) == 1 and None not in ids
            (trace_id,) = ids
            status, doc = fetch_trace(conn, trace_id)
            assert status == 200
            names = {s["name"] for s in doc["spans"]}
            assert {
                "serve.request", "serve.plan", "queue.wait",
                "engine.query", "cache.get",
            } <= names
            assert {s["trace_id"] for s in doc["spans"]} == {trace_id}
            # Exactly one root, and it carries the query envelope attrs.
            roots = [s for s in doc["spans"] if not s.get("parent_id")]
            assert len(roots) == 1
            assert roots[0]["name"] == "serve.request"
            assert roots[0]["attrs"]["dataset"] == "forum"
        finally:
            conn.close()

    def test_encode_and_write_spans_per_query(self, server):
        conn = connect(server.host, server.port)
        try:
            queries = [
                {"kind": "triangles", "taus": [1.0, 2.0]},
                {"kind": "pairs-sum", "tau": 2.0},
                {"kind": "paths", "tau": 3.0, "m": 3},
            ]
            status, lines = _query_lines(conn, "forum", queries, include_records=True)
            assert status == 200
            assert sum(1 for line in lines if line["type"] == "records") == 4
            status, doc = fetch_trace(conn, lines[0]["trace_id"])
            assert status == 200
        finally:
            conn.close()
        (root,) = [s for s in doc["spans"] if s["name"] == "serve.request"]
        timed = [s for s in doc["spans"] if s["name"] in ("serve.encode", "serve.write")]
        for name in ("serve.encode", "serve.write"):
            per_query = sorted(s["attrs"]["query"] for s in timed if s["name"] == name)
            assert per_query == [0, 1, 2], name
        assert all(s["parent_id"] == root["span_id"] for s in timed)
        assert all(s["duration_ms"] > 0 for s in timed)
        assert sum(s["duration_ms"] for s in timed) <= root["duration_ms"]

    def test_backend_query_span_counts_frontier_hits(self, server):
        # The clique entry keeps one τ frontier, which this m=5 sweep
        # replaces: it computes its lowest τ and narrows the other two; a
        # lower τ misses; then one τ hits.
        conn = connect(server.host, server.port)
        hits = []
        try:
            for taus in ([2.0, 1.5, 3.0], [1.0], [1.2]):
                status, lines = _query_lines(
                    conn, "forum", [{"kind": "cliques", "m": 5, "taus": taus}]
                )
                assert status == 200
                status, doc = fetch_trace(conn, lines[0]["trace_id"])
                assert status == 200
                (span,) = [s for s in doc["spans"] if s["name"] == "backend.query"]
                assert span["attrs"]["taus"] == len(taus)
                hits.append(span["attrs"]["frontier_hits"])
        finally:
            conn.close()
        assert hits == [2, 0, 1]

    def test_append_span_tree(self, server):
        # The four vector families, warm with a frontier each, so the
        # append maintains and carries four entries.
        from repro.obs.tracestore import _self_ms_by_name

        conn = connect(server.host, server.port)
        try:
            status, _ = request(
                conn, "POST", "/datasets",
                {"name": "ingest", "dataset": {"workload": "uniform", "n": 150, "seed": 3}},
            )
            assert status == 201
            queries = [
                {"kind": "triangles", "tau": 2.0},
                {"kind": "pairs-sum", "tau": 2.0},
                {"kind": "pairs-union", "tau": 2.0, "kappa": 3},
                {"kind": "cliques", "tau": 2.0, "m": 3},
            ]
            status, _ = _query_lines(
                conn, "ingest", [{**q, "backend": "vector"} for q in queries]
            )
            assert status == 200
            trace_id = new_trace_id()
            events = [
                {"point": [1.0, 1.0], "start": 0.0, "end": 6.0},
                {"point": [30.0, 30.0], "start": 1.0, "end": 4.0},
            ]
            body = "\n".join([json.dumps(e) for e in events] + ["not json"])
            conn.request(
                "POST", "/datasets/ingest/events", body=body.encode(),
                headers={"traceparent": format_traceparent(trace_id, new_span_id())},
            )
            resp = conn.getresponse()
            report = json.loads(resp.read())["appended"]
            assert resp.status == 200 and report["accepted"] == 2
            status, doc = fetch_trace(conn, trace_id)
            assert status == 200
        finally:
            conn.close()
        spans = doc["spans"]
        (root,) = [s for s in spans if s["name"] == "serve.request"]
        (append,) = [s for s in spans if s["name"] == "serve.append"]
        assert append["parent_id"] == root["span_id"]
        assert append["attrs"] == {"accepted": 2, "rejected": 1, "n": 152}
        steps = sorted(
            (s for s in spans if s["parent_id"] == append["span_id"]),
            key=lambda s: s["start"],
        )
        # Cliques are one of the pattern index's families.
        families = {"triangles", "pairs-sum", "pairs-union", "patterns"}
        for name in ("engine.cache.maintain", "engine.cache.carry"):
            mine = [s for s in steps if s["name"] == name]
            assert {s["attrs"]["family"] for s in mine} == families, name
            for s in mine:
                assert s["attrs"]["rerun_rows"] > 0 and s["attrs"]["touched_anchors"] > 0
        for s in steps:
            if s["name"] == "engine.cache.carry":
                assert 0 <= s["attrs"]["rerun_anchors"] <= s["attrs"]["touched_anchors"]
        assert all(s["attrs"]["rows"] > 0 for s in steps if s["name"].endswith("carry"))
        assert len(steps) == 8
        # One after the other, so self times add up to the root's.
        for before, after in zip(steps, steps[1:]):
            end = before["start"] * 1e3 + before["duration_ms"]
            assert after["start"] * 1e3 >= end - 0.05, (before, after)
        self_ms = _self_ms_by_name(spans)
        assert min(self_ms.values()) >= 0
        assert sum(self_ms.values()) == pytest.approx(root["duration_ms"], abs=0.05)

    def test_client_traceparent_is_continued(self, server):
        trace_id, span_id = new_trace_id(), new_span_id()
        conn = connect(server.host, server.port)
        try:
            conn.request(
                "POST", "/query",
                body=json.dumps({
                    "dataset": "forum",
                    "queries": [{"kind": "pairs-sum", "tau": 2.0}],
                    "include_records": False,
                }),
                headers={
                    "Content-Type": "application/json",
                    "traceparent": format_traceparent(trace_id, span_id),
                },
            )
            resp = conn.getresponse()
            lines = [json.loads(line) for line in resp.read().decode().strip().split("\n")]
            assert resp.status == 200
            assert lines[-1]["trace_id"] == trace_id  # not a fresh id
            status, doc = fetch_trace(conn, trace_id)
            assert status == 200
            (root,) = [s for s in doc["spans"] if s["name"] == "serve.request"]
            assert root["parent_id"] == span_id  # continues the remote span
        finally:
            conn.close()

    def test_validation_400_body_carries_trace_id_and_error_trace(self, server):
        conn = connect(server.host, server.port)
        try:
            status, doc = _query_lines(
                conn, "forum", [{"kind": "nonsense", "tau": 2.0}]
            )
            assert status == 400
            assert "query #0" in doc["error"]
            trace_id = doc["trace_id"]
            assert trace_id
            status, trace = fetch_trace(conn, trace_id)
            assert status == 200
            (root,) = [s for s in trace["spans"] if s["name"] == "serve.request"]
            assert root["status"] == "error"
            assert trace["status"] == "error"
        finally:
            conn.close()

    def test_unknown_dataset_404_carries_trace_id(self, server):
        conn = connect(server.host, server.port)
        try:
            status, doc = _query_lines(conn, "nope", [{"kind": "triangles", "tau": 2}])
            assert status == 404
            assert doc["trace_id"]
        finally:
            conn.close()

    def test_execution_error_line_carries_trace_id_and_marks_root(self, server):
        # kappa on pairs-union is validated at plan time; an epsilon no
        # backend serves is not reachable, so poison at the runner level
        # instead: a pattern whose stage sweep explodes is simulated by
        # the poisoned-query serve test.  Here the per-query error line
        # contract is what matters: ok=false lines still carry the id.
        conn = connect(server.host, server.port)
        try:
            status, lines = _query_lines(
                conn, "forum",
                [
                    {"kind": "triangles", "tau": 2.0},
                    {"kind": "pairs-union", "tau": 2.0, "kappa": 10 ** 9},
                ],
            )
            # Either the batch validates to 400 (body has the id) or the
            # bad query fails in execution (its line has the id).
            if status == 400:
                assert lines["trace_id"]
            else:
                results = [line for line in lines if line.get("type") == "result"]
                assert all(line.get("trace_id") for line in results)
        finally:
            conn.close()

    def test_concurrent_batches_do_not_leak_spans_across_traces(self, server):
        """Per-request recorders must stay disjoint even though all
        requests share the shard's thread pool."""
        n_threads, per_batch = 6, 3
        outcomes = [None] * n_threads

        def run(i):
            conn = connect(server.host, server.port)
            try:
                status, lines = _query_lines(
                    conn, "forum",
                    [
                        {"kind": "triangles", "taus": [1.0 + 0.1 * j]}
                        for j in range(per_batch)
                    ],
                )
                outcomes[i] = (status, lines[-1]["trace_id"])
            finally:
                conn.close()

        threads = [threading.Thread(target=run, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert all(o is not None and o[0] == 200 for o in outcomes)
        trace_ids = [o[1] for o in outcomes]
        assert len(set(trace_ids)) == n_threads  # distinct traces

        conn = connect(server.host, server.port)
        try:
            for trace_id in trace_ids:
                status, doc = fetch_trace(conn, trace_id)
                assert status == 200
                spans = doc["spans"]
                assert {s["trace_id"] for s in spans} == {trace_id}
                # Exactly this batch's engine work, nobody else's.
                engine = [s for s in spans if s["name"] == "engine.query"]
                waits = [s for s in spans if s["name"] == "queue.wait"]
                assert len(engine) == per_batch
                assert len(waits) == per_batch
                assert sorted(s["attrs"]["query"] for s in engine) == list(
                    range(per_batch)
                )
                # Every span hangs off this trace's own tree.
                by_id = {s["span_id"] for s in spans}
                roots = [s for s in spans if not s.get("parent_id")]
                assert len(roots) == 1
                assert all(
                    s.get("parent_id") in by_id
                    for s in spans
                    if s.get("parent_id")
                )
        finally:
            conn.close()

    def test_listing_filters(self, server):
        conn = connect(server.host, server.port)
        try:
            status, lines = _query_lines(
                conn, "forum", [{"kind": "triangles", "tau": 2.0}]
            )
            assert status == 200
            status, doc = fetch_traces(conn, dataset="forum", limit=5)
            assert status == 200
            assert 0 < len(doc["traces"]) <= 5
            assert all(t["dataset"] == "forum" for t in doc["traces"])
            status, doc = fetch_traces(conn, min_duration_ms=1e9)
            assert status == 200 and doc["traces"] == []
        finally:
            conn.close()

    def test_health_and_metrics_are_untraced(self, server):
        conn = connect(server.host, server.port)
        try:
            request(conn, "GET", "/health")
            request(conn, "GET", "/metrics")
            status, doc = fetch_traces(conn, limit=500)
            assert status == 200
            routes = {t["route"] for t in doc["traces"]}
            assert "/health" not in routes and "/metrics" not in routes
        finally:
            conn.close()


class TestTracingDisabled:
    def test_disabled_tracing_omits_ids_and_404s_debug(self):
        handle = start_server_thread(tracing=False)
        conn = connect(handle.host, handle.port)
        try:
            status, _ = request(
                conn, "POST", "/datasets",
                {"name": "forum", "dataset": SOCIAL_SPEC},
            )
            assert status == 201
            status, lines = _query_lines(
                conn, "forum", [{"kind": "triangles", "tau": 2.0}]
            )
            assert status == 200
            assert all("trace_id" not in line for line in lines)
            status, doc = fetch_traces(conn)
            assert status == 503  # tracing disabled on this process
        finally:
            conn.close()
            handle.stop()

    def test_sampled_out_trace_is_a_404_not_an_error(self):
        handle = start_server_thread(trace_sample=0.0, slow_query_ms=1e9)
        conn = connect(handle.host, handle.port)
        try:
            status, _ = request(
                conn, "POST", "/datasets",
                {"name": "forum", "dataset": SOCIAL_SPEC},
            )
            assert status == 201
            status, lines = _query_lines(
                conn, "forum", [{"kind": "triangles", "tau": 2.0}]
            )
            assert status == 200
            trace_id = lines[-1]["trace_id"]
            assert trace_id  # the id is still echoed …
            status, doc = fetch_trace(conn, trace_id)
            assert status == 404  # … but the trace was sampled out
        finally:
            conn.close()
            handle.stop()


# ----------------------------------------------------------------------
# router ↔ worker stitching over real sockets
# ----------------------------------------------------------------------
class TestRouterStitching:
    def test_stitched_tree_spans_both_processes(self):
        # slow_query_ms=1: every routed request counts as slow, so the
        # slow listing below has something to show.
        handle = start_router_thread(
            workers=2, probe_interval=0.2, slow_query_ms=1
        )
        conn = None
        try:
            conn = connect(handle.host, handle.port)
            status, _ = request(
                conn, "POST", "/datasets",
                {"name": "social", "dataset": SOCIAL_SPEC},
            )
            assert status == 201
            status, lines = _query_lines(
                conn, "social",
                [{
                    "kind": "pattern-dsl",
                    "pattern": "seq(pairs(agg=sum), pairs(agg=sum), gap=[0, 5])",
                    "taus": [2.0],
                }],
            )
            assert status == 200 and lines[-1]["ok"] is not None
            trace_id = lines[-1]["trace_id"]
            assert all(line["trace_id"] == trace_id for line in lines)

            status, doc = fetch_trace(conn, trace_id)
            assert status == 200
            assert doc["stitched"] is True
            assert doc["workers"]  # at least the owning worker answered
            spans = doc["spans"]
            assert {s["trace_id"] for s in spans} == {trace_id}
            names = {s["name"] for s in spans}
            assert {
                "router.request", "router.proxy", "serve.request",
                "serve.plan", "engine.query", "cache.get", "dsl.eval",
            } <= names
            # The worker half is labelled with its slot; the router half
            # is not.
            worker_spans = [s for s in spans if s["name"] == "serve.request"]
            assert all(s["attrs"].get("worker") for s in worker_spans)
            # The tree is connected end to end: the worker's root hangs
            # off the router's proxy span, which hangs off the router
            # root — one request, one tree, two processes.
            by_id = {s["span_id"]: s for s in spans}
            (serve_root,) = worker_spans
            proxy = by_id[serve_root["parent_id"]]
            assert proxy["name"] == "router.proxy"
            router_root = by_id[proxy["parent_id"]]
            assert router_root["name"] == "router.request"
            assert router_root.get("parent_id") in (None, "")
            # Per-stage cache spans survived the hop with their outcomes.
            stage_gets = [
                s for s in spans
                if s["name"] == "cache.get" and s["attrs"].get("stage")
            ]
            assert stage_gets
            assert all(
                s["attrs"]["outcome"] in ("hit", "build", "wait")
                for s in stage_gets
            )
            # The router's slow listing, filtered by route, flags it.
            status, doc = fetch_traces(conn, min_duration_ms=1, route="/query")
            assert status == 200
            assert any(t["slow"] for t in doc["traces"]), doc["traces"]

            # The CLI renders the same stitched trace as a waterfall,
            # and lists the slow traces.
            where = ["--host", handle.host, "--port", str(handle.port)]
            out = io.StringIO()
            assert cli_main(["trace", trace_id, *where], out=out) == 0
            assert "router.proxy" in out.getvalue()
            assert "serve.request" in out.getvalue()
            out = io.StringIO()
            assert cli_main(
                ["trace", "--slow", "--min-ms", "1", *where], out=out
            ) == 0
            assert "[slow]" in out.getvalue()
        finally:
            if conn is not None:
                conn.close()
            handle.stop()

    def test_sigkill_mid_stream_closes_root_span_with_error(self):
        handle = start_router_thread(workers=2, probe_interval=0.2)
        try:
            conn = connect(handle.host, handle.port)
            status, _ = request(
                conn, "POST", "/datasets",
                {"name": "social", "dataset": {"workload": "social", "n": 300, "seed": 7}},
            )
            assert status == 201
            status, data = request(conn, "GET", "/stats")
            doc = json.loads(data)
            owner = doc["router"]["placement"]["datasets"]["social"]
            victim_pid = doc["workers"][owner]["pid"]
            conn.close()

            # A long sweep with records: enough stream left to kill into.
            taus = [round(0.5 + 0.05 * i, 2) for i in range(50)]
            body = json.dumps({
                "dataset": "social",
                "queries": [{"kind": "triangles", "taus": taus}],
                "include_records": True,
            }).encode()
            sock = socket.create_connection((handle.host, handle.port), timeout=60)
            try:
                sock.sendall(
                    b"POST /query HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: %d\r\n\r\n" % len(body) + body
                )
                buf = b""
                while b"batch-start" not in buf:
                    chunk = sock.recv(4096)
                    assert chunk, f"stream ended before batch-start: {buf!r}"
                    buf += chunk
                first_line = buf.split(b"\r\n\r\n", 1)[1]
                # trace id from the batch-start envelope, pre-kill.
                start = json.loads(
                    next(
                        ln for ln in first_line.split(b"\r\n") if b"batch-start" in ln
                    )
                )
                trace_id = start["trace_id"]
                os.kill(victim_pid, signal.SIGKILL)
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    buf += chunk
            finally:
                sock.close()
            assert b"batch-end" not in buf  # truncated, as designed

            # The router must answer the trace fetch promptly (no hang
            # on the dead worker) and its root span must be an error:
            # error traces are always retained regardless of sampling.
            conn = connect(handle.host, handle.port)
            try:
                t0 = time.monotonic()
                status, doc = fetch_trace(conn, trace_id)
                elapsed = time.monotonic() - t0
                assert elapsed < 15, f"trace fetch took {elapsed:.1f}s"
                assert status == 200
                spans = doc["spans"]
                (root,) = [s for s in spans if s["name"] == "router.request"]
                assert root["status"] == "error"
                (proxy,) = [s for s in spans if s["name"] == "router.proxy"]
                assert proxy["status"] == "error"
            finally:
                conn.close()
        finally:
            handle.stop()
