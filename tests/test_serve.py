"""Tests for the async serving front end (ISSUE 2 tentpole).

Drives a real in-process server over real sockets: register → query →
stream → stats, per-query fault records in the NDJSON stream, bounded
admission (429), shard isolation between datasets, and clean shutdown.
Registry and bridge units are covered directly underneath.  Keep-alive
connection-loop behaviour (reuse, timeouts, framing rejections) lives
in ``test_serve_keepalive.py``.
"""

import asyncio
import json
import http.client
import sys
import threading
import time

import pytest

from repro import QueryEngine, QuerySpec, ValidationError
from repro.datasets import workload_from_spec
from repro.engine import QueryResult, plan_batch
from repro.obs import counter_value, parse_exposition
from repro.serve import (
    AdmissionQueue,
    DatasetRegistry,
    OverloadedError,
    UnknownDatasetError,
    start_server_thread,
    submit_plans,
)

from conftest import check_route_table, random_tps

SOCIAL_SPEC = {"workload": "social", "n": 80, "seed": 5}
COAUTHOR_SPEC = {"workload": "coauthor", "n": 60, "seed": 3}


# ----------------------------------------------------------------------
# HTTP helpers
# ----------------------------------------------------------------------
def request(handle, method, path, body=None, timeout=30):
    """One request against the fixture server; returns (status, headers, bytes)."""
    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=timeout)
    try:
        conn.request(
            method,
            path,
            body=json.dumps(body) if body is not None else None,
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def request_json(handle, method, path, body=None):
    status, _, data = request(handle, method, path, body)
    return status, json.loads(data)


def request_ndjson(handle, method, path, body=None):
    status, _, data = request(handle, method, path, body)
    lines = [json.loads(line) for line in data.decode().strip().split("\n") if line]
    return status, lines


def scrape(handle):
    """``GET /metrics``, strictly parsed."""
    status, _, data = request(handle, "GET", "/metrics")
    assert status == 200
    return parse_exposition(data.decode())


def _wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out waiting"
        time.sleep(0.01)


# ----------------------------------------------------------------------
# Fixtures
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def server():
    handle = start_server_thread(queue_limit=8)
    status, doc = request_json(
        handle, "POST", "/datasets", {"name": "soc", "dataset": SOCIAL_SPEC}
    )
    assert status == 201, doc
    yield handle
    handle.stop()


# ----------------------------------------------------------------------
# Protocol end-to-end
# ----------------------------------------------------------------------
class TestProtocol:
    def test_health(self, server):
        status, doc = request_json(server, "GET", "/health")
        assert status == 200 and doc["ok"] is True

    def test_stats_exposes_connection_counters(self, server):
        status, doc = request_json(server, "GET", "/stats")
        assert status == 200
        assert doc["server"]["identity"]["started_age_seconds"] >= 0
        # /stats holds settings only; the counts are in /metrics.
        assert set(doc["server"]["connections"]) == {
            "idle_timeout_seconds", "max_requests_per_connection",
        }
        families = scrape(server)
        assert counter_value(families, "http_connections_opened_total") >= 1
        assert counter_value(families, "http_connections_active") >= 1

    def test_register_reports_identity(self, server):
        status, doc = request_json(
            server, "POST", "/datasets", {"name": "tmp-id", "dataset": SOCIAL_SPEC}
        )
        assert status == 201
        reg = doc["registered"]
        tps = workload_from_spec(SOCIAL_SPEC)
        assert reg["n"] == tps.n and reg["fingerprint"] == tps.fingerprint()

    def test_duplicate_registration_conflicts(self, server):
        status, doc = request_json(
            server, "POST", "/datasets", {"name": "soc", "dataset": SOCIAL_SPEC}
        )
        assert status == 409 and "already registered" in doc["error"]
        status, _ = request_json(
            server,
            "POST",
            "/datasets",
            {"name": "soc", "dataset": SOCIAL_SPEC, "replace": True},
        )
        assert status == 201

    def test_register_bad_spec_is_400(self, server):
        status, doc = request_json(
            server, "POST", "/datasets",
            {"name": "bad", "dataset": {"workload": "nonsense"}},
        )
        assert status == 400 and "unknown workload" in doc["error"]
        status, _ = request_json(server, "POST", "/datasets", {"name": "x"})
        assert status == 400
        # A non-string name is client error (400), never a 500.
        status, doc = request_json(
            server, "POST", "/datasets",
            {"name": {"a": 1}, "dataset": SOCIAL_SPEC},
        )
        assert status == 400 and "name" in doc["error"]

    def test_query_streams_results_matching_engine(self, server):
        queries = [
            {"kind": "triangles", "taus": [2.0, 4.0], "label": "sweep"},
            {"kind": "pairs-sum", "tau": 3.0},
            {"kind": "cliques", "tau": 2.0, "m": 3},
        ]
        status, lines = request_ndjson(
            server, "POST", "/query", {"dataset": "soc", "queries": queries}
        )
        assert status == 200
        assert lines[0]["type"] == "batch-start" and lines[0]["queries"] == 3
        assert lines[-1]["type"] == "batch-end"
        assert lines[-1]["ok"] is True and lines[-1]["errors"] == 0
        assert "cache" in lines[-1]

        results = [ln for ln in lines if ln["type"] == "result"]
        assert [r["query"] for r in results] == [0, 1, 2]
        assert all(r["ok"] for r in results)

        # The streamed counts must equal a direct engine run.
        engine = QueryEngine()
        batch = engine.run_batch(
            workload_from_spec(SOCIAL_SPEC),
            [QuerySpec.from_dict(q) for q in queries],
        )
        for streamed, local in zip(results, batch):
            assert streamed["counts"] == {
                str(tau): len(recs) for tau, recs in local.records_by_tau.items()
            }

        # One records line per τ so a τ-sweep never buffers as one blob.
        record_lines = [ln for ln in lines if ln["type"] == "records"]
        sweep_lines = [ln for ln in record_lines if ln["query"] == 0]
        assert [ln["tau"] for ln in sweep_lines] == [2.0, 4.0]
        for ln in record_lines:
            assert len(ln["records"]) == ln["count"]

    def test_include_records_false_skips_payload(self, server):
        status, lines = request_ndjson(
            server,
            "POST",
            "/query",
            {
                "dataset": "soc",
                "queries": [{"kind": "triangles", "tau": 2.0}],
                "include_records": False,
            },
        )
        assert status == 200
        assert not [ln for ln in lines if ln["type"] == "records"]
        assert [ln for ln in lines if ln["type"] == "result"][0]["ok"] is True

    def test_repeat_query_hits_shard_cache(self, server):
        body = {"dataset": "soc", "queries": [{"kind": "pairs-union", "tau": 3.0, "kappa": 2}]}
        request_ndjson(server, "POST", "/query", body)
        _, lines = request_ndjson(server, "POST", "/query", body)
        result = [ln for ln in lines if ln["type"] == "result"][0]
        assert result["cache_hit"] is True

    def test_unknown_dataset_is_404(self, server):
        status, doc = request_json(
            server, "POST", "/query",
            {"dataset": "nope", "queries": [{"kind": "triangles", "tau": 2.0}]},
        )
        assert status == 404 and "unknown dataset" in doc["error"]

    def test_invalid_query_spec_is_400(self, server):
        status, doc = request_json(
            server, "POST", "/query",
            {"dataset": "soc", "queries": [{"kind": "triangles"}]},
        )
        assert status == 400 and "durability" in doc["error"]
        # Plan-time validation too (exact triangles need the ℓ∞ metric).
        status, doc = request_json(
            server, "POST", "/query",
            {"dataset": "soc",
             "queries": [{"kind": "triangles", "tau": 2.0, "backend": "linf-exact"}]},
        )
        assert status == 400 and "linf" in doc["error"]

    def test_inline_dataset_spec_is_rejected(self, server):
        status, doc = request_json(
            server, "POST", "/query",
            {"dataset": SOCIAL_SPEC, "queries": [{"kind": "triangles", "tau": 2.0}]},
        )
        assert status == 400 and "register" in doc["error"]

    def test_every_route_in_the_table_has_a_handler_on_both_tiers(self):
        import inspect

        from repro.router import RouterApp
        from repro.serve import ServeApp
        from repro.serve.server import ROUTES

        for (method, route), handler in ROUTES.items():
            for app in (ServeApp, RouterApp):
                params = list(inspect.signature(getattr(app, handler)).parameters)
                # A route's {…} segment arrives as the first argument.
                assert len(params) == (5 if "{" in route else 4), (app, handler)
                assert params[-3:] == ["request", "writer", "state"], (app, handler)

    def test_unroutable_paths(self, server):
        status, _ = request_json(server, "GET", "/nope")
        assert status == 404
        status, _ = request_json(server, "GET", "/query")
        assert status == 405
        status, doc = request_json(server, "POST", "/query", {})
        assert status == 400 and "dataset" in doc["error"]
        check_route_table(server, "soc")

    def test_stats_reports_worker_identity(self, server):
        """The identity block a routing tier attributes counters with."""
        import os

        status, doc = request_json(server, "GET", "/stats")
        assert status == 200
        identity = doc["server"]["identity"]
        assert identity["pid"] == os.getpid()  # in-process fixture server
        assert identity["host"] == server.host
        assert identity["port"] == server.port
        assert identity["started_age_seconds"] >= 0
        # Monotonic age: never jumps backwards between polls.
        _, later = request_json(server, "GET", "/stats")
        assert (
            later["server"]["identity"]["started_age_seconds"]
            >= identity["started_age_seconds"]
        )

    def test_delete_dataset_roundtrip(self, server):
        spec = dict(SOCIAL_SPEC, seed=21)
        status, _ = request_json(
            server, "POST", "/datasets", {"name": "tmp-del", "dataset": spec}
        )
        assert status == 201
        # Warm a shard index so DELETE really frees something.
        request_ndjson(
            server, "POST", "/query",
            {"dataset": "tmp-del", "queries": [{"kind": "triangles", "tau": 2.0}],
             "include_records": False},
        )
        status, doc = request_json(server, "DELETE", "/datasets/tmp-del")
        assert status == 200 and doc["removed"]["name"] == "tmp-del"
        status, doc = request_json(
            server, "POST", "/query",
            {"dataset": "tmp-del", "queries": [{"kind": "triangles", "tau": 2.0}]},
        )
        assert status == 404
        status, doc = request_json(server, "DELETE", "/datasets/tmp-del")
        assert status == 404 and "unknown dataset" in doc["error"]
        # The name is immediately free again.
        status, _ = request_json(
            server, "POST", "/datasets", {"name": "tmp-del", "dataset": spec}
        )
        assert status == 201
        _, lines = request_ndjson(
            server, "POST", "/query",
            {"dataset": "tmp-del", "queries": [{"kind": "triangles", "tau": 2.0}],
             "include_records": False},
        )
        assert lines[-1]["ok"] is True
        request_json(server, "DELETE", "/datasets/tmp-del")

    def test_delete_wrong_method_is_405(self, server):
        status, _ = request_json(server, "GET", "/datasets/soc")
        assert status == 405
        status, _ = request_json(server, "POST", "/datasets/soc")
        assert status == 405

    def test_malformed_json_body_is_400(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            conn.request("POST", "/query", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            assert resp.status == 400
        finally:
            conn.close()


# ----------------------------------------------------------------------
# Fault isolation over the wire
# ----------------------------------------------------------------------
class TestFaultStreaming:
    def test_poisoned_query_streams_error_record(self, server, monkeypatch):
        import repro.serve.bridge as bridge_mod
        from repro.engine.executor import execute_plan as real_execute

        def poisoned_execute(plan, cache, raise_on_error=True, trace=None):
            if plan.spec.label == "poison":
                return QueryResult(
                    spec=plan.spec,
                    key=plan.key,
                    records_by_tau={},
                    cache_hit=False,
                    build_seconds=0.0,
                    query_seconds=0.0,
                    error="RuntimeError: poisoned",
                )
            return real_execute(plan, cache, raise_on_error, trace=trace)

        monkeypatch.setattr(bridge_mod, "execute_plan", poisoned_execute)
        status, lines = request_ndjson(
            server,
            "POST",
            "/query",
            {
                "dataset": "soc",
                "queries": [
                    {"kind": "triangles", "tau": 2.0},
                    {"kind": "triangles", "tau": 2.0, "label": "poison"},
                    {"kind": "pairs-sum", "tau": 3.0},
                ],
            },
        )
        assert status == 200  # the batch itself succeeds; the query failed
        results = [ln for ln in lines if ln["type"] == "result"]
        assert [r["ok"] for r in results] == [True, False, True]
        assert results[1]["error"] == "RuntimeError: poisoned"
        assert lines[-1]["errors"] == 1 and lines[-1]["ok"] is False


# ----------------------------------------------------------------------
# Backpressure and shard isolation
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_full_admission_queue_rejects_with_429(self, server):
        shard = server.app.registry.get("soc")
        limit = shard.admission.limit
        # Earlier queries' slots are released by done-callbacks on the
        # event loop, which may run just after their response went out.
        _wait_until(lambda: shard.admission.in_flight == 0)
        assert shard.admission.try_acquire(limit)  # fill the queue
        try:
            status, headers, data = request(
                server,
                "POST",
                "/query",
                {"dataset": "soc", "queries": [{"kind": "triangles", "tau": 2.0}]},
            )
            doc = json.loads(data)
            assert status == 429
            assert "admission limit" in doc["error"]
            assert "Retry-After" in headers
        finally:
            shard.admission.release(limit)
        assert counter_value(
            scrape(server), "serve_admission_rejected_total", {"dataset": "soc"}
        ) >= 1
        # Released: the next query goes straight through.
        status, lines = request_ndjson(
            server,
            "POST",
            "/query",
            {"dataset": "soc", "queries": [{"kind": "triangles", "tau": 2.0}]},
        )
        assert status == 200 and lines[-1]["ok"] is True

    def test_oversized_batch_is_rejected_whole(self, server):
        shard = server.app.registry.get("soc")
        limit = shard.admission.limit
        queries = [{"kind": "triangles", "tau": float(t)} for t in range(2, 2 + limit + 1)]
        status, _, data = request(
            server, "POST", "/query", {"dataset": "soc", "queries": queries}
        )
        assert status == 429
        assert shard.admission.in_flight == 0  # nothing half-admitted


class TestShardIsolation:
    def test_concurrent_batches_on_two_shards(self, server):
        status, _ = request_json(
            server, "POST", "/datasets",
            {"name": "coa", "dataset": COAUTHOR_SPEC, "replace": True},
        )
        assert status == 201
        soc_cache = server.app.registry.get("soc").cache
        coa_cache = server.app.registry.get("coa").cache
        assert soc_cache is not coa_cache
        coa_builds_before = coa_cache.stats.builds

        outcomes = {}

        def worker(name, taus):
            outcomes[name] = request_ndjson(
                server,
                "POST",
                "/query",
                {"dataset": name,
                 "queries": [{"kind": "triangles", "taus": taus},
                             {"kind": "pairs-sum", "tau": taus[0]}]},
            )

        threads = [
            threading.Thread(target=worker, args=("soc", [2.0, 3.0])),
            threading.Thread(target=worker, args=("coa", [20.0, 30.0])),
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        for name in ("soc", "coa"):
            status, lines = outcomes[name]
            assert status == 200
            assert lines[-1]["type"] == "batch-end" and lines[-1]["ok"] is True

        # Each shard built into its own cache: the coauthor queries
        # never touched the social shard's index cache.
        assert coa_cache.stats.builds >= coa_builds_before + 2
        status, doc = request_json(server, "GET", "/datasets")
        assert status == 200
        assert {d["name"] for d in doc["datasets"]} >= {"soc", "coa"}
        families = scrape(server)
        for name in ("soc", "coa"):
            cache = server.app.registry.get(name).cache
            assert "failed_waits" in cache.stats.snapshot().as_dict()
            assert counter_value(
                families, "serve_queries_total", {"dataset": name}
            ) >= 2

    def test_concurrent_batches_on_one_shard_count_their_own_cache_activity(
        self, monkeypatch
    ):
        """Two clients on one warm shard: the batch held open while the
        other runs ends with its own two hits, not four."""
        import repro.serve.bridge as bridge_mod

        real_execute = bridge_mod.execute_plan
        gate = threading.Event()

        def gated_execute(plan, *args, **kwargs):
            if plan.spec.label == "held":
                gate.wait(30)
            return real_execute(plan, *args, **kwargs)

        monkeypatch.setattr(bridge_mod, "execute_plan", gated_execute)
        queries = [{"kind": "triangles", "tau": 2.0}, {"kind": "pairs-sum", "tau": 2.0}]
        handle = start_server_thread(max_workers=4)
        held = http.client.HTTPConnection(handle.host, handle.port, timeout=30)
        try:
            request_json(
                handle, "POST", "/datasets", {"name": "one", "dataset": SOCIAL_SPEC}
            )
            body = {"dataset": "one", "queries": queries, "include_records": False}
            _, warm = request_ndjson(handle, "POST", "/query", body)
            assert warm[-1]["cache"]["builds"] == 2
            held.request("POST", "/query", json.dumps(
                dict(body, queries=[dict(queries[0], label="held"), queries[1]])
            ))
            held_resp = held.getresponse()  # the batch is admitted
            _, other = request_ndjson(handle, "POST", "/query", body)
            gate.set()
            ends = [
                other[-1],
                json.loads(held_resp.read().decode().strip().split("\n")[-1]),
            ]
        finally:
            gate.set()
            held.close()
            handle.stop()
        for end in ends:
            assert end["type"] == "batch-end" and end["ok"], end
            assert end["cache"] == {
                "hits": 2, "misses": 0, "builds": 0, "evictions": 0,
                "failed_waits": 0, "migrated": 0, "invalidated": 0,
                "build_seconds": 0.0, "hit_rate": 1.0,
            }, end


# ----------------------------------------------------------------------
# A dataset's series live exactly as long as its shard
# ----------------------------------------------------------------------
#: Families counted per request rather than read off a live shard.
REQUEST_FAMILIES = ("serve_query_seconds", "serve_stream_bytes_total")


class TestDatasetSeries:
    @staticmethod
    def _series(handle, name, kind):
        """The ``serve_*`` samples labelled ``dataset=name`` (``kind``
        picks the per-request or the per-shard families), keyed without
        that label."""
        return {
            (sample.name, tuple(sorted(
                (k, v) for k, v in sample.labels.items() if k != "dataset"
            ))): sample.value
            for family in scrape(handle).values()
            if family.name.startswith("serve_")
            and (family.name in REQUEST_FAMILIES) == (kind == "request")
            for sample in family.samples
            if sample.labels.get("dataset") == name
        }

    @pytest.mark.parametrize("kind", ["shard", "request"])
    def test_replace_and_delete_drop_every_dataset_series(self, monkeypatch, kind):
        import repro.serve.bridge as bridge_mod

        real_execute = bridge_mod.execute_plan
        gate = threading.Event()

        def gated_execute(plan, *args, **kwargs):
            if plan.spec.label == "late":
                gate.wait(30)
            return real_execute(plan, *args, **kwargs)

        monkeypatch.setattr(bridge_mod, "execute_plan", gated_execute)
        handle = start_server_thread(queue_limit=8)
        try:
            spec = {"name": "life", "dataset": SOCIAL_SPEC}
            query = {"dataset": "life",
                     "queries": [{"kind": "triangles", "tau": 2.0}]}
            assert request_json(handle, "POST", "/datasets", spec)[0] == 201
            assert request_ndjson(handle, "POST", "/query", query)[0] == 200
            served = {key[0] for key in self._series(handle, "life", kind)}
            assert served >= (
                {"serve_query_seconds_count", "serve_stream_bytes_total"}
                if kind == "request" else {"serve_queries_total"}
            )

            # replace=true: the successor's series are exactly those of
            # a dataset that has served nothing yet.
            status, _ = request_json(
                handle, "POST", "/datasets", dict(spec, replace=True)
            )
            assert status == 201
            status, _ = request_json(
                handle, "POST", "/datasets", dict(spec, name="fresh")
            )
            assert status == 201
            assert self._series(handle, "life", kind) == self._series(
                handle, "fresh", kind
            )

            # A query still running when DELETE arrives finishes on the
            # retired shard and records nothing.
            late = {"dataset": "life", "queries": [
                {"kind": "triangles", "tau": 2.0, "label": "late"}]}
            replies = {}
            running = threading.Thread(target=lambda: replies.update(
                query=request(handle, "POST", "/query", late)))
            running.start()
            shard = handle.app.registry.get("life")
            _wait_until(lambda: shard.admission.in_flight == 1)
            deleting = threading.Thread(target=lambda: replies.update(
                delete=request_json(handle, "DELETE", "/datasets/life")))
            deleting.start()
            _wait_until(lambda: "life" not in handle.app.registry)
            gate.set()
            running.join(30)
            deleting.join(30)
            assert not running.is_alive() and not deleting.is_alive()
            assert replies["delete"][0] == 200
            assert replies["query"][0] == 200
            assert b'"batch-end"' in replies["query"][2]
            assert self._series(handle, "life", kind) == {}
            assert self._series(handle, "fresh", "shard")  # others untouched
        finally:
            gate.set()
            handle.stop()


    def test_counts_survive_contention_and_stop_at_retire(self):
        """Recording threads share the shard's instruments: no update is
        lost, and once the shard is removed nothing comes back."""
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        registry = DatasetRegistry()
        try:
            shard = registry.register("d", random_tps(n=10, seed=0))

            def record(calls):
                for _ in range(calls):
                    shard.record_result(True, "grid", "triangles", 0.001)
                    shard.record_streamed(10)

            threads = [
                threading.Thread(target=record, args=(5000,)) for _ in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
                assert not t.is_alive()

            def count(name):
                families = parse_exposition(registry.metrics.registry.render())
                return counter_value(families, name, {"dataset": "d"})

            assert count("serve_queries_total") == 40000
            assert count("serve_template_queries_total") == 40000
            assert count("serve_stream_bytes_total") == 400000

            racing = [
                threading.Thread(target=record, args=(5000,)) for _ in range(8)
            ]
            for t in racing:
                t.start()
            registry.remove("d")
            for t in racing:
                t.join(30)
                assert not t.is_alive()
            # A series the shard never touched before it retired stays
            # unrecorded too.
            shard.record_result(False, "vector", "cliques")
            assert 'dataset="d"' not in registry.metrics.registry.render()
        finally:
            sys.setswitchinterval(switch)
            registry.close()


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_shutdown_endpoint_stops_server_cleanly(self):
        handle = start_server_thread()
        request_json(
            handle, "POST", "/datasets",
            {"name": "d", "dataset": {"workload": "uniform", "n": 40}},
        )
        status, doc = request_json(handle, "POST", "/shutdown")
        assert status == 200 and doc["stopping"] is True
        handle._thread.join(timeout=10)
        assert not handle._thread.is_alive()
        with pytest.raises(OSError):
            request_json(handle, "GET", "/health")
        handle.stop()  # idempotent

    def test_handle_stop_is_clean_and_idempotent(self):
        handle = start_server_thread()
        handle.stop()
        handle.stop()
        assert not handle._thread.is_alive()


# ----------------------------------------------------------------------
# Registry / bridge units
# ----------------------------------------------------------------------
class TestRegistry:
    def test_register_accepts_tps_and_spec(self):
        registry = DatasetRegistry()
        try:
            shard = registry.register("direct", random_tps(n=30, seed=1))
            assert shard.tps.n == 30 and "direct" in registry
            registry.register("spec", {"workload": "uniform", "n": 25})
            assert registry.names() == ["direct", "spec"]
        finally:
            registry.close()

    def test_duplicate_and_replace(self):
        from repro.serve import DuplicateDatasetError

        registry = DatasetRegistry()
        try:
            first = registry.register("d", random_tps(n=20, seed=1))
            with pytest.raises(DuplicateDatasetError, match="already registered"):
                registry.register("d", random_tps(n=20, seed=2))
            second = registry.register("d", random_tps(n=20, seed=2), replace=True)
            assert registry.get("d") is second is not first
        finally:
            registry.close()

    def test_bad_names_rejected(self):
        registry = DatasetRegistry()
        for name in ("", "a/b", " padded ", 7):
            with pytest.raises(ValidationError):
                registry.register(name, random_tps(n=10, seed=0))

    def test_unknown_dataset_error(self):
        registry = DatasetRegistry()
        with pytest.raises(UnknownDatasetError, match="unknown dataset"):
            registry.get("ghost")

    def test_per_shard_defaults_and_overrides(self):
        registry = DatasetRegistry(max_entries=4, queue_limit=9)
        try:
            a = registry.register("a", random_tps(n=10, seed=0))
            b = registry.register(
                "b", random_tps(n=10, seed=1), max_entries=2, queue_limit=3
            )
            assert a.cache.max_entries == 4 and a.admission.limit == 9
            assert b.cache.max_entries == 2 and b.admission.limit == 3
        finally:
            registry.close()

    def test_close_is_idempotent(self):
        registry = DatasetRegistry()
        registry.register("d", random_tps(n=10, seed=0))
        registry.close()
        registry.close()
        assert len(registry) == 0

    def test_remove_closes_shard_and_frees_cache(self):
        registry = DatasetRegistry()
        try:
            shard = registry.register("d", random_tps(n=20, seed=0))
            engine = QueryEngine(cache=shard.cache)
            engine.run(shard.tps, QuerySpec(kind="triangles", taus=2.0))
            assert len(shard.cache) == 1
            removed = registry.remove("d")
            assert removed is shard and "d" not in registry
            assert len(shard.cache) == 0  # resident indexes freed
            # The executor is really down.
            with pytest.raises(RuntimeError):
                shard.executor.submit(lambda: None)
            with pytest.raises(UnknownDatasetError):
                registry.remove("d")
            # The name is free for immediate reuse.
            registry.register("d", random_tps(n=10, seed=1))
        finally:
            registry.close()


class TestAdmissionQueue:
    def test_acquire_release_accounting(self):
        q = AdmissionQueue(3)
        assert q.try_acquire(2) and q.in_flight == 2
        assert not q.try_acquire(2)  # 2 + 2 > 3: rejected whole
        assert q.in_flight == 2
        q.release(2)
        assert q.in_flight == 0

    def test_limit_validated(self):
        with pytest.raises(ValidationError):
            AdmissionQueue(0)

    def test_submit_plans_is_all_or_nothing(self):
        registry = DatasetRegistry(queue_limit=2)
        try:
            shard = registry.register("d", random_tps(n=30, seed=1))
            specs = [QuerySpec(kind="triangles", taus=float(t)) for t in (2, 3, 4)]
            plans = plan_batch(specs, shard.tps)

            async def overloaded():
                with pytest.raises(OverloadedError):
                    submit_plans(shard, plans)  # 3 > limit of 2
                assert shard.admission.in_flight == 0

            asyncio.run(overloaded())

            def count(name):
                families = parse_exposition(registry.metrics.registry.render())
                return counter_value(families, name, {"dataset": "d"})

            assert count("serve_admission_rejected_total") == 3  # whole batch

            async def admitted():
                futures = submit_plans(shard, plans[:2])
                results = [await f for f in futures]
                assert all(r.ok for r in results)
                # Done-callbacks release the slots on the loop.
                for _ in range(100):
                    if shard.admission.in_flight == 0:
                        break
                    await asyncio.sleep(0.01)
                assert shard.admission.in_flight == 0

            asyncio.run(admitted())
            # The done-callbacks also counted the served queries.
            for _ in range(100):
                if count("serve_queries_total") == 2:
                    break
                time.sleep(0.01)
            assert count("serve_queries_total") == 2
            assert count("serve_query_errors_total") == 0
        finally:
            registry.close()
