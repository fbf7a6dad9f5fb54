"""Tests for the multi-process routing tier (ISSUE 5 tentpole).

Placement and manifest units are pure and fast; the protocol and
failover classes drive a real router over real sockets, with real
``repro serve`` worker *subprocesses* — killing one mid-stream is the
whole point of the tier, so the tests kill one mid-stream.
"""

import gc
import http.client
import json
import os
import signal
import socket
import time
import warnings
from collections import Counter

import pytest

from repro.errors import ValidationError
from repro.obs import counter_value, parse_exposition
from repro.router import (
    PlacementManifest,
    WorkerPool,
    choose_worker,
    start_router_thread,
)
from repro.router.supervisor import worker_request

from conftest import check_route_table

SOCIAL_SPEC = {"workload": "social", "n": 90, "seed": 5}
COAUTHOR_SPEC = {"workload": "coauthor", "n": 80, "seed": 3}

# Verified to rendezvous-hash onto distinct slots of a homogeneous
# 2-worker fleet (placement is deterministic, so this cannot rot).
SPLIT_NAMES = ("social", "coauthor")


# ----------------------------------------------------------------------
# HTTP helpers
# ----------------------------------------------------------------------
def request(handle, method, path, body=None, timeout=60):
    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=timeout)
    try:
        conn.request(
            method,
            path,
            body=json.dumps(body) if body is not None else None,
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def request_json(handle, method, path, body=None, timeout=60):
    status, data = request(handle, method, path, body, timeout=timeout)
    return status, json.loads(data)


def query_lines(handle, dataset, queries, timeout=60):
    status, data = request(
        handle,
        "POST",
        "/query",
        {"dataset": dataset, "queries": queries, "include_records": False},
        timeout=timeout,
    )
    if status != 200:
        return status, json.loads(data)
    return status, [json.loads(line) for line in data.decode().strip().split("\n")]


def wait_for_recovery(handle, dataset, deadline_seconds=30.0):
    """Poll a one-query batch until it succeeds; returns elapsed seconds."""
    t0 = time.monotonic()
    last = None
    while time.monotonic() - t0 < deadline_seconds:
        try:
            status, lines = query_lines(
                handle, dataset, [{"kind": "triangles", "tau": 2.0}], timeout=15
            )
        except OSError as exc:  # pragma: no cover - transient socket races
            last = exc
            time.sleep(0.2)
            continue
        if status == 200 and lines[-1].get("ok"):
            return time.monotonic() - t0
        last = (status, lines)
        time.sleep(0.2)
    raise AssertionError(f"dataset {dataset!r} never recovered: {last!r}")


# ----------------------------------------------------------------------
# Placement (pure units)
# ----------------------------------------------------------------------
TWO = ("worker-0", "worker-1")
THREE = ("worker-0", "worker-1", "worker-2")


class TestPlacement:
    def test_deterministic_and_order_invariant(self):
        first = choose_worker("ds", TWO)
        assert first == choose_worker("ds", TWO)
        assert first == choose_worker("ds", tuple(reversed(TWO)))

    def test_spreads_across_workers(self):
        counts = Counter(choose_worker(f"ds-{i}", THREE) for i in range(120))
        assert set(counts) == set(THREE)
        assert min(counts.values()) > 10  # no pathological skew

    def test_minimal_churn_on_worker_removal(self):
        """Rendezvous property: dropping a worker only moves its own."""
        names = [f"ds-{i}" for i in range(60)]
        before = {n: choose_worker(n, THREE) for n in names}
        for name in names:
            after = choose_worker(name, TWO)
            if before[name] != "worker-2":
                assert after == before[name]

    def test_pinned_slot_assignments(self):
        # Literal assignments: a change here moves datasets between
        # workers on every router restart, so it must be deliberate.
        names = (
            "alpha", "beta", "gamma", "delta", "social", "coauthor", "forum",
            "ds-0", "ds-1", "ds-2", "ds-3", "ds-4", "ds-5", "ds-6", "ds-7",
        )
        on_two = [int(choose_worker(n, TWO)[-1]) for n in names]
        on_three = [int(choose_worker(n, THREE)[-1]) for n in names]
        assert on_two == [1, 1, 1, 1, 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 0]
        assert on_three == [1, 1, 1, 1, 0, 1, 0, 1, 2, 2, 0, 1, 0, 2, 0]

    def test_empty_pool_rejected(self):
        with pytest.raises(ValidationError):
            choose_worker("ds", [])

    def test_split_names_really_split(self):
        placed = {name: choose_worker(name, TWO) for name in SPLIT_NAMES}
        assert set(placed.values()) == set(TWO)


# ----------------------------------------------------------------------
# Manifest (pure units)
# ----------------------------------------------------------------------
class TestManifest:
    def test_record_get_remove(self):
        manifest = PlacementManifest()
        payload = {"name": "a", "dataset": {"n": 5}, "replace": True}
        assert manifest.record("a", "worker-0", payload) is None
        entry = manifest.get("a")
        assert entry.worker == "worker-0"
        assert "replace" not in entry.payload  # replay sets its own
        assert "a" in manifest and len(manifest) == 1
        old = manifest.record("a", "worker-1", payload)
        assert old.worker == "worker-0"
        assert manifest.placements() == {"a": "worker-1"}
        assert manifest.remove("a").worker == "worker-1"
        assert manifest.remove("a") is None and len(manifest) == 0

    def test_owned_by_filters(self):
        manifest = PlacementManifest()
        manifest.record("a", "worker-0", {"dataset": 1})
        manifest.record("b", "worker-1", {"dataset": 2})
        manifest.record("c", "worker-0", {"dataset": 3})
        assert {e.name for e in manifest.owned_by("worker-0")} == {"a", "c"}
        assert manifest.names() == ("a", "b", "c")

    def test_persistence_roundtrip(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        manifest = PlacementManifest(path)
        manifest.record("a", "worker-0", {"name": "a", "dataset": {"n": 5}})
        manifest.record("b", "worker-1", {"name": "b", "dataset": {"n": 7}})
        manifest.remove("b")
        reloaded = PlacementManifest(path)
        assert reloaded.placements() == {"a": "worker-0"}
        assert reloaded.get("a").payload["dataset"] == {"n": 5}

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all {")
        with pytest.raises(ValidationError):
            PlacementManifest(str(path))
        path.write_text('{"datasets": [{"name": 3}]}')
        with pytest.raises(ValidationError):
            PlacementManifest(str(path))


# ----------------------------------------------------------------------
# Full stack: protocol over a live 2-worker fleet
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def router():
    handle = start_router_thread(workers=2, probe_interval=0.2)
    try:
        for name, spec in (("social", SOCIAL_SPEC), ("coauthor", COAUTHOR_SPEC)):
            status, doc = request_json(
                handle, "POST", "/datasets", {"name": name, "dataset": spec}
            )
            assert status == 201, doc
        yield handle
    finally:
        handle.stop()


class TestRouterProtocol:
    def test_health_reports_fleet(self, router):
        status, doc = request_json(router, "GET", "/health")
        assert status == 200 and doc["ok"] is True
        assert doc["workers"] == {"total": 2, "alive": 2}
        assert doc["datasets"] >= 2

    def test_two_datasets_land_on_distinct_workers(self, router):
        status, doc = request_json(router, "GET", "/stats")
        assert status == 200
        placements = doc["router"]["placement"]["datasets"]
        assert len({placements["social"], placements["coauthor"]}) == 2

    def test_metrics_fleet_scrape_relabels_workers(self, router):
        # Touch both datasets so both workers have served something
        # (they sit on distinct slots — asserted elsewhere).
        for name, tau in (("social", 2.0), ("coauthor", 15.0)):
            status, lines = query_lines(
                router, name, [{"kind": "pairs-sum", "tau": tau}]
            )
            assert status == 200 and lines[-1]["ok"]
        status, data = request(router, "GET", "/metrics")
        assert status == 200
        # The merged fleet exposition must itself be strictly valid.
        families = parse_exposition(data.decode())

        # Router-own families are unlabelled by worker...
        assert counter_value(families, "router_workers") == 2.0
        up = {
            dict(s.labels)["worker"]: s.value
            for s in families["router_worker_up"].samples
        }
        assert up == {"worker-0": 1.0, "worker-1": 1.0}
        # ...while every re-exported serve family carries the slot name.
        workers_seen = {
            dict(s.labels).get("worker")
            for s in families["serve_queries_total"].samples
        }
        assert workers_seen == {"worker-0", "worker-1"}
        assert counter_value(
            families, "serve_queries_total", {"worker": "worker-0"}
        ) + counter_value(
            families, "serve_queries_total", {"worker": "worker-1"}
        ) == counter_value(families, "serve_queries_total")
        # The query proxied above is visible end-to-end: once in the
        # router's own counter, once in the owning worker's.
        assert counter_value(families, "router_proxied_queries_total") >= 1.0
        assert counter_value(families, "serve_queries_total") >= 1.0
        assert counter_value(families, "router_worker_scrape_errors_total") == 0.0

    def test_register_reply_names_the_worker(self, router):
        status, doc = request_json(
            router,
            "POST",
            "/datasets",
            {"name": "extra", "dataset": dict(SOCIAL_SPEC, seed=9)},
        )
        assert status == 201
        assert doc["worker"].startswith("worker-")
        assert doc["registered"]["name"] == "extra"

    def test_query_streams_through_the_owning_worker(self, router):
        status, lines = query_lines(
            router,
            "social",
            [
                {"kind": "triangles", "taus": [1.5, 2.0], "label": "sweep"},
                {"kind": "pairs-sum", "tau": 2.0},
            ],
        )
        assert status == 200
        assert lines[0]["type"] == "batch-start" and lines[0]["queries"] == 2
        results = [ln for ln in lines if ln["type"] == "result"]
        assert [r["ok"] for r in results] == [True, True]
        assert lines[-1]["type"] == "batch-end" and lines[-1]["ok"] is True

    def test_record_lines_stream_through_unchanged(self, router):
        """Chunk-by-chunk relay: per-τ record lines arrive intact, and
        the router's answer is byte-equivalent to the owning worker's
        (same NDJSON documents, same order)."""
        status, data = request(
            router,
            "POST",
            "/query",
            {
                "dataset": "social",
                "queries": [{"kind": "triangles", "taus": [1.5, 2.0, 2.5]}],
                "include_records": True,
            },
        )
        assert status == 200
        lines = [json.loads(ln) for ln in data.decode().strip().split("\n")]
        records = [ln for ln in lines if ln["type"] == "records"]
        assert {r["tau"] for r in records} == {1.5, 2.0, 2.5}
        for r in records:
            assert len(r["records"]) == r["count"]
        assert lines[-1]["type"] == "batch-end" and lines[-1]["ok"] is True

    def test_unknown_dataset_is_404(self, router):
        status, doc = request_json(
            router, "POST", "/query",
            {"dataset": "nope", "queries": [{"kind": "triangles", "tau": 2}]},
        )
        assert status == 404 and "nope" in doc["error"]

    def test_duplicate_registration_conflicts(self, router):
        status, doc = request_json(
            router, "POST", "/datasets", {"name": "social", "dataset": SOCIAL_SPEC}
        )
        assert status == 409 and "already registered" in doc["error"]
        status, doc = request_json(
            router,
            "POST",
            "/datasets",
            {"name": "social", "dataset": SOCIAL_SPEC, "replace": True},
        )
        assert status == 201, doc

    def test_worker_errors_relay_with_status(self, router):
        status, doc = request_json(
            router, "POST", "/query",
            {"dataset": "social", "queries": [{"kind": "made-up", "tau": 2}]},
        )
        assert status == 400 and "made-up" in doc["error"]

    def test_stats_aggregates_workers_and_identity(self, router):
        # At least one served query on the *current* shard generation
        # (earlier tests may have replaced shards, resetting counters).
        status, lines = query_lines(
            router, "social", [{"kind": "triangles", "tau": 2.0}]
        )
        assert status == 200 and lines[-1]["ok"]
        status, doc = request_json(router, "GET", "/stats")
        assert status == 200
        assert set(doc["workers"]) == {"worker-0", "worker-1"}
        router_pid = os.getpid()
        for slot, entry in doc["workers"].items():
            assert entry["alive"] is True
            assert entry["pid"] not in (None, router_pid)  # real subprocess
            assert int(entry["address"].rsplit(":", 1)[1]) > 0
        identity = doc["router"]["identity"]
        assert identity["pid"] == router_pid  # in-process fixture router
        assert f'{identity["host"]}:{identity["port"]}' == router.address
        assert identity["started_age_seconds"] >= 0
        assert doc["router"]["connections"]["max_requests_per_connection"] >= 1
        assert doc["router"]["placement"]["policy"] == "rendezvous (HRW)"
        # Counts live in the fleet scrape, not in /stats.
        assert "totals" not in doc and "proxy" not in doc["router"]
        status, data = request(router, "GET", "/metrics")
        families = parse_exposition(data.decode())
        assert counter_value(families, "router_proxied_queries_total") >= 1
        assert counter_value(
            families, "serve_queries_total", {"dataset": "social"}
        ) >= 1
        for slot in doc["workers"]:
            assert counter_value(
                families, "http_connections_opened_total", {"worker": slot}
            ) >= 1

    def test_stats_makes_no_upstream_request(self, router):
        def upstream_requests():
            # The router's own families exactly as GET /metrics renders
            # them, read in process: a real scrape would itself fan out
            # to every worker over the upstream pool.
            families = parse_exposition(router.app.metrics.render())
            return counter_value(
                families, "router_upstream_connects_total"
            ) + counter_value(families, "router_upstream_reuses_total")

        before = upstream_requests()
        status, doc = request_json(router, "GET", "/stats")
        assert status == 200 and set(doc["workers"]) == {"worker-0", "worker-1"}
        assert upstream_requests() == before

    def test_datasets_listing_names_workers(self, router):
        status, doc = request_json(router, "GET", "/datasets")
        assert status == 200
        by_name = {d["name"]: d for d in doc["datasets"]}
        assert by_name["social"]["worker"].startswith("worker-")
        assert by_name["social"]["dataset"]["workload"] == "social"

    def test_delete_and_reregister_roundtrip(self, router):
        spec = dict(COAUTHOR_SPEC, seed=11)
        status, doc = request_json(
            router, "POST", "/datasets", {"name": "tmp-del", "dataset": spec}
        )
        assert status == 201
        status, doc = request_json(router, "DELETE", "/datasets/tmp-del")
        assert status == 200 and doc["removed"] == "tmp-del"
        assert doc["worker"].startswith("worker-")
        assert doc["dataset"]["name"] == "tmp-del"  # the worker's shard
        status, _ = request_json(
            router, "POST", "/query",
            {"dataset": "tmp-del", "queries": [{"kind": "triangles", "tau": 2}]},
        )
        assert status == 404
        status, doc = request_json(router, "DELETE", "/datasets/tmp-del")
        assert status == 404
        status, doc = request_json(
            router, "POST", "/datasets", {"name": "tmp-del", "dataset": spec}
        )
        assert status == 201
        status, lines = query_lines(
            router, "tmp-del", [{"kind": "triangles", "tau": 2.0}]
        )
        assert status == 200 and lines[-1]["ok"] is True
        request_json(router, "DELETE", "/datasets/tmp-del")

    def test_wrong_method_on_delete_path_is_405(self, router):
        status, _ = request_json(router, "GET", "/datasets/social")
        assert status == 405
        check_route_table(router, "social")

    def test_delete_percent_encoded_name(self, router):
        """Names with spaces survive the router→worker DELETE hop (the
        router unquotes the request path and re-quotes for the worker)."""
        spec = {"workload": "uniform", "n": 30, "seed": 1}
        status, doc = request_json(
            router, "POST", "/datasets", {"name": "with space", "dataset": spec}
        )
        assert status == 201, doc
        status, doc = request_json(router, "DELETE", "/datasets/with%20space")
        assert status == 200 and doc["removed"] == "with space"
        assert doc["dataset"]["name"] == "with space"  # worker really freed it
        status, _ = request_json(router, "DELETE", "/datasets/with%20space")
        assert status == 404

    def test_proxied_query_streams_count_under_the_status_sent(self):
        """The router's own /query series and root spans carry the
        status it actually sent for a proxied stream."""
        handle = start_router_thread(workers=1, probe_interval=0.3)
        try:
            status, doc = request_json(
                handle, "POST", "/datasets",
                {"name": "d", "dataset": {"workload": "uniform", "n": 40}},
            )
            assert status == 201, doc
            trace_ids = []
            for _ in range(3):
                status, lines = query_lines(
                    handle, "d", [{"kind": "triangles", "tau": 1.0}]
                )
                assert status == 200 and lines[-1]["ok"] is True
                trace_ids.append(lines[-1]["trace_id"])
            _, data = request(handle, "GET", "/metrics")
            own = {
                s.labels["status"]: s.value
                for s in parse_exposition(data.decode())["http_requests_total"].samples
                if "worker" not in s.labels and s.labels["route"] == "/query"
            }
            assert own == {"200": 3.0}
            for trace_id in trace_ids:
                status, doc = request_json(handle, "GET", f"/debug/traces/{trace_id}")
                assert status == 200, doc
                (root,) = (s for s in doc["spans"] if s["name"] == "router.request")
                assert root["attrs"]["status"] == 200
        finally:
            handle.stop()

    def test_both_tiers_word_rejections_the_same(self):
        """One rule and one message per rejection, serve and router alike."""
        from repro.serve import start_server_thread

        unknown = (404, "unknown dataset 'ghost'; registered: a")
        bad_name = "dataset name must be a non-empty string without '/', got {}"
        expected = [
            unknown, unknown, unknown,
            (400, bad_name.format(5)), (400, bad_name.format("'a/b'")),
        ]
        tiers = {"serve": start_server_thread()}
        try:
            tiers["router"] = start_router_thread(workers=1, probe_interval=0.3)
            for tier, handle in tiers.items():
                status, doc = request_json(
                    handle, "POST", "/datasets",
                    {"name": "a", "dataset": {"workload": "uniform", "n": 20}},
                )
                assert status == 201, doc
                answers = [
                    request_json(
                        handle, "POST", "/query",
                        {"dataset": "ghost", "queries": [{"kind": "triangles", "tau": 1}]},
                    ),
                    request_json(handle, "DELETE", "/datasets/ghost"),
                    request_json(
                        handle, "POST", "/datasets/ghost/events",
                        {"point": [0.5, 0.5], "start": 0.0, "end": 1.0},
                    ),
                ] + [
                    request_json(
                        handle, "POST", "/datasets",
                        {"name": name, "dataset": {"workload": "uniform", "n": 20}},
                    )
                    for name in (5, "a/b")
                ]
                assert [(s, doc["error"]) for s, doc in answers] == expected, tier
        finally:
            for handle in tiers.values():
                handle.stop()


# ----------------------------------------------------------------------
# Clean stop
# ----------------------------------------------------------------------
class TestCleanStop:
    def test_stop_closes_every_worker_pipe(self):
        # A pipe left open is only closed by the garbage collector, which
        # reports it as a ResourceWarning (shown under ``python -X dev``).
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            pool = WorkerPool(workers=1)
            pool.start()
            pool.stop()
            del pool
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]


# ----------------------------------------------------------------------
# Failover: the acceptance scenario
# ----------------------------------------------------------------------
class TestFailover:
    def test_kill_mid_stream_truncates_then_replay_recovers(self):
        """A worker killed under load is restarted with its datasets
        re-registered; the interrupted client sees a clean truncation."""
        handle = start_router_thread(workers=2, probe_interval=0.2)
        try:
            # Datasets on both workers: the survivor must keep serving.
            specs = {
                "social": {"workload": "social", "n": 300, "seed": 7},
                "coauthor": {"workload": "coauthor", "n": 80, "seed": 3},
            }
            for name, spec in specs.items():
                status, doc = request_json(
                    handle, "POST", "/datasets", {"name": name, "dataset": spec}
                )
                assert status == 201, doc
            status, lines = query_lines(
                handle, "social", [{"kind": "triangles", "taus": [1.0, 2.0]}]
            )
            assert status == 200 and lines[-1]["ok"]

            status, doc = request_json(handle, "GET", "/stats")
            owner = doc["router"]["placement"]["datasets"]["social"]
            other = doc["router"]["placement"]["datasets"]["coauthor"]
            assert owner != other
            victim_pid = doc["workers"][owner]["pid"]
            old_generation = doc["workers"][owner]["generation"]

            # A long sweep with records: enough stream left to kill into.
            taus = [round(0.5 + 0.05 * i, 2) for i in range(50)]
            body = json.dumps(
                {
                    "dataset": "social",
                    "queries": [{"kind": "triangles", "taus": taus}],
                    "include_records": True,
                }
            ).encode()
            sock = socket.create_connection(
                (handle.host, handle.port), timeout=60
            )
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
                os.kill(victim_pid, signal.SIGKILL)
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    buf += chunk
            finally:
                sock.close()
            text = buf.decode("utf-8", "replace")
            # Clean truncation: stream just stops — no terminator, no
            # batch-end, and no second response spliced into the body.
            assert "batch-end" not in text
            assert not text.endswith("0\r\n\r\n")
            assert text.count("HTTP/1.1") == 1

            # The other worker's dataset keeps serving throughout.
            status, lines = query_lines(
                handle, "coauthor", [{"kind": "triangles", "tau": 15.0}]
            )
            assert status == 200 and lines[-1]["ok"]

            # Queries racing the dead worker answer 503 (never hang);
            # restart-with-replay then brings the dataset back.
            saw = Counter()
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                status, payload = query_lines(
                    handle, "social",
                    [{"kind": "triangles", "tau": 2.0}], timeout=15,
                )
                saw[status] += 1
                if status == 200 and payload[-1].get("ok"):
                    break
                assert status in (200, 503), payload
                time.sleep(0.1)
            assert saw[200] >= 1, f"never recovered: {saw}"

            status, doc = request_json(handle, "GET", "/stats")
            worker = doc["workers"][owner]
            assert worker["alive"] is True
            assert worker["restarts"] >= 1
            assert worker["generation"] > old_generation
            assert worker["pid"] != victim_pid
            # Replay restored every dataset the manifest pins to the
            # slot — both placements are unchanged (slots are stable).
            assert doc["router"]["placement"]["datasets"]["social"] == owner
            host, port = worker["address"].rsplit(":", 1)
            status, body = worker_request(host, int(port), "GET", "/datasets")
            assert status == 200
            assert "social" in {d["name"] for d in json.loads(body)["datasets"]}
        finally:
            handle.stop()

    def test_placement_is_deterministic_across_router_restarts(self, tmp_path):
        names = ["alpha", "beta", "gamma"]
        spec = {"workload": "social", "n": 40, "seed": 2}

        def boot_and_place():
            handle = start_router_thread(workers=2, probe_interval=0.3)
            try:
                for name in names:
                    status, doc = request_json(
                        handle, "POST", "/datasets",
                        {"name": name, "dataset": spec},
                    )
                    assert status == 201, doc
                status, doc = request_json(handle, "GET", "/stats")
                return doc["router"]["placement"]["datasets"]
            finally:
                handle.stop()

        first = boot_and_place()
        second = boot_and_place()
        assert first == second
        # ... and both match the pure placement function's prediction.
        assert first == {name: choose_worker(name, TWO) for name in names}

    def test_manifest_restores_datasets_across_router_restarts(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        spec = {"workload": "social", "n": 50, "seed": 4}
        handle = start_router_thread(
            workers=1, probe_interval=0.3, manifest_path=path
        )
        try:
            status, doc = request_json(
                handle, "POST", "/datasets", {"name": "forum", "dataset": spec}
            )
            assert status == 201, doc
        finally:
            handle.stop()

        # Fresh router, fresh workers — the manifest alone restores it.
        handle = start_router_thread(
            workers=1, probe_interval=0.3, manifest_path=path
        )
        try:
            status, lines = query_lines(
                handle, "forum", [{"kind": "triangles", "tau": 2.0}]
            )
            assert status == 200 and lines[-1]["ok"] is True
        finally:
            handle.stop()
