"""Tests for the observability layer (ISSUE 6 tentpole).

Three layers of coverage:

* **format units** — the metric instruments and the text-exposition
  renderer against the Prometheus 0.0.4 rules (escaping, histogram
  cumulativity, stable family set), plus the strict parser rejecting
  malformed scrapes;
* **live serve scrape** — a real server over real sockets: every
  ``GET /metrics`` body must round-trip through the strict parser, and
  the counters must agree with the traffic the test just generated;
* **tenant QoS** — auth (401), per-minute quotas (429 +
  ``Retry-After``), and weighted fair admission: a saturating tenant is
  bounded to its share and cannot starve the other tenant's admission.

Router-tier scrape aggregation (worker re-labelling) lives in
``test_router.py`` next to the other subprocess-fleet tests.
"""

import json
import math

import pytest

from repro.obs import (
    CONTENT_TYPE,
    ExpositionError,
    MetricsRegistry,
    counter_value,
    histogram_snapshot,
    merge,
    parse_exposition,
    relabel,
    render_merged,
)
from repro.serve import AdmissionQueue, AuthError, TenantTable

from test_serve import SOCIAL_SPEC, request, request_json, request_ndjson


@pytest.fixture(scope="module")
def server():
    from repro.serve import start_server_thread

    handle = start_server_thread(queue_limit=8)
    status, doc = request_json(
        handle, "POST", "/datasets", {"name": "soc", "dataset": SOCIAL_SPEC}
    )
    assert status == 201, doc
    yield handle
    handle.stop()


# ----------------------------------------------------------------------
# Format units
# ----------------------------------------------------------------------
class TestExpositionFormat:
    def test_counter_render_and_parse_round_trip(self):
        m = MetricsRegistry()
        c = m.counter("requests_total", "Requests.", ("route",))
        c.labels(route="/query").inc(3)
        c.labels(route="/stats").inc()
        families = parse_exposition(m.render())
        assert families["requests_total"].type == "counter"
        assert counter_value(families, "requests_total") == 4.0
        assert counter_value(families, "requests_total", {"route": "/query"}) == 3.0

    def test_help_and_type_render_with_zero_samples(self):
        # The name set must be stable from boot: a family with no
        # children yet still announces itself (the docs-vs-exposition
        # CI check depends on this).
        m = MetricsRegistry()
        m.counter("never_incremented_total", "Nothing yet.", ("tenant",))
        m.counter("unlabelled_total", "No labels.")
        text = m.render()
        assert "# HELP never_incremented_total Nothing yet." in text
        assert "# TYPE never_incremented_total counter" in text
        assert parse_exposition(text)["never_incremented_total"].samples == []
        # A label-less instrument has its one series from registration.
        assert "\nunlabelled_total 0\n" in text

    def test_label_escaping_round_trips(self):
        m = MetricsRegistry()
        g = m.gauge("weird", "Label escaping.", ("name",))
        nasty = 'a"b\\c\nd'
        g.labels(name=nasty).set(1)
        families = parse_exposition(m.render())
        (sample,) = families["weird"].samples
        assert dict(sample.labels)["name"] == nasty

    def test_histogram_is_cumulative_with_inf_sum_count(self):
        m = MetricsRegistry()
        h = m.histogram("lat_seconds", "Latency.", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        text = m.render()
        families = parse_exposition(text)  # strict: checks cumulativity
        snap = histogram_snapshot(families, "lat_seconds")
        assert snap.count == 3 and snap.sum == pytest.approx(5.55)
        assert snap.cumulative == (1.0, 2.0, 3.0)
        assert snap.bounds[-1] == math.inf
        assert "lat_seconds_bucket{le=\"+Inf\"} 3" in text

    def test_parser_rejects_malformed_scrapes(self):
        good = "# TYPE x counter\nx 1\n"
        bad = [
            "x 1\n",                                  # sample before TYPE
            "# TYPE x counter\nx one\n",              # non-numeric value
            "# TYPE x counter\nx{l=\"v} 1\n",         # unterminated label
            "# TYPE h histogram\nh_bucket{le=\"1\"} 2\n"
            "h_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",  # non-cumulative
            "# TYPE h histogram\nh_bucket{le=\"1\"} 1\n"
            "h_sum 1\nh_count 1\n",                   # missing +Inf
        ]
        parse_exposition(good)
        for text in bad:
            with pytest.raises(ExpositionError):
                parse_exposition(text)

    def test_relabel_and_merge(self):
        m = MetricsRegistry()
        m.counter("hits_total", "Hits.").inc(2)
        worker = relabel(parse_exposition(m.render()), worker="w0")
        (sample,) = worker["hits_total"].samples
        assert dict(sample.labels) == {"worker": "w0"}
        merged = merge(worker, relabel(parse_exposition(m.render()), worker="w1"))
        (family,) = [f for f in merged if f.name == "hits_total"]
        assert len(family.samples) == 2
        # render_merged output is itself a valid exposition
        assert counter_value(
            parse_exposition(render_merged(worker)), "hits_total"
        ) == 2.0

    def test_histogram_snapshot_diff_quantiles(self):
        m = MetricsRegistry()
        h = m.histogram("s", "Diff.", buckets=(1.0, 2.0, 4.0))
        h.observe(0.5)
        before = histogram_snapshot(parse_exposition(m.render()), "s")
        for v in (0.5, 1.5, 3.0, 3.5):
            h.observe(v)
        after = histogram_snapshot(parse_exposition(m.render()), "s")
        delta = after - before
        assert delta.count == 4
        assert delta.mean == pytest.approx((0.5 + 1.5 + 3.0 + 3.5) / 4)
        assert 0.0 < delta.quantile(0.25) <= 1.0
        assert 2.0 < delta.quantile(0.9) <= 4.0


# ----------------------------------------------------------------------
# Live serve-tier scrape
# ----------------------------------------------------------------------
class TestServeScrape:
    def test_metrics_endpoint_is_strictly_parseable(self, server):
        status, headers, body = request(server, "GET", "/metrics")
        assert status == 200
        assert headers["Content-Type"] == CONTENT_TYPE
        families = parse_exposition(body.decode())  # raises on any violation
        for name in (
            "http_requests_total",
            "http_request_seconds",
            "http_connections_opened_total",
            "serve_datasets",
            "serve_queries_total",
            "serve_cache_hits_total",
            "serve_queue_depth",
            "serve_tenant_queries_total",  # present even with no tenants
        ):
            assert name in families, name

    def test_counters_track_traffic(self, server):
        before = parse_exposition(request(server, "GET", "/metrics")[2].decode())
        status, lines = request_ndjson(
            server, "POST", "/query",
            {"dataset": "soc",
             "queries": [{"kind": "pairs-sum", "tau": 2.0}],
             "include_records": False},
        )
        assert status == 200 and lines[-1]["ok"]
        after = parse_exposition(request(server, "GET", "/metrics")[2].decode())
        assert counter_value(
            after, "serve_queries_total", {"dataset": "soc"}
        ) - counter_value(before, "serve_queries_total", {"dataset": "soc"}) == 1.0
        assert counter_value(
            after, "http_requests_total", {"route": "/query", "status": "200"}
        ) >= 1.0
        delta = histogram_snapshot(
            after, "serve_query_seconds", {"dataset": "soc"}
        ) - histogram_snapshot(before, "serve_query_seconds", {"dataset": "soc"})
        assert delta.count == 1 and delta.sum > 0.0

    def test_unknown_paths_do_not_mint_label_cardinality(self, server):
        request(server, "GET", "/totally/made/up")
        families = parse_exposition(request(server, "GET", "/metrics")[2].decode())
        routes = {
            dict(s.labels)["route"]
            for s in families["http_requests_total"].samples
        }
        assert "/totally/made/up" not in routes
        assert "other" in routes


# ----------------------------------------------------------------------
# Tenant QoS
# ----------------------------------------------------------------------
TENANTS = TenantTable.from_spec(
    {
        "tenants": [
            {"key": "k-big", "name": "big", "weight": 3.0},
            {"key": "k-small", "name": "small", "weight": 1.0},
        ]
    }
)

#: A separate table (and server) for the quota test: quota windows are
#: per-minute wall-clock state, so sharing a tenant with the fairness
#: test would couple the two through leftover budget.
METERED = TenantTable.from_spec(
    [{"key": "k-metered", "name": "metered", "quota_per_minute": 4}]
)


def _tenant_server(tenants):
    from repro.serve import start_server_thread

    handle = start_server_thread(queue_limit=8, tenants=tenants)
    status, doc = request_json(
        handle, "POST", "/datasets", {"name": "soc", "dataset": SOCIAL_SPEC}
    )
    assert status == 201, doc
    return handle


@pytest.fixture(scope="class")
def tenant_server():
    handle = _tenant_server(TENANTS)
    yield handle
    handle.stop()


@pytest.fixture(scope="class")
def quota_server():
    handle = _tenant_server(METERED)
    yield handle
    handle.stop()


def tenant_request(handle, key, queries=None):
    import http.client

    body = {
        "dataset": "soc",
        "queries": queries or [{"kind": "pairs-sum", "tau": 2.0}],
        "include_records": False,
    }
    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=30)
    headers = {"Content-Type": "application/json"}
    if key is not None:
        headers["X-API-Key"] = key
    try:
        conn.request("POST", "/query", body=json.dumps(body), headers=headers)
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


class TestTenantQoS:
    def test_query_without_key_is_401(self, tenant_server):
        status, _headers, body = tenant_request(tenant_server, None)
        assert status == 401
        assert "X-API-Key" in json.loads(body)["error"]

    def test_query_with_unknown_key_is_401(self, tenant_server):
        status, _headers, _body = tenant_request(tenant_server, "nope")
        assert status == 401

    def test_health_stats_metrics_stay_open(self, tenant_server):
        for path in ("/health", "/stats", "/metrics"):
            status, _headers, _body = request(tenant_server, "GET", path)
            assert status == 200, path

    def test_quota_breach_is_429_with_retry_after(self, quota_server):
        # "metered" has quota_per_minute=4 and each batch carries one
        # plan; the breach must answer 429 + Retry-After *without*
        # consuming the remaining budget.
        import time

        # Quota windows are fixed 60s buckets of the process monotonic
        # clock (shared with the in-process server): if the current
        # window is about to roll over, wait out the boundary so all
        # six requests land in one window.
        into_window = time.monotonic() % 60.0
        if into_window > 55.0:
            time.sleep(60.5 - into_window)
        statuses = []
        retry_after = None
        for _ in range(6):
            status, headers, _body = tenant_request(quota_server, "k-metered")
            statuses.append(status)
            if status == 429:
                retry_after = headers.get("Retry-After")
        assert statuses.count(200) == 4
        assert statuses.count(429) == 2
        assert retry_after is not None and 0 < int(retry_after) <= 60

        families = parse_exposition(
            request(quota_server, "GET", "/metrics")[2].decode()
        )
        assert counter_value(
            families, "serve_tenant_queries_total", {"tenant": "metered"}
        ) == 4.0
        assert counter_value(
            families, "serve_tenant_rejections_total",
            {"tenant": "metered", "reason": "quota"},
        ) == 2.0
        assert counter_value(
            families, "serve_tenant_quota_remaining", {"tenant": "metered"}
        ) == 0.0

    def test_saturating_tenant_is_bounded_to_its_share(self, tenant_server):
        # Weighted fair admission is enforced at the AdmissionQueue:
        # weights 3:1 over limit 8 give big=6, small=2.  Saturate
        # "big" beyond its share and prove (a) it is cut off at 6 with
        # reason "share", and (b) "small" can still admit work — the
        # isolation the tier exists for.
        shard = tenant_server.app.registry.get("soc")
        q = shard.admission
        assert q.share("big") == 6 and q.share("small") == 2
        taken = 0
        for _ in range(8):
            if q.acquire_for("big", 1) is None:
                taken += 1
        assert taken == 6
        assert q.acquire_for("big", 1) == "share"
        try:
            # The other tenant's share is untouched by the saturation.
            assert q.acquire_for("small", 1) is None
            assert q.acquire_for("small", 1) is None
            # Global limit (8) trips before small's own share would:
            # the queue is full but only because every tenant is at
            # its bound — nobody overdrew.
            assert q.acquire_for("small", 1) == "queue"
            q.release(2, tenant="small")
        finally:
            q.release(taken, tenant="big")

        # And over HTTP: with "big" holding its whole share, a "big"
        # query 429s with reason=share while a "small" query succeeds.
        for _ in range(q.share("big")):
            assert q.acquire_for("big", 1) is None
        try:
            status, headers, _body = tenant_request(tenant_server, "k-big")
            assert status == 429 and "Retry-After" in headers
            status, _headers, body = tenant_request(
                tenant_server, "k-small",
                queries=[{"kind": "pairs-sum", "tau": 2.0}],
            )
            assert status == 200
        finally:
            q.release(q.share("big"), tenant="big")

        families = parse_exposition(
            request(tenant_server, "GET", "/metrics")[2].decode()
        )
        assert counter_value(
            families, "serve_tenant_rejections_total",
            {"tenant": "big", "reason": "share"},
        ) >= 1.0


class TestTenantTableUnits:
    def test_resolve_and_weights(self):
        assert TENANTS.resolve("k-big").name == "big"
        with pytest.raises(AuthError):
            TENANTS.resolve("missing")
        assert TENANTS.weights() == {"big": 3.0, "small": 1.0}

    def test_spec_validation(self):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            TenantTable.from_spec({"tenants": [{"name": "x"}]})  # no key
        with pytest.raises(ValidationError):
            TenantTable.from_spec(
                {"tenants": [
                    {"key": "a", "name": "x"},
                    {"key": "a", "name": "y"},  # duplicate key
                ]}
            )
        with pytest.raises(ValidationError):
            TenantTable.from_spec(
                {"tenants": [{"key": "a", "name": "x", "weight": -1}]}
            )

    def test_quota_window_resets(self):
        table = TenantTable.from_spec(
            [{"key": "k", "name": "t", "quota_per_minute": 2}]
        )
        assert table.check_and_consume("t", 2, now=0.0) is None
        retry = table.check_and_consume("t", 1, now=30.0)
        assert retry == 30
        # Breach did not consume: the next window has the full budget.
        assert table.check_and_consume("t", 2, now=60.0) is None

    def test_static_shares_cover_degenerate_weights(self):
        q = AdmissionQueue(limit=4)
        q.set_tenant_weights({"a": 1000.0, "b": 0.001})
        # Every tenant gets at least one slot regardless of weight.
        assert q.share("b") >= 1
        # Unknown tenants (no table entry for the shard) fall back to
        # the anonymous path: bounded by the global limit only.
        assert q.acquire_for(None, 4) is None
        assert q.acquire_for(None, 1) == "queue"
        q.release(4)
