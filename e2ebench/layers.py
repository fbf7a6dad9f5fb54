"""Turn the traced run's spans into per-layer numbers.

Spans come from three places: the client (one per operation, its wall
time), the router process and the serving process (the hook's
``spans-<pid>.json``).  They are joined per request on the trace id,
nested (explicit parents inside a process; a process's top-level spans
hang under the router's dispatch or under the client), clipped to their
parent, and given a **self time**: duration minus the part of the
interval that child spans cover.

``serve.dispatch`` is the only container whose self time is left
unattributed — it is the event loop between named steps (and waiting
behind the other client's request).  ``trace.coverage`` is the share
of client wall time that is *not* such unattributed time; the client
span's own self time is the transport (socket transit plus the
connection loop's bookkeeping outside dispatch).  A batch's plans run
in parallel on the shard's threads, so the per-layer self-time sums of
``serve.bridge.queue_wait`` and ``engine.executor.execute_plan`` can
exceed the request's wall time; coverage counts wall time once.

``router.hop_ms_p50`` is, per routed request, the client's wall time
minus the worker's dispatch span — what the worker's
``http_request_seconds`` observes.  The report also gives the mean of
the same difference from the ``/metrics`` scrapes alone, as a check.
Reuse ratio and relay bytes come from ``/metrics`` diffs.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from typing import Any, Dict, List, Tuple

from repro.obs import counter_value, histogram_snapshot, parse_exposition
from workloads import percentile

HERE = os.path.dirname(os.path.abspath(__file__))
FAMILIES = ("triangles", "pairs-sum", "pairs-union", "cliques")
UNATTRIBUTED = "serve.dispatch"


def benchmark() -> Dict[str, Any]:
    """The checkout's ``BENCHMARK.json`` (metric names, units, bounds)."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


class Span:
    __slots__ = ("name", "t0", "t1", "sid", "parent", "key", "attrs", "pid",
                 "children", "self_s")

    def __init__(self, name, t0, t1, sid, parent, key, attrs, pid):
        self.name, self.t0, self.t1 = name, t0, t1
        self.sid, self.parent, self.key = sid, parent, key
        self.attrs, self.pid = attrs or {}, pid
        self.children: List["Span"] = []
        self.self_s = 0.0

    @property
    def duration(self) -> float:
        return max(0.0, self.t1 - self.t0)


def load_spans(span_files: Dict[int, str]):
    """Every process's spans, its tier, and the entry points it lacked."""
    spans, tiers, missing = [], {}, set()
    for pid, path in span_files.items():
        with open(path) as fh:
            doc = json.load(fh)
        tier = doc["tier"] or "serve"
        tiers[pid] = tier
        missing.update(doc["missing"])
        for name, t0, t1, sid, parent, key, attrs in doc["spans"]:
            if name in ("http.read_request", "dispatch"):
                name = f"{tier}.{name}"  # router.dispatch / serve.dispatch …
            spans.append(Span(name, t0, t1, sid, parent, key, attrs, pid))
    return spans, tiers, sorted(missing)


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def build_trees(spans: List[Span], ops) -> Dict[str, Span]:
    """Nest every span under its request's client span; returns key → root."""
    roots = {op.trace_id: Span("client.request", op.t0, op.t1, 0, None, op.trace_id,
                               {"kind": op.kind}, 0) for op in ops}
    by_sid = {(s.pid, s.sid): s for s in spans}
    dispatch = [s for s in spans if s.name.endswith(".dispatch")]
    router = {s.key: s for s in dispatch if s.name == "router.dispatch"}
    # Spans run on the default executor (appends, registrations) carry
    # no request: they belong to the dispatch that encloses them.
    for s in spans:
        if s.key is None and s.parent is None and s not in dispatch:
            for d in dispatch:
                if d.pid == s.pid and d.t0 <= s.t0 and s.t1 <= d.t1:
                    s.key, s.parent = d.key, d.sid
                    break
    for s in spans:  # children of those (cache.advance under an append)
        parent = by_sid.get((s.pid, s.parent))
        if s.key is None and parent is not None:
            s.key = parent.key
    for s in spans:
        if s.key not in roots:
            continue
        parent = by_sid.get((s.pid, s.parent)) if s.parent is not None else None
        if parent is None:
            # A process's top-level span: under the router's dispatch
            # when a router forwarded the request, else under the client.
            hop = router.get(s.key)
            parent = hop if hop is not None and hop.pid != s.pid else roots[s.key]
        parent.children.append(s)
    for root in roots.values():
        _finish(root)
    return roots


def _finish(span: Span) -> None:
    for child in span.children:
        child.t0, child.t1 = max(child.t0, span.t0), min(child.t1, span.t1)
        _finish(child)
    span.self_s = span.duration - _covered(
        [(c.t0, c.t1) for c in span.children], span.t0, span.t1)


def _walk(span: Span):
    yield span
    for child in span.children:
        yield from _walk(child)


def _p50_ms(values: List[float]) -> float:
    return percentile(values, 0.5) * 1e3


def report(wl, phase, traced_p50_ms: float, untraced_p50_ms: float) -> Dict[str, Any]:
    """Per-layer metrics and the self-time table of one traced phase."""
    spans, tiers, missing = load_spans(phase.span_files)
    scrapes = parse_exposition(phase.metrics_before), parse_exposition(phase.metrics_after)

    def diff(name: str) -> float:
        """A counter's growth between the phase's two /metrics scrapes."""
        return counter_value(scrapes[1], name) - counter_value(scrapes[0], name)

    ops = [op for op in phase.load.ops if op.ok]
    queries = [op for op in ops if op.kind == "query"]
    roots = build_trees(spans, ops)
    measured = [s for root in roots.values() for s in _walk(root)]
    named: Dict[str, List[Span]] = defaultdict(list)
    for s in measured:
        named[s.name].append(s)

    # Self time per layer per request, then p50/p95 across requests.
    per_request: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for s in measured:
        per_request[s.name][s.key] += s.self_s
    table = {
        name: {
            "requests": len(by_key),
            "self_ms_p50": _p50_ms(list(by_key.values())),
            "self_ms_p95": percentile(list(by_key.values()), 0.95) * 1e3,
            "self_ms_total": sum(by_key.values()) * 1e3,
        }
        for name, by_key in sorted(per_request.items())
    }
    wall = sum(root.duration for root in roots.values())
    unattributed = sum(s.self_s for s in named[UNATTRIBUTED])

    metrics: Dict[str, float] = {}
    routed = "router" in tiers.values()
    hops: List[float] = []
    hop_mean_from_metrics = 0.0
    if routed:
        for root in roots.values():
            worker = [s for s in _walk(root) if s.name == "serve.dispatch"]
            if worker:
                hops.append(root.duration - worker[0].duration)
        proxied = diff("router_proxied_queries_total")
        reuses = diff("router_upstream_reuses_total")
        connects = diff("router_upstream_connects_total")
        # The same hop from /metrics alone: client wall minus the
        # worker's http_request_seconds (one worker: slot worker-0).
        worker = [histogram_snapshot(families, "http_request_seconds",
                                     {"route": "/query", "worker": "worker-0"})
                  for families in scrapes]
        hop_mean_from_metrics = (
            sum(op.wall for op in queries) - (worker[1].sum - worker[0].sum)
        ) * 1e3 / max(1.0, worker[1].count - worker[0].count)
        metrics["router.hop_ms_p50"] = _p50_ms(hops)
        metrics["router.upstream_reuse_ratio"] = reuses / max(1.0, reuses + connects)
        metrics["router.relay_bytes_per_req"] = (
            diff("router_relay_bytes_total") / max(1.0, proxied))
    else:
        metrics.update({"router.hop_ms_p50": 0.0, "router.upstream_reuse_ratio": 0.0,
                        "router.relay_bytes_per_req": 0.0})

    chunks = named["serve.http.send_chunk"]
    records = sum(op.records for op in queries)
    lines = named["engine.results.result_lines"]
    r2d_n = sum(s.attrs["r2d_n"] for s in lines)
    n_queries = max(1, len(queries))
    metrics.update({
        "serve.http.read_request_ms_p50": _p50_ms(
            [s.duration for s in named["serve.http.read_request"]]),
        "serve.http.send_chunk_ms_per_req": sum(s.duration for s in chunks) * 1e3 / n_queries,
        "serve.http.chunks_per_req": len(chunks) / n_queries,
        "serve.http.bytes_per_record": sum(s.attrs["bytes"] for s in chunks) / max(1, records),
        "engine.results.record_to_dict_us_per_record": (
            sum(s.attrs["r2d_s"] for s in lines) * 1e6 / r2d_n if r2d_n else 0.0),
        "engine.planner.plan_batch_ms_p50": _p50_ms(
            [s.duration for s in named["engine.planner.plan_batch"]]),
        "serve.bridge.submit_plans_ms_p50": _p50_ms(
            [s.duration for s in named["serve.bridge.submit_plans"]]),
        "serve.bridge.queue_wait_ms_p50": _p50_ms(
            [s.duration for s in named["serve.bridge.queue_wait"]]),
        "serve.bridge.queue_wait_ms_p95": percentile(
            [s.duration for s in named["serve.bridge.queue_wait"]], 0.95) * 1e3,
        "serve.bridge.admission_rejected": diff("serve_admission_rejected_total"),
    })

    gets = named["engine.cache.get"]
    for source in ("hit", "build", "wait"):
        metrics[f"engine.cache.get_ms_p50.{source}"] = _p50_ms(
            [s.duration for s in gets if s.attrs["source"] == source])
    every = [s for s in spans if s.name == "engine.cache.get"]
    advances = named["engine.cache.advance"]
    migrated = sum(s.attrs["migrated"] for s in advances)
    moved = migrated + sum(s.attrs["invalidated"] for s in advances)
    metrics.update({
        "engine.cache.hit_ratio": (
            sum(1 for s in gets if s.attrs["source"] != "build") / max(1, len(gets))),
        "engine.cache.build_s": sum(s.attrs["build_s"] for s in every),
        "engine.cache.advance_ms_p50": _p50_ms([s.duration for s in advances]),
        "engine.cache.maintained_ratio": migrated / moved if moved else 0.0,
    })

    for family in FAMILIES:
        results = [r for op in queries for r in op.results if r[0] == family]
        count = sum(r[2] for r in results)
        touch = [r for r in phase.first_touch.results if r[0] == family]
        metrics[f"backends.sweep_ms.{family}"] = _p50_ms([r[3] for r in results])
        metrics[f"backends.us_per_record.{family}"] = (
            sum(r[3] for r in results) * 1e6 / count if count else 0.0)
        metrics[f"backends.first_touch_ms.{family}"] = (
            (touch[0][3] + touch[0][4]) * 1e3 if touch else 0.0)

    registers = [s for s in spans if s.name == "serve.registry.register"]
    metrics.update({
        "serve.registry.append_events_ms_p50": _p50_ms(
            [s.duration for s in named["serve.registry.append_events"]]),
        "serve.registry.register_s": registers[0].duration if registers else 0.0,
        "trace.coverage": 1.0 - unattributed / wall if wall else 0.0,
        "trace.overhead_pct": (
            (traced_p50_ms / untraced_p50_ms - 1.0) * 100.0 if untraced_p50_ms else 0.0),
    })
    return {
        "workload": wl.name,
        "requests": len(roots),
        "spans": len(spans),
        "processes": {str(pid): tier for pid, tier in tiers.items()},
        "untimed_entry_points": missing,
        "self_time_ms": table,
        "client_wall_ms_total": wall * 1e3,
        "unattributed_ms_total": unattributed * 1e3,
        "router_hop_samples": len(hops),
        "router_hop_ms_mean_from_metrics": hop_mean_from_metrics,
        "latency_p50_ms": {"traced": traced_p50_ms, "untraced": untraced_p50_ms},
        "metrics": metrics,
    }

