"""The load client: keep-alive HTTP, NDJSON parsing and per-answer checks.

Every response is parsed in full and checked for shape (status, one
``result`` line per query, ``ok`` flags, counts equal to the delivered
records); a failed check marks the operation failed.  Record id sets
are kept only for the requests the verifier samples.
"""

from __future__ import annotations

import http.client
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple


def record_key(record: Dict[str, Any]) -> Tuple[int, ...]:
    """Order-free identity of one served record (ids only, no floats)."""
    kind = record.get("type")
    if kind == "triangle":
        return tuple(sorted(record["ids"]))
    if kind == "pair":
        return tuple(sorted((record["p"], record["q"])))
    return tuple(sorted(record["members"]))


def traceparent(trace_id: str) -> str:
    return f"00-{trace_id}-{1:016x}-01"


@dataclass
class Op:
    """One measured operation, as the client saw it."""

    kind: str  # "query" or "append"
    client: int
    seq: int
    trace_id: str
    t0: float
    t1: float = 0.0
    ok: bool = False
    error: Optional[str] = None
    records: int = 0
    #: ``[(kind, tau, count, query_seconds, build_seconds), …]`` per query.
    results: List[Tuple[str, float, int, float, float]] = field(default_factory=list)
    #: Picked by the seeded verification sample.
    sampled: bool = False
    #: Query → record-key set, kept for sampled requests with records.
    ids: Optional[List[set]] = None
    #: The request body (query batch) or event list, for verification.
    payload: Any = None
    #: Events appended before this op (ingest: fixes the dataset version).
    events_before: int = 0

    @property
    def wall(self) -> float:
        return self.t1 - self.t0


class Client:
    """One keep-alive connection."""

    def __init__(self, host: str, port: int, timeout: float = 120.0) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def close(self) -> None:
        self.conn.close()

    def post(self, path: str, body: bytes, content_type: str,
             headers: Optional[Dict[str, str]] = None) -> Tuple[int, bytes]:
        # No retry: a resent append would apply twice.  A server that
        # reaches its per-connection cap says ``Connection: close`` and
        # http.client opens a fresh socket for the next request.
        self.conn.request("POST", path, body=body, headers={
            "Content-Type": content_type, **(headers or {}),
        })
        resp = self.conn.getresponse()
        return resp.status, resp.read()


def check_batch(raw: bytes, queries: List[Dict[str, Any]],
                include_records: bool, keep_ids: bool, op: Op) -> None:
    """Parse one NDJSON query answer into ``op``; any mismatch fails it."""
    lines = [json.loads(line) for line in raw.split(b"\n") if line.strip()]
    if not lines or lines[0].get("type") != "batch-start":
        raise ValueError("answer does not open with batch-start")
    end = lines[-1]
    if end.get("type") != "batch-end" or not end.get("ok") or end.get("errors"):
        raise ValueError(f"batch-end not ok: {end}")
    delivered: Dict[Tuple[int, str], int] = {}
    ids: List[set] = [set() for _ in queries] if keep_ids else []
    results: List[Dict[str, Any]] = [None] * len(queries)  # type: ignore[list-item]
    for line in lines[1:-1]:
        kind = line.get("type")
        if kind == "records":
            key = (line["query"], repr(float(line["tau"])))
            if line["count"] != len(line["records"]) or key in delivered:
                raise ValueError(f"records line for query {line['query']} is inconsistent")
            delivered[key] = line["count"]
            if keep_ids:
                ids[line["query"]].update(record_key(r) for r in line["records"])
        elif kind == "result":
            if not line.get("ok"):
                raise ValueError(f"query {line['query']} failed: {line.get('error')}")
            results[line["query"]] = line
    total = 0
    for i, (query, result) in enumerate(zip(queries, results)):
        if result is None or result.get("kind") != query["kind"]:
            raise ValueError(f"query {i} has no matching result line")
        for tau_text, count in result["counts"].items():
            tau = float(tau_text)
            if include_records and delivered.get((i, repr(tau))) != count:
                raise ValueError(f"query {i} tau {tau}: count {count} != records delivered")
            total += count
            op.results.append(
                (query["kind"], tau, count, result["query_seconds"], result["build_seconds"])
            )
    if include_records and len(delivered) != sum(len(r["counts"]) for r in results):
        raise ValueError("records lines do not match the result lines")
    op.records = total
    if keep_ids:
        op.ids = ids


def timed_query(client: Client, op: Op, dataset: str, queries: List[Dict[str, Any]],
                include_records: bool, keep_ids: bool) -> Op:
    """Send one query batch and check its answer; fills ``op`` in place."""
    body = json.dumps({
        "dataset": dataset, "queries": queries, "include_records": include_records,
    }).encode()
    op.payload = queries
    op.sampled = keep_ids
    keep_ids = keep_ids and include_records
    op.t0 = time.perf_counter()
    try:
        status, raw = client.post(
            "/query", body, "application/json",
            {"traceparent": traceparent(op.trace_id)},
        )
    except (http.client.HTTPException, OSError) as exc:
        op.t1 = time.perf_counter()
        op.error = f"{type(exc).__name__}: {exc}"
        return op
    op.t1 = time.perf_counter()
    if status != 200:
        op.error = f"HTTP {status}: {raw[:200]!r}"
        return op
    try:
        check_batch(raw, queries, include_records, keep_ids, op)
    except (ValueError, KeyError, TypeError) as exc:
        op.error = str(exc)
        return op
    op.ok = True
    return op


def timed_append(client: Client, op: Op, dataset: str,
                 events: List[Dict[str, Any]]) -> Op:
    """POST one NDJSON event batch; every event must be accepted."""
    body = "".join(json.dumps(e) + "\n" for e in events).encode()
    op.payload = events
    op.t0 = time.perf_counter()
    try:
        status, raw = client.post(
            f"/datasets/{dataset}/events", body, "application/x-ndjson",
            {"traceparent": traceparent(op.trace_id)},
        )
    except (http.client.HTTPException, OSError) as exc:
        op.t1 = time.perf_counter()
        op.error = f"{type(exc).__name__}: {exc}"
        return op
    op.t1 = time.perf_counter()
    try:
        report = json.loads(raw).get("appended", {}) if status == 200 else {}
    except ValueError:
        report = {}
    if status != 200 or report.get("accepted") != len(events) or report.get("rejected"):
        op.error = f"append HTTP {status}: {raw[:200]!r}"
        return op
    op.records = len(events)
    op.ok = True
    return op
