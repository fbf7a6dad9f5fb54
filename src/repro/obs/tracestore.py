"""Bounded per-process trace retention plus the slow-query log.

Every request records spans unconditionally (the cost is list appends);
*retention* is decided once, when the finished trace is offered to the
store:

* error traces and traces at/over the slow threshold are **always**
  kept — the traces an operator actually goes looking for must never
  be sampled away;
* everything else survives with probability ``sample``
  (``--trace-sample``, head sampling in the sense that one coin flip
  covers the whole trace).

Kept traces live in a ring buffer (``capacity`` newest traces; older
ones are evicted FIFO), so memory is bounded no matter the traffic
rate.  Slow queries additionally emit one NDJSON record to the
configured stream (stderr by default) with the trace id, dataset,
tenant, template and a per-span-name breakdown of self time —
greppable without any endpoint.

The store is also the source for ``GET /debug/traces`` (recent
summaries, filterable) and ``GET /debug/traces/<id>`` (full span set).
"""

from __future__ import annotations

import json
import random
import sys
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, TextIO, Tuple

from .trace import TraceRecorder

__all__ = ["TraceStore", "DEFAULT_TRACE_CAPACITY", "DEFAULT_TRACE_SAMPLE",
           "DEFAULT_SLOW_QUERY_MS"]

#: Traces retained per process before FIFO eviction.
DEFAULT_TRACE_CAPACITY = 512

#: Fraction of fast, successful traces kept (slow + error always kept).
DEFAULT_TRACE_SAMPLE = 1.0

#: Root duration at/above which a trace counts as slow.
DEFAULT_SLOW_QUERY_MS = 500.0


def _self_ms_by_name(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Self time per span name.  A span's self time is its duration
    minus the part of its interval its children cover, so nested time
    is counted once."""
    children: Dict[Any, List[Tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span["parent_id"], []).append(
            (span["start"] * 1000.0, span["duration_ms"])
        )
    out: Dict[str, float] = {}
    for span in spans:
        lo = span["start"] * 1000.0
        hi = lo + span["duration_ms"]
        covered, reach = 0.0, lo
        for c_lo, c_ms in sorted(children.get(span["span_id"], ())):
            c_hi = min(c_lo + c_ms, hi)
            if c_hi > reach:
                covered += c_hi - max(c_lo, reach)
                reach = c_hi
        name = span["name"]
        out[name] = out.get(name, 0.0) + span["duration_ms"] - covered
    return out


class TraceStore:
    """Ring buffer of finished traces + slow-query NDJSON log."""

    def __init__(
        self,
        capacity: int = DEFAULT_TRACE_CAPACITY,
        sample: float = DEFAULT_TRACE_SAMPLE,
        slow_ms: float = DEFAULT_SLOW_QUERY_MS,
        slow_log: Optional[TextIO] = None,
    ) -> None:
        self.capacity = max(1, int(capacity))
        self.sample = min(1.0, max(0.0, float(sample)))
        self.slow_ms = float(slow_ms)
        self._slow_log = slow_log
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        # Counters, exported as metrics by the serving tiers.
        self.offered_total = 0
        self.stored_total = 0
        self.sampled_out_total = 0
        self.evicted_total = 0
        self.slow_queries_total = 0

    # ------------------------------------------------------------------
    def offer(self, recorder: TraceRecorder, route: str = "",
              status: str = "ok", duration_ms: Optional[float] = None,
              attrs: Optional[Dict[str, Any]] = None) -> bool:
        """Decide retention for a finished trace; returns True if kept.

        ``duration_ms``/``status`` describe the root of the local
        subtree (the request as this process saw it); ``attrs`` carries
        the summary fields (dataset, tenant, template) the slow-query
        log and the ``/debug/traces`` listing surface.
        """
        spans = [span.to_dict() for span in recorder.spans()]
        if duration_ms is None:
            duration_ms = max(
                (s["duration_ms"] for s in spans if s.get("parent_id") is None),
                default=0.0,
            )
        attrs = dict(attrs) if attrs else {}
        is_error = status != "ok" or any(s["status"] != "ok" for s in spans)
        is_slow = duration_ms >= self.slow_ms
        record = {
            "trace_id": recorder.trace_id,
            "route": route,
            "status": "error" if is_error else "ok",
            "duration_ms": round(duration_ms, 3),
            "slow": is_slow,
            "spans": spans,
            "recorded": time.time(),
            **{k: v for k, v in attrs.items() if v is not None},
        }
        if is_slow and attrs.get("dataset") is not None:
            self._emit_slow(record)
        with self._lock:
            self.offered_total += 1
            keep = is_error or is_slow or self._sampled_in()
            if not keep:
                self.sampled_out_total += 1
                return False
            self._traces[recorder.trace_id] = record
            self._traces.move_to_end(recorder.trace_id)
            self.stored_total += 1
            while len(self._traces) > self.capacity:
                self._traces.popitem(last=False)
                self.evicted_total += 1
        return True

    def _sampled_in(self) -> bool:
        if self.sample >= 1.0:
            return True
        if self.sample <= 0.0:
            return False
        return random.random() < self.sample

    def _emit_slow(self, record: Dict[str, Any]) -> None:
        """One NDJSON line per slow query: correlatable and greppable."""
        breakdown = _self_ms_by_name(record["spans"])
        line = {
            "slow_query": True,
            "trace_id": record["trace_id"],
            "route": record["route"],
            "status": record["status"],
            "duration_ms": record["duration_ms"],
            "dataset": record.get("dataset"),
            "tenant": record.get("tenant"),
            "template": record.get("template"),
            "breakdown_ms": {k: round(v, 3) for k, v in breakdown.items()},
        }
        with self._lock:
            self.slow_queries_total += 1
        stream = self._slow_log if self._slow_log is not None else sys.stderr
        try:
            stream.write(json.dumps(line, sort_keys=True) + "\n")
            stream.flush()
        except (OSError, ValueError):  # closed stream must not fail a request
            pass

    # ------------------------------------------------------------------
    def get(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """Full trace document for one id, or ``None``."""
        with self._lock:
            record = self._traces.get(trace_id)
            if record is None:
                return None
            doc = dict(record)
            doc["spans"] = list(record["spans"])
            return doc

    def recent(self, limit: int = 50, min_duration_ms: Optional[float] = None,
               dataset: Optional[str] = None,
               route: Optional[str] = None) -> List[Dict[str, Any]]:
        """Newest-first summaries (no span bodies), filterable."""
        with self._lock:
            records = list(self._traces.values())
        out: List[Dict[str, Any]] = []
        for record in reversed(records):
            if min_duration_ms is not None and record["duration_ms"] < min_duration_ms:
                continue
            if dataset is not None and record.get("dataset") != dataset:
                continue
            if route is not None and record.get("route") != route:
                continue
            out.append({k: v for k, v in record.items() if k != "spans"}
                       | {"spans": len(record["spans"])})
            if len(out) >= limit:
                break
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "resident": len(self._traces),
                "capacity": self.capacity,
                "sample": self.sample,
                "slow_ms": self.slow_ms,
                "offered": self.offered_total,
                "stored": self.stored_total,
                "sampled_out": self.sampled_out_total,
                "evicted": self.evicted_total,
                "slow_queries": self.slow_queries_total,
            }
