"""In-process span recording with W3C-``traceparent``-style propagation.

One request produces one *trace*: a tree of :class:`Span` records whose
root lives in the process that first saw the request (the router, or a
worker hit directly) and whose subtrees live wherever the work actually
ran.  The pieces:

* :class:`Span` — one timed operation.  ``start`` is wall-clock seconds
  (comparable across processes on one host, which is what lets the
  router stitch its proxy spans to the owning worker's spans into a
  single waterfall); durations are measured with ``perf_counter`` so
  they do not jump with clock adjustments.
* :class:`TraceContext` + :func:`format_traceparent` /
  :func:`parse_traceparent` — the propagation header, structured like
  W3C trace-context (``00-<32 hex trace>-<16 hex span>-<2 hex flags>``).
  The router forwards it on the upstream socket exactly like
  ``X-API-Key``; a worker that receives one continues the trace instead
  of opening a new one.
* :class:`TraceRecorder` — the per-request collector.  It is passed
  *explicitly* through every layer (including into the engine's thread
  pool via :class:`ExecTrace`): ``contextvars`` do not flow into
  ``loop.run_in_executor`` workers, and an explicit handle makes
  cross-request leakage structurally impossible rather than merely
  unlikely.

Everything is stdlib-only, matching the rest of the obs package.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

__all__ = [
    "Span",
    "SpanHandle",
    "TraceContext",
    "TraceRecorder",
    "ExecTrace",
    "TRACEPARENT_HEADER",
    "new_trace_id",
    "new_span_id",
    "format_traceparent",
    "parse_traceparent",
    "span_tree",
    "format_waterfall",
]

#: Header name carrying the trace context between tiers.
TRACEPARENT_HEADER = "traceparent"

_VERSION = "00"
_SAMPLED_FLAG = "01"


def new_trace_id() -> str:
    """128-bit random trace id as 32 lowercase hex chars."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """64-bit random span id as 16 lowercase hex chars."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """Parsed propagation header: which trace, and which parent span."""

    trace_id: str
    span_id: str
    sampled: bool = True


def format_traceparent(trace_id: str, span_id: str, sampled: bool = True) -> str:
    """Render the propagation header for an upstream request."""
    flags = _SAMPLED_FLAG if sampled else "00"
    return f"{_VERSION}-{trace_id}-{span_id}-{flags}"


def parse_traceparent(header: Optional[str]) -> Optional[TraceContext]:
    """Parse an incoming header; ``None`` for absent or malformed values.

    Malformed headers are dropped rather than rejected — a bad tracing
    header must never fail a request, it just starts a fresh trace.
    """
    if not header:
        return None
    parts = header.strip().lower().split("-")
    if len(parts) != 4:
        return None
    version, trace_id, span_id, flags = parts
    if len(version) != 2 or len(trace_id) != 32 or len(span_id) != 16:
        return None
    if len(flags) != 2:
        return None
    try:
        int(version, 16)
        int(trace_id, 16)
        int(span_id, 16)
        flag_bits = int(flags, 16)
    except ValueError:
        return None
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return TraceContext(trace_id=trace_id, span_id=span_id,
                        sampled=bool(flag_bits & 1))


@dataclass
class Span:
    """One timed operation inside a trace."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    start: float  # wall-clock seconds (time.time) at span start
    duration: float = 0.0  # seconds, measured via perf_counter deltas
    status: str = "ok"  # "ok" | "error"
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration_ms": round(self.duration * 1000.0, 3),
            "status": self.status,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "Span":
        return cls(
            trace_id=doc["trace_id"],
            span_id=doc["span_id"],
            parent_id=doc.get("parent_id"),
            name=doc["name"],
            start=float(doc.get("start", 0.0)),
            duration=float(doc.get("duration_ms", 0.0)) / 1000.0,
            status=doc.get("status", "ok"),
            attrs=dict(doc.get("attrs") or {}),
        )


class SpanHandle:
    """Live span being timed; context manager that records on exit.

    Usable from both asyncio code and thread-pool workers — finishing
    appends to the recorder under its lock.
    """

    __slots__ = ("span", "_recorder", "_t0", "_finished")

    def __init__(self, recorder: "TraceRecorder", span: Span) -> None:
        self.span = span
        self._recorder = recorder
        self._t0 = time.perf_counter()
        self._finished = False

    @property
    def span_id(self) -> str:
        return self.span.span_id

    @property
    def trace_id(self) -> str:
        return self.span.trace_id

    def set_attr(self, key: str, value: Any) -> None:
        self.span.attrs[key] = value

    def set_error(self, message: str) -> None:
        self.span.status = "error"
        if message:
            self.span.attrs.setdefault("error", message)

    def finish(self, status: Optional[str] = None) -> Span:
        """Record the span (idempotent); returns the finished span."""
        if not self._finished:
            self._finished = True
            self.span.duration = time.perf_counter() - self._t0
            if status is not None:
                self.span.status = status
            self._recorder.add(self.span)
        return self.span

    def __enter__(self) -> "SpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None and self.span.status == "ok":
            self.set_error(f"{type(exc).__name__}: {exc}")
        self.finish()


class TraceRecorder:
    """Per-request span collector, safe to share across threads.

    Created once per HTTP request; every layer that wants to emit a
    span receives the recorder (plus a parent span id) explicitly.
    Spans land in insertion order; the tree structure lives in the
    ``parent_id`` links.
    """

    def __init__(self, trace_id: Optional[str] = None,
                 parent_id: Optional[str] = None) -> None:
        self.trace_id = trace_id or new_trace_id()
        #: span id of the remote parent (the caller tier's span), if
        #: this recorder continues a propagated context.
        self.remote_parent_id = parent_id
        self._lock = threading.Lock()
        self._spans: List[Span] = []

    def start_span(self, name: str, parent_id: Optional[str] = None,
                   attrs: Optional[Dict[str, Any]] = None,
                   start: Optional[float] = None) -> SpanHandle:
        """Open a live span; call ``finish()`` (or use ``with``) to record it."""
        span = Span(
            trace_id=self.trace_id,
            span_id=new_span_id(),
            parent_id=parent_id,
            name=name,
            start=time.time() if start is None else start,
            attrs=dict(attrs) if attrs else {},
        )
        return SpanHandle(self, span)

    def add(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def add_timed(self, name: str, parent_id: Optional[str], start: float,
                  duration: float, status: str = "ok",
                  attrs: Optional[Dict[str, Any]] = None) -> Span:
        """Record an already-measured interval as a span (e.g. queue wait)."""
        span = Span(
            trace_id=self.trace_id,
            span_id=new_span_id(),
            parent_id=parent_id,
            name=name,
            start=start,
            duration=duration,
            status=status,
            attrs=dict(attrs) if attrs else {},
        )
        self.add(span)
        return span

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


@dataclass(frozen=True)
class ExecTrace:
    """Trace context handed into the engine's thread pool, explicitly.

    ``submitted_wall``/``submitted_perf`` mark the moment the plan was
    handed to the executor; the gap to execution start is the
    admission-queue/thread-pool wait span.  ``in_place`` says the plan
    runs on the event loop instead (a τ-frontier hit), so that wait is
    about 0.
    """

    recorder: TraceRecorder
    parent_id: str
    index: int
    submitted_wall: float
    submitted_perf: float
    in_place: bool = False


# ----------------------------------------------------------------------
# Rendering (shared by `repro trace` and examples/serve_client.py)

def span_tree(spans: Sequence[Dict[str, Any]]):
    """Order span dicts as a depth-first tree: ``[(depth, span), ...]``.

    Spans whose parent is missing (e.g. the worker died before
    reporting, or the parent lived in an unreachable process) are
    treated as roots so partial traces still render.
    """
    by_id = {s["span_id"]: s for s in spans}
    children: Dict[Optional[str], List[Dict[str, Any]]] = {}
    roots: List[Dict[str, Any]] = []
    for span in spans:
        parent = span.get("parent_id")
        if parent is None or parent not in by_id:
            roots.append(span)
        else:
            children.setdefault(parent, []).append(span)
    for bucket in children.values():
        bucket.sort(key=lambda s: s.get("start", 0.0))
    roots.sort(key=lambda s: s.get("start", 0.0))
    out: List = []

    def walk(span: Dict[str, Any], depth: int) -> None:
        out.append((depth, span))
        for child in children.get(span["span_id"], ()):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return out

_BAR_WIDTH = 28


def format_waterfall(doc: Dict[str, Any]) -> str:
    """Render a trace document as an indented waterfall, one span per line."""
    spans = doc.get("spans") or []
    if not spans:
        return f"trace {doc.get('trace_id', '?')}: no spans"
    ordered = span_tree(spans)
    t0 = min(s.get("start", 0.0) for s in spans)
    t1 = max(s.get("start", 0.0) + s.get("duration_ms", 0.0) / 1000.0
             for s in spans)
    total = max(t1 - t0, 1e-9)
    lines = [f"trace {doc.get('trace_id', '?')}  "
             f"({len(spans)} spans, {total * 1000.0:.1f} ms)"]
    for depth, span in ordered:
        offset = span.get("start", 0.0) - t0
        dur_ms = float(span.get("duration_ms", 0.0))
        left = int(_BAR_WIDTH * offset / total)
        width = max(1, int(_BAR_WIDTH * (dur_ms / 1000.0) / total))
        left = min(left, _BAR_WIDTH - 1)
        width = min(width, _BAR_WIDTH - left)
        bar = " " * left + "#" * width + " " * (_BAR_WIDTH - left - width)
        status = span.get("status", "ok")
        mark = "" if status == "ok" else "  !" + status
        attrs = span.get("attrs") or {}
        detail_keys = ("route", "worker", "stage", "family", "backend",
                       "outcome", "query", "dataset", "template", "error")
        details = " ".join(f"{k}={attrs[k]}" for k in detail_keys
                           if k in attrs and attrs[k] not in (None, ""))
        name = "  " * depth + span.get("name", "?")
        lines.append(
            f"  [{bar}] {offset * 1000.0:8.1f}ms {dur_ms:8.1f}ms  "
            f"{name}{'  ' + details if details else ''}{mark}"
        )
    return "\n".join(lines)
