"""Sharded dataset registry for the serving front end.

Each registered dataset gets its own :class:`DatasetShard` — a private
:class:`~repro.engine.cache.IndexCache`, a private
:class:`~concurrent.futures.ThreadPoolExecutor`, and a bounded
admission queue.  The isolation is the point: a hot dataset saturating
its workers or churning its cache cannot evict another dataset's
indexes or starve its queries, and later horizontal sharding (one
registry per process) drops in without touching the solvers.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..backends import default_registry as default_backend_registry
from ..datasets import workload_from_spec
from ..engine import IndexCache
from ..errors import BackendError, ReproError, ValidationError
from ..obs import MetricsRegistry
from ..types import TemporalPointSet
from .bridge import AdmissionQueue

__all__ = [
    "UnknownDatasetError",
    "check_dataset_name",
    "DuplicateDatasetError",
    "DatasetShard",
    "DatasetRegistry",
]

#: Default bound on concurrently admitted (queued + running) queries
#: per shard; requests past the bound are rejected, never buffered.
DEFAULT_QUEUE_LIMIT = 64

#: Default resident-index bound per shard.  Bounded — unlike the
#: engine's library default — because a long-lived server must not grow
#: without limit under a churning query mix.
DEFAULT_MAX_ENTRIES = 32

#: Cap on per-line error strings echoed back in an append report.
MAX_EVENT_ERRORS = 8


def _parse_event(doc: Any, dim: int) -> tuple:
    """Validate one NDJSON event → ``(point, start, end)``.

    The wire shape is ``{"point": [x1, …, xd], "start": s, "end": e}``;
    a bare ``x`` is accepted for 1-d datasets.  Anything else raises
    :class:`~repro.errors.ValidationError` with a line-sized message.
    """
    if not isinstance(doc, Mapping):
        raise ValidationError(f"event must be an object, got {type(doc).__name__}")
    try:
        point = doc["point"]
        start = doc["start"]
        end = doc["end"]
    except KeyError as exc:
        raise ValidationError(f"event is missing {exc.args[0]!r}") from None
    if isinstance(point, (int, float)) and not isinstance(point, bool):
        point = [point]
    if (
        not isinstance(point, (list, tuple))
        or len(point) != dim
        or any(isinstance(c, bool) or not isinstance(c, (int, float)) for c in point)
    ):
        raise ValidationError(f"event point must be a list of {dim} numbers")
    for label, value in (("start", start), ("end", end)):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"event {label!r} must be a number")
    if not all(math.isfinite(float(c)) for c in (*point, start, end)):
        raise ValidationError("event coordinates and lifespan must be finite")
    if float(end) < float(start):
        raise ValidationError(
            f"event lifespan end ({end!r}) before start ({start!r})"
        )
    return [float(c) for c in point], float(start), float(end)


class UnknownDatasetError(ReproError, KeyError):
    """Raised when a request names a dataset that was never registered.

    Both tiers raise it with the names they hold, so the 404 reads the
    same from a worker and from the router.
    """

    def __init__(self, name: str, registered: Sequence[str]) -> None:
        listed = ", ".join(registered) or "(none)"
        super().__init__(f"unknown dataset {name!r}; registered: {listed}")

    def __str__(self) -> str:  # KeyError quotes its repr; keep it readable
        return self.args[0]


def check_dataset_name(name: Any) -> None:
    """The dataset naming rule on both tiers: a non-empty string with
    no ``/`` (names are one path segment) and no surrounding blanks."""
    if not isinstance(name, str) or not name or "/" in name or name != name.strip():
        raise ValidationError(
            f"dataset name must be a non-empty string without '/', got {name!r}"
        )


class DuplicateDatasetError(ValidationError):
    """Raised when a name is already registered (HTTP maps this to 409)."""


def _default_shard_workers() -> int:
    cpus = os.cpu_count() or 1
    return max(1, min(4, cpus))


def _normalise_default_backend(
    default_backend: Optional[str],
    tps: Optional[TemporalPointSet] = None,
    dataset_name: Optional[str] = None,
) -> Optional[str]:
    """Validate a default backend against the registry (and a dataset).

    ``None`` and ``"auto"`` both mean "no override" (registry ``auto``
    dispatch); anything else must be a registered backend name.  When a
    dataset is at hand the backend's metric predicate is checked too,
    so an incompatible default — e.g. ``linf-exact`` over an ℓ2
    dataset — fails the ``POST /datasets`` call instead of every later
    query.  (Kind coverage is *not* required: a triangles-only default
    applies to the triangle queries and leaves other kinds on ``auto``;
    see :func:`repro.engine.spec.apply_default_backend`.)
    """
    if default_backend is None or default_backend == "auto":
        return None
    try:
        descriptor = default_backend_registry().get(default_backend)
    except BackendError as exc:
        raise ValidationError(str(exc)) from exc
    if tps is not None and not descriptor.supports_metric(tps.metric):
        where = f" for dataset {dataset_name!r}" if dataset_name else ""
        raise ValidationError(
            f"default_backend {descriptor.name!r} requires "
            f"{descriptor.metric_requirement}, but the dataset{where} uses "
            f"the {tps.metric.name!r} metric"
        )
    return default_backend


class ServeMetrics:
    """The serve tier's event-driven families on one metrics registry.

    :class:`DatasetRegistry` creates them once, on the registry of the
    front end that owns it.  Every shard increments them where the
    event happens, labelled with its dataset name, and no other copy
    of these counts exists.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.queries = registry.counter(
            "serve_queries_total",
            "Finished queries by resolved backend.",
            ("dataset", "backend"),
        )
        self.query_errors = registry.counter(
            "serve_query_errors_total",
            "Failed queries by resolved backend.",
            ("dataset", "backend"),
        )
        self.template_queries = registry.counter(
            "serve_template_queries_total",
            "Finished queries by plan template (query kind).",
            ("dataset", "template"),
        )
        self.template_errors = registry.counter(
            "serve_template_query_errors_total",
            "Failed queries by plan template (query kind).",
            ("dataset", "template"),
        )
        self.query_seconds = registry.histogram(
            "serve_query_seconds",
            "Per-query execution wall seconds (successful queries).",
            ("dataset",),
        )
        self.stream_bytes = registry.counter(
            "serve_stream_bytes_total",
            "NDJSON payload bytes streamed to query clients.",
            ("dataset",),
        )
        #: Per-dataset totals that render ``0`` from registration.
        self.admission_rejected = registry.counter(
            "serve_admission_rejected_total",
            "Query slots denied at admission (any bound).",
            ("dataset",),
        )
        self.plans_in_place = registry.counter(
            "serve_plans_in_place_total",
            "Admitted plans answered on the event loop from a tau frontier.",
            ("dataset",),
        )
        self.events_appended = registry.counter(
            "serve_events_appended_total",
            "Events accepted into the dataset by appends.",
            ("dataset",),
        )
        self.events_rejected = registry.counter(
            "serve_events_rejected_total",
            "Event lines rejected by append validation.",
            ("dataset",),
        )
        self.append_batches = registry.counter(
            "serve_append_batches_total",
            "Append requests processed (including all-rejected ones).",
            ("dataset",),
        )
        self.append_seconds = registry.counter(
            "serve_append_seconds_total",
            "Wall seconds spent merging appends and maintaining indexes.",
            ("dataset",),
        )

    def query_series(self, dataset: str, backend: str, template: str) -> tuple:
        """The children one finished query increments: queries, errors,
        template queries, template errors and the latency histogram."""
        by_backend = {"dataset": dataset, "backend": backend}
        by_template = {"dataset": dataset, "template": template}
        return (
            self.queries.labels(**by_backend),
            self.query_errors.labels(**by_backend),
            self.template_queries.labels(**by_template),
            self.template_errors.labels(**by_template),
            self.query_seconds.labels(dataset=dataset),
        )

    def start(self, dataset: str) -> None:
        """Create ``dataset``'s per-dataset totals at ``0``."""
        for counter in (
            self.admission_rejected, self.plans_in_place, self.events_appended,
            self.events_rejected, self.append_batches, self.append_seconds,
        ):
            counter.labels(dataset=dataset)


class DatasetShard:
    """One registered dataset plus everything needed to serve it."""

    def __init__(
        self,
        name: str,
        tps: TemporalPointSet,
        spec: Optional[Mapping[str, Any]] = None,
        max_entries: Optional[int] = DEFAULT_MAX_ENTRIES,
        max_workers: Optional[int] = None,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        default_backend: Optional[str] = None,
        metrics: Optional[ServeMetrics] = None,
    ) -> None:
        self.name = name
        self.tps = tps
        self.spec = dict(spec) if spec is not None else None
        #: Backend injected into queries that name none (explicit
        #: per-query backends always win, kinds it cannot serve stay on
        #: ``auto``); ``None`` keeps ``auto`` dispatch for everything.
        #: Metric compatibility is enforced against *this* dataset here,
        #: at registration time.
        self.default_backend = _normalise_default_backend(
            default_backend, tps=tps, dataset_name=name
        )
        self.cache = IndexCache(max_entries=max_entries)
        self.workers = max_workers if max_workers is not None else _default_shard_workers()
        self.executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix=f"shard-{name}"
        )
        self.admission = AdmissionQueue(queue_limit)
        self.metrics = metrics if metrics is not None else ServeMetrics(MetricsRegistry())
        #: Guards ``_retired``: every increment checks it under this
        #: lock, so a retired shard records nothing.
        self._lock = threading.Lock()
        self._retired = False
        #: (backend, template) → :meth:`ServeMetrics.query_series`.  The
        #: children stay registered until this shard retires: only its
        #: own :meth:`retire` discards series labelled with its name.
        self._query_series: Dict[Tuple[str, str], tuple] = {}
        #: Single-writer gate for appends: one epoch bump at a time, so
        #: the ``tps`` swap plus cache advance is atomic w.r.t. other
        #: appenders (readers snapshot ``self.tps`` at plan time and
        #: are epoch-consistent by construction).
        self._append_lock = threading.Lock()

    # ------------------------------------------------------------------
    def record_result(
        self, ok: bool, backend: str, template: str, query_seconds: float = 0.0
    ) -> None:
        """Count one finished query.

        ``backend`` is the *resolved* backend name off the plan's cache
        key — per-backend accounting therefore reflects what actually
        ran, not what the client asked for (``auto`` never appears).
        ``template`` is the spec's kind (``pattern-dsl`` for compiled
        patterns).
        """
        # An error series exists from its first query on, at 0 until a
        # query fails, so a failure rate has a denominator.
        failed = 0.0 if ok else 1.0
        with self._lock:
            if self._retired:
                return
            series = self._query_series.get((backend, template))
            if series is None:
                series = self.metrics.query_series(self.name, backend, template)
                self._query_series[(backend, template)] = series
            queries, errors, template_queries, template_errors, seconds = series
            queries.inc()
            errors.inc(failed)
            template_queries.inc()
            template_errors.inc(failed)
            if ok:
                seconds.observe(query_seconds)

    def record_rejected(self, slots: int) -> None:
        """Count query slots denied at admission."""
        self._inc(self.metrics.admission_rejected, slots)

    def record_in_place(self, plans: int) -> None:
        """Count admitted plans answered on the event loop."""
        self._inc(self.metrics.plans_in_place, plans)

    def record_streamed(self, nbytes: int) -> None:
        """Count NDJSON payload bytes streamed to a query client."""
        self._inc(self.metrics.stream_bytes, nbytes)

    def _inc(self, counter, amount: float) -> None:
        with self._lock:
            if not self._retired:
                counter.labels(dataset=self.name).inc(amount)

    # ------------------------------------------------------------------
    def append_events(
        self,
        events: Union[str, bytes, Sequence[Any]],
        *,
        recorder: Any = None,
        parent_span_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Append an event batch, bump the epoch, maintain the cache.

        ``events`` is either raw NDJSON (``str``/``bytes``, one
        ``{"point": […], "start": s, "end": e}`` object per line — the
        ``POST /datasets/<name>/events`` body) or a sequence of parsed
        event documents.  Malformed lines are *rejected individually*
        and reported; accepted events become points ``n, n+1, …`` of
        the next dataset version.

        Single-writer semantics: one append at a time per shard.  On
        success the shard's ``tps`` is swapped to the merged version
        (epoch + 1) and the index cache is advanced: the four ``vector``
        families are maintained (``maintained()`` extends their layout,
        candidate map and per-family arrays by merge and gather, equal
        to a fresh build's) and keep hitting, each with its τ frontier
        carried by ``carry``, which reruns the kernel only for the
        anchors an appended point can change; every other entry (grid,
        cover-tree, ``linf-exact``), and one whose maintenance raises,
        is invalidated and rebuilds once on its next query.  Queries
        after the append answer byte-identically to a fresh
        registration of the merged point set, whatever the batch's
        size.

        Given a trace ``recorder``, the append is a ``serve.append``
        span under ``parent_span_id`` (events accepted and rejected, the
        new ``n``), with each entry's maintenance and carry under it.
        """
        if recorder is None:
            return self._append(events, None, None)
        with recorder.start_span("serve.append", parent_id=parent_span_id) as span:
            report = self._append(events, recorder, span.span_id)
            for name in ("accepted", "rejected", "n"):
                span.set_attr(name, report[name])
        return report

    def _append(
        self,
        events: Union[str, bytes, Sequence[Any]],
        recorder: Any,
        parent_span_id: Optional[str],
    ) -> Dict[str, Any]:
        if isinstance(events, bytes):
            events = events.decode("utf-8", "replace")
        errors: List[str] = []
        rejected = 0

        def reject(lineno: int, message: str) -> None:
            nonlocal rejected
            rejected += 1
            if len(errors) < MAX_EVENT_ERRORS:
                errors.append(f"line {lineno}: {message}")

        docs: List[tuple] = []
        if isinstance(events, str):
            parsed: List[Any] = []
            for lineno, line in enumerate(events.splitlines(), start=1):
                if not line.strip():
                    continue
                try:
                    parsed.append((lineno, json.loads(line)))
                except ValueError as exc:
                    reject(lineno, f"invalid JSON: {exc}")
        else:
            parsed = list(enumerate(events, start=1))

        with self._append_lock:
            old = self.tps
            for lineno, doc in parsed:
                try:
                    docs.append(_parse_event(doc, old.dim))
                except ValidationError as exc:
                    reject(lineno, str(exc))
            t0 = time.perf_counter()
            maintained_keys: List[Any] = []
            invalidated_keys: List[Any] = []
            if docs:
                merged = old.with_events(
                    np.asarray([d[0] for d in docs], dtype=float),
                    np.asarray([d[1] for d in docs], dtype=float),
                    np.asarray([d[2] for d in docs], dtype=float),
                )

                def maintainer(key, index):
                    maintain = getattr(index, "maintained", None)
                    return None if maintain is None else maintain(merged)

                moved = self.cache.advance(
                    old.fingerprint(),
                    merged.fingerprint(),
                    maintainer,
                    recorder=recorder,
                    parent_span_id=parent_span_id,
                )
                maintained_keys = moved["migrated"]
                invalidated_keys = moved["invalidated"]
                # The swap is the commit point: queries planned from
                # here on see the new epoch and mint new cache keys.
                self.tps = merged
            append_seconds = time.perf_counter() - t0
            current = self.tps
            m = self.metrics
            with self._lock:
                if not self._retired:
                    m.append_batches.labels(dataset=self.name).inc()
                    m.events_appended.labels(dataset=self.name).inc(len(docs))
                    m.events_rejected.labels(dataset=self.name).inc(rejected)
                    m.append_seconds.labels(dataset=self.name).inc(append_seconds)
        return {
            "name": self.name,
            "epoch": current.epoch,
            "fingerprint": current.fingerprint(),
            "n": current.n,
            "accepted": len(docs),
            "rejected": rejected,
            "errors": errors,
            "maintained_families": sorted({k.family for k in maintained_keys}),
            "invalidated_families": sorted({k.family for k in invalidated_keys}),
            "append_seconds": append_seconds,
        }

    def describe(self) -> Dict[str, Any]:
        """JSON-ready dataset identity (the ``POST /datasets`` reply)."""
        return {
            "name": self.name,
            "n": self.tps.n,
            "dim": self.tps.dim,
            "metric": self.tps.metric.name,
            "fingerprint": self.tps.fingerprint(),
            "epoch": self.tps.epoch,
            "default_backend": self.default_backend,
        }

    def retire(self) -> None:
        """Stop recording and drop every series of this dataset (idempotent).

        The registry calls this under its own lock, before the name can
        be published again, so a successor shard's series survive.
        """
        with self._lock:
            if self._retired:
                return
            self._retired = True
            self.metrics.registry.discard(dataset=self.name)

    def close(self) -> None:
        """Retire the shard and shut its executor down (idempotent)."""
        self.retire()
        self.executor.shutdown(wait=True, cancel_futures=True)


class DatasetRegistry:
    """Thread-safe name → :class:`DatasetShard` mapping."""

    def __init__(
        self,
        max_entries: Optional[int] = DEFAULT_MAX_ENTRIES,
        max_workers: Optional[int] = None,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        default_backend: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if queue_limit < 1:
            raise ValidationError(f"queue_limit must be >= 1, got {queue_limit!r}")
        self.default_max_entries = max_entries
        self.default_max_workers = max_workers
        self.default_queue_limit = queue_limit
        # Validated eagerly: a bad server-wide --backend should fail at
        # boot, not at the first dataset registration.
        self.default_backend = _normalise_default_backend(default_backend)
        #: Tenant name → admission weight, applied to every shard's
        #: queue (see :meth:`set_tenant_weights`).
        self.tenant_weights: Dict[str, float] = {}
        self._lock = threading.Lock()
        self._shards: Dict[str, DatasetShard] = {}
        #: Names whose registration is materialising right now — reserved
        #: under the lock so a racing duplicate fails fast instead of
        #: wasting a full workload build.
        self._reserved: set = set()
        #: The ``serve_*`` families, on the front end's metrics registry
        #: (``ServeApp`` passes its own; a bare registry keeps a private one).
        self.metrics = ServeMetrics(metrics if metrics is not None else MetricsRegistry())
        self._register_callbacks(self.metrics.registry)

    def _register_callbacks(self, metrics: MetricsRegistry) -> None:
        """Scrape-time families over state the shards keep for their own
        decisions: index-cache statistics and admission occupancy."""

        def per_shard(read):
            return lambda: [({"dataset": s.name}, read(s)) for s in self.shards()]

        metrics.callback(
            "serve_datasets", "gauge", "Registered datasets.",
            lambda: [({}, len(self))],
        )
        for name, type_, help_, read in (
            ("serve_cache_hits_total", "counter",
             "Index-cache hits (an index was resident).",
             lambda s: s.cache.stats.hits),
            ("serve_cache_misses_total", "counter",
             "Index-cache misses (a build was needed).",
             lambda s: s.cache.stats.misses),
            ("serve_cache_evictions_total", "counter",
             "Indexes evicted by the shard's resident-entry bound.",
             lambda s: s.cache.stats.evictions),
            ("serve_cache_build_seconds_total", "counter",
             "Wall seconds spent building indexes.",
             lambda s: s.cache.stats.build_seconds),
            ("serve_cache_resident_indexes", "gauge",
             "Indexes currently resident in the shard's cache.",
             lambda s: len(s.cache)),
            ("serve_cache_migrated_total", "counter",
             "Indexes carried across an epoch bump by incremental maintenance.",
             lambda s: s.cache.stats.migrated),
            ("serve_cache_frontiers_carried_total", "counter",
             "Tau frontiers carried into migrated indexes across an epoch bump.",
             lambda s: s.cache.stats.carried),
            ("serve_cache_invalidated_total", "counter",
             "Indexes invalidated by an epoch bump (rebuild on next query).",
             lambda s: s.cache.stats.invalidated),
            ("serve_queue_depth", "gauge",
             "Admitted (queued + running) queries on the shard.",
             lambda s: s.admission.in_flight),
            ("serve_queue_limit", "gauge",
             "The shard's admission limit.",
             lambda s: s.admission.limit),
            ("serve_dataset_epoch", "gauge",
             "Dataset version: event batches appended since registration.",
             lambda s: s.tps.epoch),
        ):
            metrics.callback(name, type_, help_, per_shard(read))
        metrics.callback(
            "serve_tenant_in_flight", "gauge",
            "Admission slots a tenant currently holds on the shard.",
            lambda: [
                ({"dataset": shard.name, "tenant": tenant}, held)
                for shard in self.shards()
                for tenant, held in shard.admission.tenant_in_flight().items()
            ],
        )

    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        dataset: Union[TemporalPointSet, Mapping[str, Any]],
        max_entries: Optional[int] = None,
        max_workers: Optional[int] = None,
        queue_limit: Optional[int] = None,
        default_backend: Optional[str] = None,
        replace: bool = False,
    ) -> DatasetShard:
        """Materialise (if needed) and register a dataset under ``name``.

        ``dataset`` is either a ready :class:`TemporalPointSet` or a
        declarative spec for :func:`~repro.datasets.workload_from_spec`
        (the wire format of ``POST /datasets``).  ``default_backend``
        (falling back to the registry-wide default) is injected into
        queries against this dataset that name no backend of their own.
        Registering an existing name raises
        :class:`DuplicateDatasetError` unless ``replace=True``, in
        which case the old shard is closed and its series dropped.  The name is reserved
        before the (possibly slow) workload build, so a duplicate —
        racing or not — is rejected before any work.
        """
        check_dataset_name(name)
        with self._lock:
            if (name in self._shards or name in self._reserved) and not replace:
                raise DuplicateDatasetError(
                    f"dataset {name!r} is already registered; pass replace to overwrite"
                )
            if name in self._reserved:
                # replace=True cannot race a concurrent registration of
                # the same name either: there is one slot to take over.
                raise DuplicateDatasetError(
                    f"dataset {name!r} is being registered by another request"
                )
            self._reserved.add(name)
        try:
            if isinstance(dataset, TemporalPointSet):
                tps, spec = dataset, None
            else:
                tps, spec = workload_from_spec(dataset), dataset
            shard = DatasetShard(
                name,
                tps,
                spec=spec,
                max_entries=max_entries if max_entries is not None else self.default_max_entries,
                max_workers=max_workers if max_workers is not None else self.default_max_workers,
                queue_limit=queue_limit if queue_limit is not None else self.default_queue_limit,
                default_backend=(
                    default_backend
                    if default_backend is not None
                    else self.default_backend
                ),
                metrics=self.metrics,
            )
            if self.tenant_weights:
                shard.admission.set_tenant_weights(self.tenant_weights)
            with self._lock:
                old = self._shards.get(name)
                if old is not None:
                    old.retire()  # drops the old series before the new shard counts
                self._shards[name] = shard
                self.metrics.start(name)
        finally:
            with self._lock:
                self._reserved.discard(name)
        if old is not None:
            old.close()
        return shard

    # ------------------------------------------------------------------
    def set_tenant_weights(self, weights: Mapping[str, float]) -> None:
        """Apply tenant admission weights to every current and future shard."""
        self.tenant_weights = dict(weights)
        for shard in self.shards():
            shard.admission.set_tenant_weights(self.tenant_weights)

    def shards(self) -> List[DatasetShard]:
        """A point-in-time copy of the live shards (metrics callbacks)."""
        with self._lock:
            return list(self._shards.values())

    def get(self, name: str) -> DatasetShard:
        with self._lock:
            shard = self._shards.get(name)
        if shard is None:
            raise UnknownDatasetError(name, self.names())
        return shard

    def remove(self, name: str) -> DatasetShard:
        """Unregister ``name`` and close its shard (``DELETE /datasets/…``).

        Closing waits for the shard's running queries (their admission
        slots release via done-callbacks) and cancels queued work, then
        the shard's index cache is dropped so its indexes can be
        reclaimed.  The dataset's series leave ``/metrics`` with it.
        The name is immediately free for re-registration.  Raises
        :class:`UnknownDatasetError` for names never registered.
        """
        with self._lock:
            shard = self._shards.pop(name, None)
            if shard is not None:
                shard.retire()
        if shard is None:
            raise UnknownDatasetError(name, self.names())
        shard.close()
        shard.cache.clear()
        return shard

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._shards)

    def __len__(self) -> int:
        with self._lock:
            return len(self._shards)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._shards

    def close(self) -> None:
        """Close every shard (idempotent)."""
        with self._lock:
            shards = list(self._shards.values())
            self._shards.clear()
        for shard in shards:
            shard.close()
