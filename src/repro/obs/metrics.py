"""Stdlib-only metrics core: instruments, registry, text exposition.

The serving tiers need one measurement path that production scrapes,
the benches diff, and the CI gates assert against — re-deriving
timings ad hoc in each consumer is how the numbers drift apart.  This
module is that path: :class:`Counter`, :class:`Gauge` and
:class:`Histogram` instruments with label sets, collected by a
:class:`MetricsRegistry` and rendered in the Prometheus text
exposition format (version 0.0.4) by :func:`render_families`.

One rule decides which of the two instrument styles a value uses.  A
count that exists only to be reported is an **instrument**: the code
path that sees the event calls ``counter.labels(dataset="x").inc()``
or ``histogram.observe(dt)``, and no other copy of the count exists.
A **callback** (a function returning ``[(labels, value), ...]`` at
scrape time) only reads state the code keeps for its own decisions —
index-cache statistics, admission occupancy, the supervisor's
per-slot records, the trace ring — so scraping never duplicates it.

Every registered family renders its ``# HELP``/``# TYPE`` header even
while it has no samples yet, and a label-less instrument renders its
``0`` sample from registration, so the set of family names in a scrape
is stable from boot — the property the docs-sync CI check and the
bench differs rely on.  :meth:`MetricsRegistry.discard` drops the
series of something that went away (a deleted dataset), so label
cardinality follows what exists.

Thread-safety: instruments take a lock per update; collection
snapshots under the same lock.  Callbacks run on the scraping thread
and must read thread-safe state (plain int/float attribute reads are).
"""

from __future__ import annotations

import math
import re
import threading
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "CallbackMetric",
    "Family",
    "Sample",
    "MetricsRegistry",
    "render_families",
    "format_value",
    "escape_label_value",
    "DEFAULT_LATENCY_BUCKETS",
    "CONTENT_TYPE",
]

#: The Content-Type a ``/metrics`` response declares.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Request/query latency buckets (seconds): sub-millisecond index hits
#: through multi-second cold builds.
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class Sample(Tuple[str, Tuple[Tuple[str, str], ...], float]):
    """One exposition line: ``(name, ((label, value), ...), value)``."""

    __slots__ = ()

    def __new__(cls, name: str, labels: Dict[str, str], value: float):
        return super().__new__(cls, (name, tuple(sorted(labels.items())), value))

    @property
    def name(self) -> str:
        return self[0]

    @property
    def labels(self) -> Dict[str, str]:
        return dict(self[1])

    @property
    def value(self) -> float:
        return self[2]


class Family:
    """One metric family: name, type, help and its current samples."""

    def __init__(
        self, name: str, type_: str, help_: str,
        samples: Optional[List[Sample]] = None,
    ) -> None:
        self.name = name
        self.type = type_
        self.help = help_
        self.samples: List[Sample] = samples if samples is not None else []


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format (``\\``, ``"``, LF)."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def format_value(value: float) -> str:
    """Render a sample value: integral floats without the trailing ``.0``."""
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _validate_name(name: str) -> str:
    if not _METRIC_NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _validate_labelnames(labelnames: Sequence[str], reserved: Tuple[str, ...]) -> Tuple[str, ...]:
    names = tuple(labelnames)
    for label in names:
        if not _LABEL_NAME_RE.match(label) or label.startswith("__"):
            raise ValueError(f"invalid label name {label!r}")
        if label in reserved:
            raise ValueError(f"label name {label!r} is reserved")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate label names in {names!r}")
    return names


class _LabelledMetric:
    """Shared machinery: a child per label-value tuple, lazily created."""

    type: str = "untyped"
    _reserved_labels: Tuple[str, ...] = ()

    def __init__(self, name: str, help_: str, labelnames: Sequence[str] = ()) -> None:
        self.name = _validate_name(name)
        self.help = help_
        self.labelnames = _validate_labelnames(labelnames, self._reserved_labels)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], Any] = {}
        #: The label-less child, created now so it renders from boot.
        self._unlabelled = None if self.labelnames else self.labels()

    def labels(self, **labelvalues: str):
        """The child instrument for one concrete label-value set."""
        try:
            key = tuple([str(labelvalues[label]) for label in self.labelnames])
        except KeyError:
            key = None
        if key is None or len(labelvalues) != len(key):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames!r}, "
                f"got {tuple(labelvalues)!r}"
            )
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
        return child

    def _make_child(self):
        raise NotImplementedError

    def _default_child(self):
        """The label-less child (instruments declared without labels)."""
        if self._unlabelled is None:
            raise ValueError(
                f"{self.name} has labels {self.labelnames!r}; call .labels() first"
            )
        return self._unlabelled

    def discard(self, **labels: str) -> None:
        """Drop every child whose label values include ``labels``."""
        if not labels or not set(labels) <= set(self.labelnames):
            return
        wanted = [(self.labelnames.index(k), str(v)) for k, v in labels.items()]
        with self._lock:
            for key in [k for k in self._children if all(k[i] == v for i, v in wanted)]:
                del self._children[key]

    def _items(self) -> List[Tuple[Dict[str, str], Any]]:
        with self._lock:
            return [
                (dict(zip(self.labelnames, key)), child)
                for key, child in self._children.items()
            ]

    def collect(self) -> Family:
        family = Family(self.name, self.type, self.help)
        for labels, child in self._items():
            child.emit(self.name, labels, family.samples)
        return family


class _CounterChild:
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; inc({amount!r})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def emit(self, name: str, labels: Dict[str, str], out: List[Sample]) -> None:
        out.append(Sample(name, labels, self.value))


class Counter(_LabelledMetric):
    """Monotonically increasing total (requests, errors, bytes…)."""

    type = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)


class _GaugeChild:
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def emit(self, name: str, labels: Dict[str, str], out: List[Sample]) -> None:
        out.append(Sample(name, labels, self.value))


class Gauge(_LabelledMetric):
    """A value that can go up and down (queue depth, resident indexes…)."""

    type = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child().dec(amount)


class _HistogramChild:
    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self._lock = threading.Lock()
        self._bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot = +Inf overflow
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            self._count += 1
            for i, bound in enumerate(self._bounds):
                if value <= bound:
                    self._counts[i] += 1
                    return
            self._counts[-1] += 1

    def emit(self, name: str, labels: Dict[str, str], out: List[Sample]) -> None:
        with self._lock:
            counts = list(self._counts)
            total = self._count
            sum_ = self._sum
        cumulative = 0
        for bound, count in zip(self._bounds, counts):
            cumulative += count
            out.append(
                Sample(f"{name}_bucket", dict(labels, le=format_value(bound)),
                       cumulative)
            )
        out.append(Sample(f"{name}_bucket", dict(labels, le="+Inf"), total))
        out.append(Sample(f"{name}_sum", labels, sum_))
        out.append(Sample(f"{name}_count", labels, total))


class Histogram(_LabelledMetric):
    """Cumulative-bucket distribution (latencies); Prometheus semantics."""

    type = "histogram"
    _reserved_labels = ("le",)

    def __init__(
        self,
        name: str,
        help_: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"buckets must be sorted and distinct, got {buckets!r}")
        if bounds and bounds[-1] == math.inf:
            bounds = bounds[:-1]  # +Inf is implicit
        self.buckets = bounds  # before super(): the label-less child needs it
        super().__init__(name, help_, labelnames)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)


class CallbackMetric:
    """A family whose samples are computed at scrape time.

    ``fn`` returns ``[(labels_dict, value), ...]``; it runs on the
    scraping thread, so it must only read state that is safe to read
    concurrently (plain attribute reads of ints/floats are).
    """

    def __init__(
        self,
        name: str,
        type_: str,
        help_: str,
        fn: Callable[[], Iterable[Tuple[Dict[str, str], float]]],
    ) -> None:
        if type_ not in ("counter", "gauge"):
            raise ValueError(f"callback metrics are counter or gauge, not {type_!r}")
        self.name = _validate_name(name)
        self.type = type_
        self.help = help_
        self._fn = fn

    def collect(self) -> Family:
        family = Family(self.name, self.type, self.help)
        for labels, value in self._fn():
            family.samples.append(Sample(self.name, dict(labels), float(value)))
        return family


class MetricsRegistry:
    """A named set of instruments, collected and rendered together.

    Each front-end process owns one registry (``AsyncApp.metrics``);
    nothing here is process-global, so tests can run several servers in
    one interpreter without their scrapes bleeding into each other.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, Any] = {}

    # -- construction helpers ------------------------------------------
    def register(self, metric):
        with self._lock:
            if metric.name in self._metrics:
                raise ValueError(f"metric {metric.name!r} is already registered")
            self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help_: str, labelnames: Sequence[str] = ()) -> Counter:
        return self.register(Counter(name, help_, labelnames))

    def gauge(self, name: str, help_: str, labelnames: Sequence[str] = ()) -> Gauge:
        return self.register(Gauge(name, help_, labelnames))

    def histogram(
        self,
        name: str,
        help_: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self.register(Histogram(name, help_, labelnames, buckets))

    def callback(
        self,
        name: str,
        type_: str,
        help_: str,
        fn: Callable[[], Iterable[Tuple[Dict[str, str], float]]],
    ) -> CallbackMetric:
        return self.register(CallbackMetric(name, type_, help_, fn))

    def discard(self, **labels: str) -> None:
        """Drop the series carrying ``labels`` from every instrument.

        Instruments without all of those label names are untouched;
        callbacks need nothing, since they read live state.
        """
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            if isinstance(metric, _LabelledMetric):
                metric.discard(**labels)

    # -- collection ----------------------------------------------------
    def collect(self) -> List[Family]:
        """Every family, sorted by name (deterministic scrapes)."""
        with self._lock:
            metrics = list(self._metrics.values())
        return sorted((m.collect() for m in metrics), key=lambda f: f.name)

    def render(self) -> str:
        return render_families(self.collect())


def render_families(families: Iterable[Family]) -> str:
    """Render families in Prometheus text exposition format 0.0.4.

    ``HELP`` and ``TYPE`` lines precede every family's samples — even
    for families with no samples yet, so a scrape's name set is stable
    from process boot.
    """
    lines: List[str] = []
    for family in families:
        lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.type}")
        for sample in family.samples:
            if sample[1]:
                label_text = ",".join(
                    f'{label}="{escape_label_value(value)}"'
                    for label, value in sample[1]
                )
                lines.append(f"{sample.name}{{{label_text}}} {format_value(sample.value)}")
            else:
                lines.append(f"{sample.name} {format_value(sample.value)}")
    return "\n".join(lines) + "\n"
