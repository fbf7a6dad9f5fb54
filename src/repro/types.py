"""Core value types: temporal point sets and pattern records.

:class:`TemporalPointSet` is the library's representation of the paper's
input ``(P, φ, I)`` (Section 1.1): points embedded in ``R^d``, a metric,
and one lifespan interval per point.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ValidationError
from .geometry.metrics import MetricSpec, get_metric
from .temporal.interval import Interval, intersect_many

__all__ = ["TemporalPointSet", "TriangleRecord", "PairRecord", "PatternRecord"]


class TemporalPointSet:
    """The paper's input ``(P, φ, I)``: embedded points with lifespans.

    Parameters
    ----------
    points:
        ``(n, d)`` array of embedding coordinates.
    starts, ends:
        Lifespan endpoints ``I⁻_p`` / ``I⁺_p`` per point (``ends ≥ starts``).
    metric:
        Metric specification (name, ``("lp", α)`` tuple, :class:`Metric`
        instance, or callable); defaults to ``ℓ2``.

    The proximity graph ``G_φ(P)`` connects two points at metric distance
    at most ``1`` — as in the paper we normalise the distance threshold
    ``r`` to 1; rescale coordinates by ``1/r`` to use other thresholds.

    A point set is a *version* of a dataset: ``epoch`` counts how many
    event batches have been appended since the seed registration
    (``epoch=0``).  :meth:`with_events` produces the next version; the
    arrays of any one version stay immutable, so every epoch has a
    stable :meth:`fingerprint` and cached indexes keyed on an older
    epoch remain internally consistent.
    """

    __slots__ = (
        "points", "starts", "ends", "metric", "epoch",
        "_fingerprint", "_memo", "_memo_lock",
    )

    def __init__(
        self,
        points: Union[np.ndarray, Sequence[Sequence[float]]],
        starts: Union[np.ndarray, Sequence[float]],
        ends: Union[np.ndarray, Sequence[float]],
        metric: MetricSpec = "l2",
        epoch: int = 0,
    ) -> None:
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise ValidationError("points must be an (n, d) array")
        if len(pts) == 0 or pts.shape[1] == 0:
            raise ValidationError("the point set must be non-empty")
        s = np.asarray(starts, dtype=float).ravel()
        e = np.asarray(ends, dtype=float).ravel()
        if len(s) != len(pts) or len(e) != len(pts):
            raise ValidationError(
                f"lifespan arrays ({len(s)}, {len(e)}) do not match point count ({len(pts)})"
            )
        if np.any(e < s):
            bad = int(np.argmax(e < s))
            raise ValidationError(
                f"point {bad} has lifespan end ({e[bad]!r}) before start ({s[bad]!r})"
            )
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(s)) and np.all(np.isfinite(e))):
            raise ValidationError("points and lifespans must be finite")
        if not isinstance(epoch, int) or isinstance(epoch, bool) or epoch < 0:
            raise ValidationError(f"epoch must be a non-negative int, got {epoch!r}")
        self.points = pts
        self.starts = s
        self.ends = e
        self.metric = get_metric(metric)
        self.epoch = epoch
        self._fingerprint: Optional[str] = None
        # The ``vector`` backend's per-version structures (layouts and
        # candidate maps) and the lock their builds take (see
        # :func:`repro.backends.vector.soa.memoised`).
        self._memo: Dict[Any, Any] = {}
        self._memo_lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of points."""
        return len(self.points)

    @property
    def dim(self) -> int:
        """Ambient dimension ``d``."""
        return self.points.shape[1]

    def __len__(self) -> int:
        return len(self.points)

    def lifespan(self, i: int) -> Interval:
        """Lifespan ``I_p`` of point ``i``."""
        return Interval(float(self.starts[i]), float(self.ends[i]))

    def duration(self, i: int) -> float:
        """``|I_p|`` of point ``i``."""
        return float(self.ends[i] - self.starts[i])

    def dist(self, i: int, j: int) -> float:
        """Metric distance between points ``i`` and ``j``."""
        return self.metric.dist(self.points[i], self.points[j])

    def anchor_key(self, i: int) -> Tuple[float, int]:
        """The tie-broken anchor ordering key ``(I⁻, id)``.

        The paper anchors patterns at the member whose lifespan starts
        latest; we break start ties by point id (DESIGN.md note 1).
        """
        return (float(self.starts[i]), int(i))

    def pattern_lifespan(self, members: Iterable[int]) -> Interval:
        """``I(p_1, …, p_m) = ∩ I_{p_i}`` for a candidate pattern."""
        return intersect_many(self.lifespan(i) for i in members)

    def fingerprint(self) -> str:
        """Epoch-bearing content hash identifying this dataset version.

        Hashes the coordinate and lifespan arrays plus the metric's
        :meth:`~repro.geometry.metrics.Metric.cache_token`, so two point
        sets with equal contents and metric share every cached index.
        For a version built directly with ``epoch > 0`` the epoch is
        folded into the hash, making every version of a mutable dataset
        a distinct cache identity; an epoch-0 fingerprint is
        byte-identical to the pre-versioning content hash.  A version
        made by :meth:`with_events` is chained instead: its parent's
        fingerprint, the batch's arrays and the new epoch, so an append
        hashes the batch, never the merged set, and two registries that
        append the same batches agree on every version.  Computed once
        and memoised (the arrays of one version are treated as
        immutable, as everywhere else in the library).
        """
        if self._fingerprint is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(str(self.points.shape).encode())
            h.update(np.ascontiguousarray(self.points).tobytes())
            h.update(np.ascontiguousarray(self.starts).tobytes())
            h.update(np.ascontiguousarray(self.ends).tobytes())
            h.update(self.metric.cache_token().encode())
            if self.epoch:
                h.update(b"|epoch:%d" % self.epoch)
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def with_events(
        self,
        points: Union[np.ndarray, Sequence[Sequence[float]]],
        starts: Union[np.ndarray, Sequence[float]],
        ends: Union[np.ndarray, Sequence[float]],
    ) -> "TemporalPointSet":
        """The next version of this dataset: current points plus a batch.

        Appended points keep arrival order and take ids ``n, n+1, …`` —
        the merged arrays are exactly what registering the union from
        scratch would hold, so indexes built over the result answer
        queries identically to a fresh registration.  The new version
        carries ``epoch + 1`` and a fingerprint chained from this one's
        (:meth:`fingerprint`); this instance is untouched.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or len(pts) == 0:
            raise ValidationError("event batch must be a non-empty (k, d) array")
        if pts.shape[1] != self.dim:
            raise ValidationError(
                f"event batch dimension ({pts.shape[1]}) does not match "
                f"the dataset ({self.dim})"
            )
        s = np.asarray(starts, dtype=float).ravel()
        e = np.asarray(ends, dtype=float).ravel()
        if len(s) != len(pts) or len(e) != len(pts):
            raise ValidationError(
                f"event lifespan arrays ({len(s)}, {len(e)}) do not match "
                f"batch size ({len(pts)})"
            )
        merged = TemporalPointSet(
            np.concatenate([self.points, pts]),
            np.concatenate([self.starts, s]),
            np.concatenate([self.ends, e]),
            self.metric,
            epoch=self.epoch + 1,
        )
        h = hashlib.blake2b(digest_size=16)
        h.update(self.fingerprint().encode())
        h.update(str(pts.shape).encode())
        for part in (pts, s, e):
            h.update(np.ascontiguousarray(part))
        h.update(b"|epoch:%d" % merged.epoch)
        merged._fingerprint = h.hexdigest()
        return merged

    def subset(self, ids: Sequence[int]) -> "TemporalPointSet":
        """A new point set restricted to ``ids`` (ids are re-numbered)."""
        ids = list(ids)
        return TemporalPointSet(
            self.points[ids], self.starts[ids], self.ends[ids], self.metric
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        epoch = f", epoch={self.epoch}" if self.epoch else ""
        return (
            f"TemporalPointSet(n={self.n}, dim={self.dim}, "
            f"metric={self.metric.name!r}{epoch})"
        )


@dataclass(frozen=True, slots=True)
class TriangleRecord:
    """A reported durable triangle ``(p, q, s)`` with its lifespan.

    ``anchor`` is the member with the lexicographically largest
    ``(I⁻, id)``; ``q < s`` by point id, matching the de-duplication
    order enforced by ``ReportTriangle`` (Algorithm 1).
    """

    anchor: int
    q: int
    s: int
    lifespan: Interval

    @property
    def durability(self) -> float:
        """``|I(p, q, s)|``."""
        return self.lifespan.length

    @property
    def ids(self) -> Tuple[int, int, int]:
        """Members as ``(anchor, q, s)``."""
        return (self.anchor, self.q, self.s)

    @property
    def key(self) -> Tuple[int, int, int]:
        """Canonical identity (sorted ids) for set comparisons."""
        return tuple(sorted((self.anchor, self.q, self.s)))  # type: ignore[return-value]


@dataclass(frozen=True, slots=True)
class PairRecord:
    """A reported aggregate-durable pair (Section 5).

    ``score`` is the aggregate that crossed the durability threshold:
    the witness SUM for AggDurablePair-SUM, or the greedily-covered
    union length for AggDurablePair-UNION.
    """

    p: int
    q: int
    score: float

    @property
    def key(self) -> Tuple[int, int]:
        """Canonical identity (sorted ids) for set comparisons."""
        return (self.p, self.q) if self.p < self.q else (self.q, self.p)


@dataclass(frozen=True, slots=True)
class PatternRecord:
    """A reported durable pattern of Appendix D (clique, path or star).

    ``kind`` is ``"clique"``, ``"path"`` or ``"star"``.  For paths the
    member order is the path order; for stars the first member is the
    center.
    """

    kind: str
    members: Tuple[int, ...]
    lifespan: Interval

    @property
    def durability(self) -> float:
        return self.lifespan.length

    @property
    def key(self) -> Tuple[int, ...]:
        """Canonical identity for set comparisons.

        Cliques are unordered; paths are identified up to reversal;
        stars are identified by (center, leaf set).
        """
        if self.kind == "clique":
            return tuple(sorted(self.members))
        if self.kind == "path":
            fwd = self.members
            rev = tuple(reversed(self.members))
            return min(fwd, rev)
        # star: center first, leaves unordered
        return (self.members[0], *sorted(self.members[1:]))
