"""Result envelopes for engine queries: records + timing + provenance.

Each executed plan yields a :class:`QueryResult` carrying, per
durability value, either a list of record objects
(:class:`~repro.types.TriangleRecord`, :class:`~repro.types.PairRecord`,
:class:`~repro.types.PatternRecord`, composed DSL records) or a
:class:`~repro.blocks.RecordBlock` holding the same records as columns;
whether the shared index came from cache; and wall-clock build/query
timings.  A block builds its record objects only when a caller reads
``records`` or iterates it.  ``to_dict`` flattens everything into the
JSON shape emitted by ``python -m repro batch``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..blocks import RecordBlock
from ..types import PairRecord, PatternRecord, TriangleRecord
from .cache import CacheStats, IndexKey
from .spec import QuerySpec

__all__ = ["QueryResult", "BatchResult", "record_to_dict"]


def record_to_dict(record: Any) -> Dict[str, Any]:
    """Serialise one reported pattern record to plain JSON types."""
    if isinstance(record, TriangleRecord):
        return {
            "type": "triangle",
            "ids": list(record.ids),
            "lifespan": [record.lifespan.start, record.lifespan.end],
            "durability": record.durability,
        }
    if isinstance(record, PairRecord):
        return {"type": "pair", "p": record.p, "q": record.q, "score": record.score}
    if isinstance(record, PatternRecord):
        return {
            "type": record.kind,
            "members": list(record.members),
            "lifespan": [record.lifespan.start, record.lifespan.end],
            "durability": record.durability,
        }
    # Imported here, and only for records of no legacy type: the engine
    # package must not hard-depend on the language package at import
    # time.
    from ..lang.records import ComposedRecord

    if isinstance(record, ComposedRecord):
        return {
            "type": "composed",
            "template": record.template,
            "members": list(record.members),
            "components": [record_to_dict(c) for c in record.components],
            "lifespan": [record.lifespan.start, record.lifespan.end],
            "durability": record.durability,
        }
    raise TypeError(f"cannot serialise record of type {type(record).__name__}")


@dataclass(frozen=True)
class QueryResult:
    """Outcome of one :class:`~repro.engine.spec.QuerySpec`.

    ``error`` is ``None`` for a successful query; a failed query (its
    builder or runner raised and the batch ran with
    ``raise_on_error=False``) carries ``"ExceptionType: message"`` here
    and an empty ``records_by_tau`` — the rest of the batch is
    unaffected.
    """

    spec: QuerySpec
    key: IndexKey
    #: Per τ, a list of records or a :class:`~repro.blocks.RecordBlock`.
    records_by_tau: Mapping[float, Sequence[Any]]
    cache_hit: bool
    build_seconds: float
    query_seconds: float
    error: Optional[str] = field(default=None)
    #: Per-stage acquisition timings of a staged (``pattern-dsl``) plan;
    #: empty for the legacy stage-less kinds.
    stages: Tuple[Mapping[str, Any], ...] = field(default=())
    #: This query's own activity on the shared index cache (see
    #: :meth:`~repro.engine.cache.IndexCache.counting`); a batch's
    #: ``cache`` figures are the sum over its queries.
    cache_activity: CacheStats = field(default_factory=CacheStats)

    @property
    def ok(self) -> bool:
        """Whether this query produced results (no captured failure)."""
        return self.error is None

    @property
    def records(self) -> List[Any]:
        """Records of a single-τ query (flattened across τ for sweeps)."""
        if len(self.records_by_tau) == 1:
            recs = next(iter(self.records_by_tau.values()))
            return recs.records() if isinstance(recs, RecordBlock) else recs
        out: List[Any] = []
        for recs in self.records_by_tau.values():
            out.extend(recs)
        return out

    @property
    def count(self) -> int:
        """How many records the query reported (builds none)."""
        return sum(len(r) for r in self.records_by_tau.values())

    def to_dict(self, include_records: bool = True) -> Dict[str, Any]:
        sweeps = []
        for tau, recs in self.records_by_tau.items():
            entry: Dict[str, Any] = {"tau": tau, "count": len(recs)}
            if include_records:
                entry["records"] = [record_to_dict(r) for r in recs]
            sweeps.append(entry)
        out = {
            "spec": self.spec.to_dict(),
            "index": {
                "family": self.key.family,
                "fingerprint": self.key.fingerprint,
                "epsilon": self.key.epsilon,
                "backend": self.key.backend,
            },
            "ok": self.ok,
            "error": self.error,
            "cache_hit": self.cache_hit,
            "build_seconds": self.build_seconds,
            "query_seconds": self.query_seconds,
            "results": sweeps,
        }
        if self.stages:
            out["stages"] = [dict(s) for s in self.stages]
        return out


@dataclass(frozen=True)
class BatchResult:
    """Outcome of :meth:`repro.engine.QueryEngine.run_batch`.

    ``cache_stats`` covers only this batch's own cache acquisitions,
    even while other batches share the cache; the engine's cumulative
    figures live on ``engine.stats``.
    """

    results: Tuple[QueryResult, ...]
    wall_seconds: float
    distinct_indexes: int
    cache_stats: Dict[str, Any]

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, i: int) -> QueryResult:
        return self.results[i]

    @property
    def n_errors(self) -> int:
        """How many queries of this batch failed (``ok=False``)."""
        return sum(1 for r in self.results if not r.ok)

    @property
    def ok(self) -> bool:
        """Whether every query of this batch succeeded."""
        return self.n_errors == 0

    def to_dict(self, include_records: bool = True) -> Dict[str, Any]:
        return {
            "wall_seconds": self.wall_seconds,
            "distinct_indexes": self.distinct_indexes,
            "ok": self.ok,
            "errors": self.n_errors,
            "cache": self.cache_stats,
            "queries": [r.to_dict(include_records) for r in self.results],
        }
