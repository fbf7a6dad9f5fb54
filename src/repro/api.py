"""One-call convenience entry points for the library's main operations.

These are thin wrappers over the batched :class:`repro.engine.QueryEngine`:
each call becomes a single-query batch against a process-wide engine
whose index cache is shared with every other ``api`` call.  Repeated
queries over the same :class:`~repro.types.TemporalPointSet` therefore
reuse one preprocessing pass (keyed by the dataset fingerprint) instead
of rebuilding per call; for full batches, τ-sweeps and concurrency use
the engine directly (:func:`default_engine` or ``python -m repro batch``).
"""

from __future__ import annotations

import threading
from typing import List, Optional

from .engine import IndexCache, QueryEngine, QuerySpec
from .types import PairRecord, TemporalPointSet, TriangleRecord

__all__ = [
    "find_durable_triangles",
    "find_sum_durable_pairs",
    "find_union_durable_pairs",
    "default_engine",
]

#: Indexes kept live by the process-wide engine; scripts that touch many
#: datasets in sequence evict least-recently-used preprocessing passes.
_DEFAULT_CACHE_ENTRIES = 16

_ENGINE: Optional[QueryEngine] = None
_ENGINE_LOCK = threading.Lock()


def default_engine() -> QueryEngine:
    """The process-wide engine backing the one-call helpers.

    Constructed lazily on first use: importing :mod:`repro.api` (and
    therefore :mod:`repro`) allocates no engine, cache or worker
    machinery — a process that only ever touches, say, the geometry
    helpers pays nothing for the query stack.
    """
    global _ENGINE
    if _ENGINE is None:
        with _ENGINE_LOCK:
            if _ENGINE is None:
                _ENGINE = QueryEngine(
                    cache=IndexCache(max_entries=_DEFAULT_CACHE_ENTRIES)
                )
    return _ENGINE


def find_durable_triangles(
    tps: TemporalPointSet,
    tau: float,
    epsilon: float = 0.5,
    backend: str = "auto",
) -> List[TriangleRecord]:
    """Report τ-durable triangles (Definition 1.3).

    ``backend="linf-exact"`` (valid only under the ℓ∞ metric — any other
    metric raises :class:`~repro.errors.ValidationError`) returns exactly
    ``T_τ`` (Theorem B.3); the approximate backends return ``T_τ`` plus
    possibly some τ-durable ε-triangles (Theorem 3.1).  ``backend="auto"``
    promotes ℓ∞ inputs to the exact algorithm for free and otherwise
    picks the first capable backend of vector → grid → cover-tree
    (:mod:`repro.backends`).
    """
    spec = QuerySpec(kind="triangles", taus=tau, epsilon=epsilon, backend=backend)
    return default_engine().run(tps, spec).records


def find_sum_durable_pairs(
    tps: TemporalPointSet,
    tau: float,
    epsilon: float = 0.5,
    backend: str = "auto",
) -> List[PairRecord]:
    """Report τ-SUM-durable pairs (Definition 1.5, Theorem 5.1)."""
    spec = QuerySpec(kind="pairs-sum", taus=tau, epsilon=epsilon, backend=backend)
    return default_engine().run(tps, spec).records


def find_union_durable_pairs(
    tps: TemporalPointSet,
    tau: float,
    kappa: int,
    epsilon: float = 0.5,
    backend: str = "auto",
) -> List[PairRecord]:
    """Report (τ, κ)-UNION-durable pairs (Section 5.2, Theorem 5.2)."""
    spec = QuerySpec(
        kind="pairs-union", taus=tau, kappa=kappa, epsilon=epsilon, backend=backend
    )
    return default_engine().run(tps, spec).records
