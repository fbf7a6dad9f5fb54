"""The batched query engine — one preprocessing pass, many reports.

:class:`QueryEngine` is the seam between the paper's index structures
and a serving workload: callers submit batches of declarative
:class:`~repro.engine.spec.QuerySpec` objects, the planner maps each
onto an index family and cache key, the shared-index cache builds every
distinct index exactly once, and the executor answers independent
queries concurrently.

Typical use::

    from repro import QueryEngine, QuerySpec

    engine = QueryEngine()
    batch = engine.run_batch(tps, [
        QuerySpec(kind="triangles", taus=(4.0, 6.0, 8.0)),   # τ-sweep
        QuerySpec(kind="pairs-sum", taus=6.0),
        QuerySpec(kind="pairs-union", taus=6.0, kappa=3),
        QuerySpec(kind="cliques", taus=5.0, m=4),
    ])
    for result in batch:
        print(result.spec.kind, result.count, result.cache_hit)

The same engine (and therefore the same cache) also backs the one-call
helpers of :mod:`repro.api` and the benchmark harness, so production,
scripting and measurement all exercise one code path.
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Mapping, Optional, Union

from ..types import TemporalPointSet
from .cache import CacheStats, IndexCache
from .executor import execute_plans
from .planner import distinct_index_keys, plan_batch, plan_query
from .results import BatchResult, QueryResult
from .spec import QuerySpec

__all__ = ["QueryEngine"]

SpecLike = Union[QuerySpec, Mapping[str, Any]]


def _coerce_spec(spec: SpecLike) -> QuerySpec:
    if isinstance(spec, QuerySpec):
        return spec
    return QuerySpec.from_dict(spec)


class QueryEngine:
    """Plan, cache and execute durable-pattern query batches.

    Parameters
    ----------
    cache:
        Shared :class:`~repro.engine.cache.IndexCache`; defaults to a
        private unbounded cache.  Pass an explicit instance to share
        indexes across engines or to bound memory (``max_entries``).
    max_workers:
        Thread-pool width for batches (default: one per query, capped
        at the host CPU count).
    """

    def __init__(
        self,
        cache: Optional[IndexCache] = None,
        max_workers: Optional[int] = None,
    ) -> None:
        self.cache = cache if cache is not None else IndexCache()
        self.max_workers = max_workers

    # ------------------------------------------------------------------
    def run_batch(
        self,
        tps: TemporalPointSet,
        specs: Iterable[SpecLike],
        parallel: bool = True,
        raise_on_error: bool = False,
    ) -> BatchResult:
        """Execute a batch of queries over one dataset.

        Results come back in submission order; every distinct index is
        built at most once (across this call *and* any earlier call that
        populated the cache).

        Faults are isolated per query: a spec whose builder or runner
        raises yields a :class:`~repro.engine.results.QueryResult` with
        ``ok=False`` and its ``error`` set, while every other query's
        result is returned intact (the pre-fix engine threw the whole
        batch away).  Pass ``raise_on_error=True`` to restore the old
        raise-through contract.  Malformed specs still raise
        :class:`~repro.errors.ValidationError` at planning time, before
        anything executes.
        """
        coerced = [_coerce_spec(s) for s in specs]
        plans = plan_batch(coerced, tps)
        t0 = time.perf_counter()
        results = execute_plans(
            plans,
            self.cache,
            max_workers=self.max_workers,
            parallel=parallel,
            raise_on_error=raise_on_error,
        )
        wall = time.perf_counter() - t0
        return BatchResult(
            results=tuple(results),
            wall_seconds=wall,
            distinct_indexes=len(distinct_index_keys(plans)),
            # Only this batch's own acquisitions — a long-lived engine's
            # cumulative figures stay on engine.stats.
            cache_stats=sum(
                (r.cache_activity for r in results), CacheStats()
            ).as_dict(),
        )

    def run(self, tps: TemporalPointSet, spec: SpecLike, **overrides: Any) -> QueryResult:
        """Execute a single query (sequentially, same cache).

        A failing query raises — single-query callers (``repro.api``)
        keep the historical exception contract.
        """
        coerced = _coerce_spec(spec)
        if overrides:
            coerced = QuerySpec(**{**coerced.__dict__, **overrides})
        plan = plan_query(0, coerced, tps)
        return execute_plans([plan], self.cache, parallel=False, raise_on_error=True)[0]

    def get_index(self, tps: TemporalPointSet, spec: SpecLike) -> Any:
        """Build (or fetch) the shared index a spec resolves to.

        This is the bench-harness hook: it exposes the underlying index
        object (``DurableTriangleIndex``, ``SumPairIndex``, …) while
        keeping its construction on the engine's cached path.
        """
        plan = plan_query(0, _coerce_spec(spec), tps)
        return self.cache.get_or_build(plan.key, plan.builder).index

    # ------------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        """Live cache statistics (hits/misses/builds/build time)."""
        return self.cache.stats

    def reset(self) -> None:
        """Drop cached indexes and zero the statistics."""
        self.cache.clear()
        self.cache.reset_stats()
