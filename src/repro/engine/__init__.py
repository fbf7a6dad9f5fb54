"""Batched query engine with shared-index caching (ISSUE 1 tentpole).

One preprocessing pass over a temporal proximity graph supports many
durable-pattern reports; this package makes that operational:

* :class:`~repro.engine.spec.QuerySpec` — declarative query description
  (kind, τ or τ-sweep, κ, m, ε, metric-backend, or a ``pattern-dsl``
  payload compiled by :mod:`repro.lang`);
* :func:`~repro.engine.planner.plan_query` — lowers a spec onto the
  shared index it needs (its cache key and builder), or compiles a
  ``pattern-dsl`` spec onto staged plans over the same indexes;
* :class:`~repro.engine.cache.IndexCache` — single-flight shared-index
  cache keyed by ``(family, dataset fingerprint, ε, backend)``; staged
  ``pattern-dsl`` plans share sub-indexes with legacy queries here;
* :class:`~repro.engine.engine.QueryEngine` — plans batches, shares
  indexes, executes independent queries on a thread pool, and reports
  per-query (and per-stage) timing plus cache statistics.

``repro.api``, ``python -m repro batch`` and ``benchmarks/helpers.py``
are all thin layers over this package.
"""

from .cache import CacheOutcome, CacheStats, IndexCache, IndexKey
from .engine import QueryEngine
from .executor import execute_plan, execute_plans
from .planner import (
    PlanStage,
    QueryPlan,
    distinct_index_keys,
    plan_batch,
    plan_query,
)
from .results import BatchResult, QueryResult, record_to_dict
from .spec import KINDS, QuerySpec

__all__ = [
    "KINDS",
    "QuerySpec",
    "IndexKey",
    "IndexCache",
    "CacheOutcome",
    "CacheStats",
    "PlanStage",
    "QueryPlan",
    "plan_query",
    "plan_batch",
    "distinct_index_keys",
    "execute_plan",
    "execute_plans",
    "QueryEngine",
    "QueryResult",
    "BatchResult",
    "record_to_dict",
]
