"""Concurrent plan execution with per-query timing and fault isolation.

Plans run on a :class:`~concurrent.futures.ThreadPoolExecutor`; index
builds are de-duplicated by the cache's single-flight discipline, so a
batch whose queries share one index performs one build no matter how
many workers race for it.  The runners' query paths are read-only:
they write nothing to an index after construction
(``tests/test_backends.py`` pins this for the ``vector`` families), so
concurrent queries against one shared index are safe and the result of
a batch is deterministic: results come back in submission order, and
each query's records are exactly what a sequential run would produce.

A query whose builder or runner raises does not destroy the rest of the
batch: with ``raise_on_error=False`` the failure is captured into its
own :class:`~repro.engine.results.QueryResult` (``ok=False``, ``error``
set) and every other plan's result is returned intact.  The default
``raise_on_error=True`` preserves the historical contract — the first
failing plan's exception propagates — which is what the one-call
``repro.api`` helpers rely on.

Threads — not processes — are the right pool here: a process pool would
have to pickle a full index per worker, forfeiting the shared build
that is the engine's whole point.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, List, Optional, Sequence, Tuple

from ..obs.trace import ExecTrace
from .cache import IndexCache
from .planner import QueryPlan
from .results import QueryResult

__all__ = ["execute_plan", "execute_plans", "default_worker_count"]


def default_worker_count(n_plans: int) -> int:
    """Pool size: enough to cover the batch, bounded by the host CPUs."""
    cpus = os.cpu_count() or 1
    return max(1, min(n_plans, cpus))


def _traced_get(cache: IndexCache, key, builder, trace, parent_id, stage=None):
    """``get_or_build`` wrapped in a ``cache.get`` span when tracing.

    The span's ``outcome`` attribute distinguishes a ready hit, the
    single-flight build this request owned, and a wait on someone
    else's in-flight build — the three latencies an operator needs to
    tell apart when a cold index shows up in a waterfall.
    """
    if trace is None:
        return cache.get_or_build(key, builder)
    handle = trace.recorder.start_span(
        "cache.get",
        parent_id=parent_id,
        attrs={"family": key.family, "backend": key.backend,
               **({"stage": stage} if stage is not None else {})},
    )
    with handle:
        outcome = cache.get_or_build(key, builder)
        handle.set_attr("outcome", outcome.source)
        if not outcome.hit:
            handle.set_attr("build_seconds", round(outcome.build_seconds, 6))
    return outcome


def _execute_one(
    plan: QueryPlan, cache: IndexCache, trace: Optional[ExecTrace] = None
) -> Tuple[QueryResult, Optional[BaseException]]:
    """Run one plan, capturing any failure into the result envelope.

    Returns ``(result, exception)`` — the exception object is kept
    alongside the error result so ``raise_on_error=True`` callers can
    re-raise the original, not a stringified stand-in.

    Stage-less plans (the legacy kinds) fetch/build ``plan.key`` and
    call ``runner(index, tau)``.  Staged plans (``pattern-dsl``)
    acquire every :class:`~repro.engine.planner.PlanStage` through the
    same single-flight cache — per-stage build timing lands on the
    result's ``stages`` — and call ``runner({name: index}, tau)``.

    ``trace`` (an :class:`~repro.obs.trace.ExecTrace`) is passed
    explicitly because this runs on a thread pool where ambient
    contextvars do not follow; when present, the plan's queue wait,
    each cache acquisition and the runner sweep each land as spans.
    """
    t0 = time.perf_counter()
    query_span = None
    if trace is not None:
        # Time spent between executor submission and this thread picking
        # the plan up — thread-pool/admission backlog made visible.
        trace.recorder.add_timed(
            "queue.wait",
            parent_id=trace.parent_id,
            start=trace.submitted_wall,
            duration=time.perf_counter() - trace.submitted_perf,
            attrs={"query": trace.index},
        )
        query_span = trace.recorder.start_span(
            "engine.query",
            parent_id=trace.parent_id,
            attrs={
                "query": trace.index,
                "kind": plan.spec.kind,
                "backend": plan.key.backend,
                **({"template": plan.template} if plan.template else {}),
            },
        )
    parent_id = query_span.span_id if query_span is not None else None
    try:
        stage_timings: Tuple[Any, ...] = ()
        if plan.stages:
            indexes = {}
            cache_hit = True
            build_seconds = 0.0
            timings = []
            for stage in plan.stages:
                outcome = _traced_get(
                    cache, stage.key, stage.builder, trace, parent_id,
                    stage=stage.name,
                )
                indexes[stage.name] = outcome.index
                stage_build = 0.0 if outcome.hit else outcome.build_seconds
                build_seconds += stage_build
                cache_hit = cache_hit and outcome.hit
                timings.append(
                    {
                        "stage": stage.name,
                        "family": stage.key.family,
                        "backend": stage.key.backend,
                        "cache_hit": outcome.hit,
                        "build_seconds": stage_build,
                    }
                )
            stage_timings = tuple(timings)
            target: Any = indexes
        else:
            outcome = _traced_get(cache, plan.key, plan.builder, trace, parent_id)
            cache_hit = outcome.hit
            # The outcome carries its flight's own build time, so this
            # stays correct even if the entry was LRU-evicted by a later
            # build before we got here.
            build_seconds = 0.0 if outcome.hit else outcome.build_seconds
            target = outcome.index
        # Per τ a record list, or a RecordBlock from a column kernel.
        records_by_tau: "OrderedDict[float, Sequence[Any]]" = OrderedDict()
        if trace is not None:
            # Staged plans evaluate the composed DSL combinator tree over
            # the stage indexes; legacy plans sweep one backend index.
            sweep_name = "dsl.eval" if plan.stages else "backend.query"
            sweep_span = trace.recorder.start_span(
                sweep_name, parent_id=parent_id,
                attrs={"taus": len(plan.spec.taus)},
            )
        else:
            sweep_span = None
        t_query = time.perf_counter()
        try:
            for tau in plan.spec.taus:
                records_by_tau[tau] = plan.runner(target, tau)
        except Exception as exc:
            if sweep_span is not None:
                sweep_span.set_error(f"{type(exc).__name__}: {exc}")
                sweep_span.finish()
            raise
        query_seconds = time.perf_counter() - t_query
        if sweep_span is not None:
            sweep_span.finish()
    except Exception as exc:
        if query_span is not None:
            query_span.set_error(f"{type(exc).__name__}: {exc}")
            query_span.finish()
        return (
            QueryResult(
                spec=plan.spec,
                key=plan.key,
                records_by_tau=OrderedDict(),
                cache_hit=False,
                build_seconds=0.0,
                query_seconds=time.perf_counter() - t0,
                error=f"{type(exc).__name__}: {exc}",
            ),
            exc,
        )
    if query_span is not None:
        query_span.finish()
    return (
        QueryResult(
            spec=plan.spec,
            key=plan.key,
            records_by_tau=records_by_tau,
            cache_hit=cache_hit,
            build_seconds=build_seconds,
            query_seconds=query_seconds,
            stages=stage_timings,
        ),
        None,
    )


def execute_plan(
    plan: QueryPlan, cache: IndexCache, raise_on_error: bool = True,
    trace: Optional[ExecTrace] = None,
) -> QueryResult:
    """Run a single plan; capture failures when ``raise_on_error`` is off."""
    result, exc = _execute_one(plan, cache, trace)
    if exc is not None and raise_on_error:
        raise exc
    return result


def execute_plans(
    plans: Sequence[QueryPlan],
    cache: IndexCache,
    max_workers: Optional[int] = None,
    parallel: bool = True,
    raise_on_error: bool = True,
) -> List[QueryResult]:
    """Run every plan; results are returned in submission order.

    With ``raise_on_error=False`` a failing plan yields an error-carrying
    :class:`QueryResult` (``ok=False``) and never disturbs its
    neighbours.  With the default ``True``, every plan still runs to
    completion (the pool is drained) but the first failure — in
    submission order — is re-raised afterwards.
    """
    if not plans:
        return []
    workers = max_workers if max_workers is not None else default_worker_count(len(plans))
    if not parallel or workers <= 1 or len(plans) == 1:
        pairs = [_execute_one(p, cache) for p in plans]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_execute_one, p, cache) for p in plans]
            pairs = [f.result() for f in futures]
    if raise_on_error:
        for _, exc in pairs:
            if exc is not None:
                raise exc
    return [result for result, _ in pairs]
