"""Async bridge between the event loop and a shard's thread pool.

The serving loop never builds an index and never runs a kernel.  A plan
whose resident index's τ frontier narrows every τ it asks for runs on
the loop itself, against the one-entry cache
:meth:`~repro.engine.cache.IndexCache.frontier_hit` hands out in one
call that cannot build: a narrow reads at most ``FRONTIER_CAP`` rows,
the same order of work as encoding its answer, which the loop does
anyway.  Every other plan — a build or a wait on one, a τ below the
frontier's τ₀, another ``(κ, m)``, and every plan whose backend or kind
keeps no frontier — is pushed onto the shard's
:class:`~concurrent.futures.ThreadPoolExecutor` via
:meth:`loop.run_in_executor`.  Admission is bounded either way — a
batch that does not fit inside the shard's queue limit is rejected up
front (the HTTP layer turns that into a 429) instead of queueing
without bound.  Slots are released by a done-callback on each future,
so a client that disconnects mid-stream can never leak capacity.

With tenant weights configured (see :mod:`repro.serve.tenants`), the
queue also enforces **weighted fair shares**: tenant *t* may hold at
most ``max(1, floor(limit × weight_t / Σ weights))`` slots.  Shares
are static — derived from the configured weights, not from current
occupancy — so a saturating tenant is bounded by construction and can
never crowd the global limit against the others.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from ..engine import IndexCache, QueryPlan, QueryResult
from ..engine.executor import execute_plan
from ..errors import ReproError, ValidationError
from ..obs.trace import ExecTrace, TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .registry import DatasetShard

__all__ = ["OverloadedError", "AdmissionQueue", "submit_plans"]


class OverloadedError(ReproError):
    """Raised when a shard cannot take a batch (HTTP 429).

    ``reason`` says which bound rejected it: ``"queue"`` (the shard's
    global admission limit), ``"share"`` (the tenant's fair share), or
    ``"quota"`` (the tenant's per-minute rate quota) — it becomes the
    ``reason`` label on ``serve_tenant_rejections_total``.
    """

    def __init__(
        self, message: str, retry_after: float = 1.0, reason: str = "queue"
    ) -> None:
        super().__init__(message)
        self.retry_after = retry_after
        self.reason = reason


class AdmissionQueue:
    """Bounded counter of queued-plus-running queries for one shard."""

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValidationError(f"admission limit must be >= 1, got {limit!r}")
        self.limit = limit
        self._lock = threading.Lock()
        self._in_flight = 0
        self._shares: Dict[str, int] = {}
        self._tenant_in_flight: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def set_tenant_weights(self, weights: Mapping[str, float]) -> None:
        """Derive each tenant's static slot share from its weight."""
        total = sum(weights.values())
        with self._lock:
            if not weights or total <= 0:
                self._shares = {}
                return
            self._shares = {
                tenant: max(1, int(self.limit * weight / total))
                for tenant, weight in weights.items()
            }

    def share(self, tenant: str) -> Optional[int]:
        """The tenant's slot share, or ``None`` when unconstrained."""
        with self._lock:
            return self._shares.get(tenant)

    # ------------------------------------------------------------------
    def try_acquire(self, n: int = 1) -> bool:
        """Reserve ``n`` anonymous slots atomically; ``False`` if they don't fit."""
        return self.acquire_for(None, n) is None

    def acquire_for(self, tenant: Optional[str], n: int = 1) -> Optional[str]:
        """Reserve ``n`` slots for ``tenant``; the rejection reason or ``None``.

        Both bounds are checked atomically: the shard's global limit
        (reason ``"queue"``) and, for tenants with a configured weight,
        the tenant's static share (reason ``"share"``).
        """
        with self._lock:
            if self._in_flight + n > self.limit:
                return "queue"
            if tenant is not None:
                share = self._shares.get(tenant)
                held = self._tenant_in_flight.get(tenant, 0)
                if share is not None and held + n > share:
                    return "share"
                self._tenant_in_flight[tenant] = held + n
            self._in_flight += n
            return None

    def release(self, n: int = 1, tenant: Optional[str] = None) -> None:
        with self._lock:
            self._in_flight = max(0, self._in_flight - n)
            if tenant is not None:
                held = self._tenant_in_flight.get(tenant, 0)
                self._tenant_in_flight[tenant] = max(0, held - n)

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def tenant_in_flight(self) -> Dict[str, int]:
        """Slots each known tenant holds (every weighted tenant included)."""
        with self._lock:
            tenants = set(self._tenant_in_flight) | set(self._shares)
            return {t: self._tenant_in_flight.get(t, 0) for t in tenants}


def submit_plans(
    shard: "DatasetShard",
    plans: List[QueryPlan],
    tenant: Optional[str] = None,
    recorder: Optional[TraceRecorder] = None,
    parent_span_id: Optional[str] = None,
) -> "List[asyncio.Future[QueryResult]]":
    """Admit a batch, run its τ-frontier hits in place and schedule
    every other plan on the shard's executor.

    The whole batch is admitted atomically — all-or-nothing — so a
    half-admitted request can never wedge the queue.  Raises
    :class:`OverloadedError` when the slots don't fit (the shard limit,
    or ``tenant``'s fair share), after counting the denied slots.

    A plan that :func:`_frontier_hit` answers runs on the calling event
    loop, and its future is done when this returns; the others are
    handed to the executor first, so their builds and kernels start
    while the loop narrows.  Each returned future releases its
    admission slot and counts its query from a done-callback, whether
    or not the caller is still around to await it.

    When ``recorder`` is set, each plan carries an
    :class:`~repro.obs.trace.ExecTrace` into the executor — explicit,
    because contextvars do not follow ``run_in_executor`` — stamped
    with the submission instant (for a plan run in place, the instant
    it starts) so the engine can report the plan's queue wait as a span
    under ``parent_span_id``.
    """
    n = len(plans)
    denied = shard.admission.acquire_for(tenant, n)
    if denied is not None:
        shard.record_rejected(n)
    if denied == "share":
        raise OverloadedError(
            f"tenant {tenant!r} is at its fair share of dataset "
            f"{shard.name!r} ({shard.admission.share(tenant)} of "
            f"{shard.admission.limit} slots); retry later",
            reason="share",
        )
    if denied is not None:
        raise OverloadedError(
            f"dataset {shard.name!r} is at its admission limit "
            f"({shard.admission.limit} queries in flight); retry later"
        )

    def exec_trace(index: int, in_place: bool) -> Optional[ExecTrace]:
        if recorder is None or parent_span_id is None:
            return None
        return ExecTrace(
            recorder=recorder,
            parent_id=parent_span_id,
            index=index,
            submitted_wall=time.time(),
            submitted_perf=time.perf_counter(),
            in_place=in_place,
        )

    loop = asyncio.get_running_loop()
    futures: list = [None] * n  # one future per plan, in plan order
    hits: "List[Tuple[int, IndexCache]]" = []
    for index, plan in enumerate(plans):
        hit = _frontier_hit(plan, shard.cache)
        if hit is not None:
            hits.append((index, hit))
            continue
        try:
            future = loop.run_in_executor(
                shard.executor, execute_plan, plan, shard.cache, False,
                exec_trace(index, False),
            )
        except RuntimeError:
            # Executor already shut down (server stopping): give back the
            # slots nothing was scheduled for and surface as overload.
            scheduled = [f for f in futures if f is not None]
            shard.admission.release(n - len(scheduled), tenant=tenant)
            for f in scheduled:
                f.cancel()
            raise OverloadedError(
                f"dataset {shard.name!r} is shutting down"
            ) from None
        future.add_done_callback(_release_callback(shard, plan, tenant))
        futures[index] = future
    for index, hit in hits:
        plan = plans[index]
        future = loop.create_future()
        try:
            future.set_result(execute_plan(plan, hit, False, exec_trace(index, True)))
        except Exception as exc:  # what an executor future would carry
            future.set_exception(exc)
        future.add_done_callback(_release_callback(shard, plan, tenant))
        futures[index] = future
    if hits:
        shard.record_in_place(len(hits))
    return futures


def _frontier_hit(plan: QueryPlan, cache: IndexCache) -> Optional[IndexCache]:
    """The one-entry cache ``plan`` runs against on the event loop
    (:meth:`~repro.engine.cache.IndexCache.frontier_hit`): when its
    index is resident with a τ frontier, kept for the plan's ``(κ, m)``,
    that narrows every τ of the plan.  Only plans with ``narrow`` (the
    four served ``vector`` families) keep one.  ``None`` sends the plan
    to the shard's executor."""
    if plan.narrow is None:
        return None
    spec = plan.spec
    return cache.frontier_hit(plan.key, (spec.kappa, spec.m), min(spec.taus))


def _release_callback(
    shard: "DatasetShard", plan: QueryPlan, tenant: Optional[str]
):
    def _done(future: "asyncio.Future[QueryResult]") -> None:
        shard.admission.release(1, tenant=tenant)
        # The plan key's backend is the registry-resolved name, so the
        # per-backend counts attribute work (and failures) to the
        # backend that actually ran — even when the future itself died
        # before producing a result envelope.
        template = plan.spec.kind
        if not future.cancelled() and future.exception() is None:
            result = future.result()
            shard.record_result(
                result.ok, result.key.backend, template, result.query_seconds
            )
        else:
            shard.record_result(False, plan.key.backend, template)

    return _done
