"""Query planning: map specs onto executable plans over shared indexes.

``plan_batch`` turns ``(TemporalPointSet, [QuerySpec, …])`` into
:class:`QueryPlan` objects carrying everything the executor needs.
Planning is pure — no index is built here — so a plan can also be
inspected to predict how many distinct builds a batch will trigger
(:func:`distinct_index_keys`).

Dispatch is two-layered:

* the spec's ``kind`` selects a :class:`~repro.engine.templates.PlanTemplate`
  from the template registry (:mod:`repro.engine.templates`) — the four
  legacy index families and the ``pattern-dsl`` compiler are built-in,
  and :func:`~repro.engine.templates.register_template` opens the set;
* inside the built-in templates, backend dispatch goes through the
  backend registry (:mod:`repro.backends`):
  :meth:`~repro.backends.registry.BackendRegistry.resolve` validates
  the kind/backend/metric combination, resolves ``backend="auto"`` by
  the registry's fixed capability order (exact ℓ∞ promotion first),
  and the chosen
  descriptor's hooks emit the cache key and builder.  For every
  pre-existing explicit backend name the emitted
  :class:`~repro.engine.cache.IndexKey` is bit-identical to the
  historical planner's, so caches populated before either registry
  existed stay valid (asserted by ``tests/test_backends.py``).

A plan comes in two shapes, told apart by ``stages``:

* **stage-less** (the legacy kinds): the executor builds/fetches
  ``plan.key`` and calls ``runner(index, tau)``;
* **staged** (``pattern-dsl`` and future composite templates): each
  :class:`PlanStage` names one shared index; the executor acquires all
  of them through the same single-flight cache — so a composite plan's
  sub-indexes are shared with any legacy query that uses them — and
  calls ``runner({stage_name: index, …}, tau)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..backends.registry import BackendRegistry
from ..errors import ValidationError
from ..types import TemporalPointSet
from .cache import IndexKey
from .spec import PATTERN_KINDS, QuerySpec

__all__ = [
    "PlanStage",
    "QueryPlan",
    "plan_query",
    "plan_batch",
    "distinct_index_keys",
    "runner_for",
]


@dataclass(frozen=True)
class PlanStage:
    """One shared index a staged plan depends on."""

    name: str
    key: IndexKey
    builder: Callable[[], Any]


@dataclass(frozen=True)
class QueryPlan:
    """One executable query: spec + shared-index identity + callables.

    The first five fields are the historical positional layout —
    downstream code (and tests) construct plans positionally, so new
    fields append with defaults.  For stage-less plans ``runner`` takes
    ``(index, tau)``; for staged plans it takes
    ``({stage_name: index}, tau)``.
    """

    order: int
    spec: QuerySpec
    key: IndexKey
    builder: Callable[[], Any]
    runner: Callable[[Any, float], Sequence[Any]]
    template: str = field(default="")
    stages: Tuple[PlanStage, ...] = field(default=())


def runner_for(spec: QuerySpec) -> Callable[[Any, float], Sequence[Any]]:
    """The per-τ report call — kind-specific, backend-agnostic.

    Every backend serving a kind exposes the same query surface
    (``query(tau)``, ``query(tau, kappa)``, or the pattern iterators),
    so runners key on the spec alone and a cached index answers any
    spec that shares its key.  An index that also answers in columns
    (the ``vector`` families: ``query_block``, ``clique_block``) is
    asked for its :class:`~repro.blocks.RecordBlock`, so the answer
    builds no record object until a caller reads one.
    """
    if spec.kind == "pairs-union":
        kappa = spec.kappa
        return lambda index, tau: getattr(index, "query_block", index.query)(tau, kappa)
    if spec.kind == "cliques":
        m = spec.m

        def cliques(index, tau):
            if hasattr(index, "clique_block"):
                return index.clique_block(m, tau)
            return list(index.iter_cliques(m, tau))

        return cliques
    if spec.kind in PATTERN_KINDS:
        m = spec.m
        iter_name = "iter_paths" if spec.kind == "paths" else "iter_stars"
        return lambda index, tau: list(getattr(index, iter_name)(m, tau))
    return lambda index, tau: getattr(index, "query_block", index.query)(tau)


def plan_query(
    order: int,
    spec: QuerySpec,
    tps: TemporalPointSet,
    registry: Optional[BackendRegistry] = None,
) -> QueryPlan:
    """Resolve one spec against a dataset (validates, never builds).

    Dispatches to the spec's plan template; ``registry`` (defaulting to
    the process-wide backend registry) scopes backend dispatch — and
    any custom backends registered on it — to this call.
    """
    # Imported lazily: the template registry imports this module for
    # QueryPlan/PlanStage, so the dependency must not be circular at
    # import time.
    from .templates import get_template

    return get_template(spec.kind).plan(order, spec, tps, registry)


def plan_batch(
    specs: Sequence[QuerySpec],
    tps: TemporalPointSet,
    registry: Optional[BackendRegistry] = None,
) -> List[QueryPlan]:
    """Plan every spec of a batch against one dataset.

    Validation errors carry the batch position so a bad entry in a
    40-query file is easy to locate.
    """
    plans: List[QueryPlan] = []
    for order, spec in enumerate(specs):
        try:
            plans.append(plan_query(order, spec, tps, registry=registry))
        except ValidationError as exc:
            raise ValidationError(f"query #{order}: {exc}") from exc
    return plans


def distinct_index_keys(plans: Sequence[QueryPlan]) -> Tuple[IndexKey, ...]:
    """The distinct indexes a batch will build (in first-use order).

    Staged plans contribute their stage keys — the composite plan key
    of a ``pattern-dsl`` query is a reporting identity, not a build.
    """
    seen: dict = {}
    for plan in plans:
        if plan.stages:
            for stage in plan.stages:
                seen.setdefault(stage.key, None)
        else:
            seen.setdefault(plan.key, None)
    return tuple(seen)
