"""Query planning: map specs onto executable plans over shared indexes.

``plan_batch`` turns ``(TemporalPointSet, [QuerySpec, …])`` into
:class:`QueryPlan` objects carrying everything the executor needs.
Planning is pure — no index is built here — so a plan can also be
inspected to predict how many distinct builds a batch will trigger
(:func:`distinct_index_keys`).

Planning a query is one decision: which index family and backend it
needs, and under which cache key.  :func:`lower_primitive` makes it for
every primitive spec (one of :data:`~repro.engine.spec.KINDS`):
:meth:`~repro.backends.registry.BackendRegistry.resolve` validates the
kind/backend/metric combination and resolves ``backend="auto"`` by the
registry's fixed capability order (exact ℓ∞ promotion first), and the
chosen descriptor's hooks emit the
:class:`~repro.engine.cache.IndexKey` and the builder.  A
``pattern-dsl`` spec goes to :func:`~repro.lang.compiler.compile_pattern`,
which lowers each leaf through the same function, so DSL stages and
primitive queries share keys (asserted by ``tests/test_backends.py``).

A plan comes in two shapes, told apart by ``stages``:

* **stage-less** (the primitive kinds): the executor builds/fetches
  ``plan.key`` and calls ``runner(index, tau)``, except for the τs a
  plan with ``narrow`` takes from the entry's τ frontier
  (:mod:`repro.engine.frontier`);
* **staged** (``pattern-dsl``): each :class:`PlanStage` names one
  shared index; the executor acquires all of them through the same
  single-flight cache — so a composite plan's sub-indexes are shared
  with any primitive query that uses them — and calls
  ``runner({stage_name: index, …}, tau)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..backends.registry import BackendRegistry, default_registry
from ..errors import ValidationError
from ..types import TemporalPointSet
from .cache import IndexKey
from .spec import DSL_KIND, PATTERN_KINDS, QuerySpec

__all__ = [
    "PlanStage",
    "QueryPlan",
    "lower_primitive",
    "plan_query",
    "plan_batch",
    "distinct_index_keys",
    "runner_for",
    "narrow_for",
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
    ``({stage_name: index}, tau)``.  ``narrow`` (:func:`narrow_for`)
    takes ``(index, block, tau)``; it is ``None`` for plans whose
    answers are not narrowed.
    """

    order: int
    spec: QuerySpec
    key: IndexKey
    builder: Callable[[], Any]
    runner: Callable[[Any, float], Sequence[Any]]
    stages: Tuple[PlanStage, ...] = field(default=())
    narrow: Optional[Callable[[Any, Any, float], Any]] = None


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


def narrow_for(
    spec: QuerySpec, key: IndexKey
) -> Optional[Callable[[Any, Any, float], Any]]:
    """The call that narrows ``spec``'s answer at a τ₀ to a τ ≥ τ₀ on
    the index under ``key`` (:mod:`repro.engine.frontier`).

    Only the four served ``vector`` families narrow (triangles, SUM,
    UNION, cliques); every other backend, and paths and stars, which
    share the clique index, get ``None`` and run ``runner`` per τ.
    """
    if key.backend != "vector" or spec.kind in ("paths", "stars"):
        return None
    return lambda index, block, tau: index.narrow(block, tau)


def lower_primitive(
    spec: QuerySpec,
    tps: TemporalPointSet,
    registry: Optional[BackendRegistry] = None,
) -> Tuple[IndexKey, Callable[[], Any]]:
    """The shared index a primitive spec needs: its cache key and builder.

    ``registry`` (defaulting to the process-wide backend registry)
    resolves the backend and supplies the two descriptor hooks.
    """
    reg = registry if registry is not None else default_registry()
    descriptor = reg.resolve(spec, tps).descriptor
    return (
        descriptor.index_identity(spec, tps.fingerprint()),
        descriptor.make_builder(spec, tps),
    )


def plan_query(
    order: int,
    spec: QuerySpec,
    tps: TemporalPointSet,
    registry: Optional[BackendRegistry] = None,
) -> QueryPlan:
    """Resolve one spec against a dataset (validates, never builds).

    ``registry`` scopes backend dispatch — and any custom backends
    registered on it — to this call.
    """
    if spec.kind == DSL_KIND:
        # Imported lazily: the engine must not depend on the language
        # package at import time.
        from ..lang.compiler import compile_pattern

        return compile_pattern(order, spec, tps, registry)
    key, builder = lower_primitive(spec, tps, registry)
    return QueryPlan(
        order, spec, key, builder, runner_for(spec), narrow=narrow_for(spec, key)
    )


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
