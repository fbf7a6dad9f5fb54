"""The built-in backends: cover tree, grid, exact ℓ∞ range tree, vector.

Each :func:`register_builtin_backends` call installs four descriptors:

* ``cover-tree`` — the paper's general-metric net hierarchy
  (Appendix A).  Serves every query kind under any metric; the safe
  default and the only choice for opaque :class:`~repro.geometry.
  metrics.FunctionMetric` distances.
* ``grid`` — the one-level quadtree of Remark 1 / Appendix D.1.
  Serves every query kind but only under ``ℓ_α`` metrics
  (``supports_grid``); ``auto`` ranks it after ``vector``, whose
  record sets it shares.
* ``linf-exact`` — the exact ℓ∞ triangle reporter of Appendix B
  (Algorithm 5, Theorem B.3).  Triangles only, ℓ∞ only, and the only
  backend with an exactness guarantee, so ``auto`` promotes eligible
  triangle queries to it.
* ``vector`` — the structure-of-arrays backend
  (:mod:`repro.backends.vector`): the same grid cells as ``grid`` but
  built and queried by batched numpy kernels.  Record sets are
  identical to ``grid``'s, and it is ``auto``'s first choice on
  ``ℓ_α`` inputs (see :data:`~repro.backends.registry.PREFERENCE`).

The hooks reproduce the historical planner's cache identities
bit-for-bit: for every pre-existing backend name the
:class:`~repro.engine.cache.IndexKey` a descriptor emits equals what
``repro.engine.planner`` produced before the registry existed
(asserted by ``tests/test_backends.py::TestKeyStability``).  The one
deliberate difference is ``vector`` SUM pairs: the vector index always
scores through coverage profiles, so both ``sum_backend`` values share
the ``("profile",)`` key and one build.

Index-class imports happen inside the hooks: the core solvers import
:mod:`repro.structures.durable_ball`, which consults this registry for
spatial lookups, so importing them at module scope would be circular.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from ..engine.cache import IndexKey
from ..errors import ValidationError
from ..geometry.metrics import ChebyshevMetric, Metric
from .descriptor import BackendDescriptor
from .registry import BackendRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.spec import QuerySpec
    from ..types import TemporalPointSet

__all__ = ["register_builtin_backends", "spatial_descriptor"]

#: Query kind → shared-index family (one PatternIndex serves all three
#: pattern kinds, so they share the ``patterns`` family).
_FAMILY = {
    "triangles": "triangles",
    "pairs-sum": "pairs-sum",
    "pairs-union": "pairs-union",
    "cliques": "patterns",
    "paths": "patterns",
    "stars": "patterns",
}

_ALL_KINDS = frozenset(_FAMILY)


def _spatial_identity(
    name: str, sum_backend: Optional[str] = None
) -> Callable[["QuerySpec", str], IndexKey]:
    """Identity hook for a durable-ball backend — must stay bit-identical
    to the historical planner keys (same family, ε, backend, extras).

    ``sum_backend`` pins the SUM-pair extra for a backend whose SUM
    index ignores the spec's choice, so both choices share one index.
    """

    def identity(spec: "QuerySpec", fingerprint: str) -> IndexKey:
        family = _FAMILY.get(spec.kind)
        if family is None:  # pragma: no cover - spec already validates kinds
            raise ValidationError(f"unknown query kind {spec.kind!r}")
        extra = (
            (sum_backend or spec.sum_backend,) if spec.kind == "pairs-sum" else ()
        )
        return IndexKey(family, fingerprint, spec.epsilon, name, extra)

    return identity


def _spatial_builder(
    name: str,
) -> Callable[["QuerySpec", "TemporalPointSet"], Callable[[], Any]]:
    """Builder hook for a durable-ball backend.

    The concrete backend name is passed down to the index classes, whose
    own ``resolve_backend`` leaves it untouched — the structure an
    explicit-name query always built.
    """

    def make_builder(spec: "QuerySpec", tps: "TemporalPointSet") -> Callable[[], Any]:
        kind = spec.kind
        if kind == "triangles":
            from ..core.triangles import DurableTriangleIndex

            return lambda: DurableTriangleIndex(
                tps, epsilon=spec.epsilon, backend=name
            )
        if kind == "pairs-sum":
            from ..core.aggregate import SumPairIndex

            return lambda: SumPairIndex(
                tps,
                epsilon=spec.epsilon,
                backend=name,
                sum_backend=spec.sum_backend,
            )
        if kind == "pairs-union":
            from ..core.aggregate import UnionPairIndex

            return lambda: UnionPairIndex(tps, epsilon=spec.epsilon, backend=name)
        if kind in ("cliques", "paths", "stars"):
            from ..core.patterns import PatternIndex

            return lambda: PatternIndex(tps, epsilon=spec.epsilon, backend=name)
        raise ValidationError(  # pragma: no cover - spec already validates kinds
            f"unknown query kind {kind!r}"
        )

    return make_builder


def spatial_descriptor(
    name: str,
    description: str,
    metric_requirement: str,
    metric_ok: Callable[[Metric], bool],
    decomposition_factory: Callable[..., Any],
) -> BackendDescriptor:
    """A descriptor for a durable-ball spatial backend.

    Custom decompositions reuse this: implement the
    :class:`~repro.structures.decomposition.SpatialDecomposition`
    interface, wire the factory through
    :func:`~repro.structures.durable_ball.make_decomposition` (it
    dispatches by registered name), and register the descriptor on
    :func:`~repro.backends.registry.default_registry`.
    """
    return BackendDescriptor(
        name=name,
        kinds=_ALL_KINDS,
        exact=False,
        description=description,
        metric_requirement=metric_requirement,
        metric_ok=metric_ok,
        make_builder=_spatial_builder(name),
        index_identity=_spatial_identity(name),
        decomposition_factory=decomposition_factory,
    )


def _vector_builder(
    spec: "QuerySpec", tps: "TemporalPointSet"
) -> Callable[[], Any]:
    """Builder hook for the SoA ``vector`` backend.

    Constructs the vectorised index classes.  They are keyed by
    :func:`_spatial_identity` with the SUM extra pinned to
    ``"profile"``, because the vector SUM index ignores ``sum_backend``.
    """
    kind = spec.kind
    if kind == "triangles":
        from .vector import VectorTriangleIndex

        return lambda: VectorTriangleIndex(tps, epsilon=spec.epsilon)
    if kind == "pairs-sum":
        from .vector import VectorSumPairIndex

        return lambda: VectorSumPairIndex(tps, epsilon=spec.epsilon)
    if kind == "pairs-union":
        from .vector import VectorUnionPairIndex

        return lambda: VectorUnionPairIndex(tps, epsilon=spec.epsilon)
    if kind in ("cliques", "paths", "stars"):
        from .vector import VectorPatternIndex

        return lambda: VectorPatternIndex(tps, epsilon=spec.epsilon)
    raise ValidationError(  # pragma: no cover - spec already validates kinds
        f"unknown query kind {kind!r}"
    )


# ----------------------------------------------------------------------
def _cover_tree_factory(points, metric, resolution):
    from ..covertree.ball_query import CoverTreeDecomposition

    return CoverTreeDecomposition(points, metric, resolution)


def _grid_factory(points, metric, resolution):
    from ..quadtree.tree import GridDecomposition

    return GridDecomposition(points, metric, resolution)


def _linf_exact_identity(spec: "QuerySpec", fingerprint: str) -> IndexKey:
    # ε is irrelevant to the exact solver; pinning it to 0.0 keeps every
    # ε-variant of an exact triangle query on one shared index (and the
    # key bit-identical to the historical planner's).
    return IndexKey("linf-triangles", fingerprint, 0.0, "linf-exact")


def _linf_exact_builder(
    spec: "QuerySpec", tps: "TemporalPointSet"
) -> Callable[[], Any]:
    from ..core.linf import LinfTriangleIndex

    return lambda: LinfTriangleIndex(tps)


def register_builtin_backends(registry: BackendRegistry) -> BackendRegistry:
    """Install the three built-in descriptors (idempotent via replace)."""
    registry.register(
        spatial_descriptor(
            "cover-tree",
            description=(
                "net-hierarchy canonical balls (Appendix A); the "
                "general-metric structure"
            ),
            metric_requirement="any metric",
            metric_ok=lambda metric: True,
            decomposition_factory=_cover_tree_factory,
        ),
        replace=True,
    )
    registry.register(
        spatial_descriptor(
            "grid",
            description=(
                "one-level quadtree cells (Remark 1); fastest build on "
                "lp inputs"
            ),
            metric_requirement="lp metrics (grid cells)",
            metric_ok=lambda metric: bool(metric.supports_grid),
            decomposition_factory=_grid_factory,
        ),
        replace=True,
    )
    registry.register(
        BackendDescriptor(
            name="linf-exact",
            kinds=frozenset({"triangles"}),
            exact=True,
            description=(
                "exact range-tree triangle reporting (Algorithm 5, "
                "Theorem B.3); no ε-extras"
            ),
            metric_requirement="the linf metric",
            metric_ok=lambda metric: isinstance(metric, ChebyshevMetric),
            make_builder=_linf_exact_builder,
            index_identity=_linf_exact_identity,
        ),
        replace=True,
    )
    registry.register(
        BackendDescriptor(
            name="vector",
            kinds=_ALL_KINDS,
            exact=False,
            description=(
                "structure-of-arrays numpy kernels over grid cells; "
                "fastest build+query on lp inputs"
            ),
            metric_requirement="lp metrics (grid cells)",
            metric_ok=lambda metric: bool(metric.supports_grid),
            make_builder=_vector_builder,
            index_identity=_spatial_identity("vector", sum_backend="profile"),
            # The same cells as ``grid``, for code that builds a
            # durable-ball structure by backend name.
            decomposition_factory=_grid_factory,
        ),
        replace=True,
    )
    return registry
