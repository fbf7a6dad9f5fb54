"""Capability descriptors — what one backend can do, declaratively.

A :class:`BackendDescriptor` is the registry's unit of registration: it
names a backend, declares which query kinds it serves and which metrics
it accepts, states its exactness guarantee, and carries the two planner
hooks that make dispatch data-driven instead of an if/elif chain —
``index_identity`` (the :class:`~repro.engine.cache.IndexKey` under
which the backend's preprocessing pass may be shared) and
``make_builder`` (the zero-argument closure the shared-index cache
runs at most once per key).

Spatial backends — those that plug a decomposition into
:class:`~repro.structures.durable_ball.DurableBallStructure` —
additionally expose ``decomposition_factory`` so
:func:`~repro.structures.durable_ball.make_decomposition` resolves
through the same registry.

Descriptors are frozen and hashable; everything dataset-dependent
happens inside the hooks, so one descriptor instance serves every
dataset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, FrozenSet, List, Optional

from ..errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    import numpy as np

    from ..engine.cache import IndexKey
    from ..engine.spec import QuerySpec
    from ..geometry.metrics import Metric
    from ..structures.decomposition import SpatialDecomposition
    from ..types import TemporalPointSet

__all__ = ["BackendDescriptor"]

#: Hook signatures (documented here; enforced structurally).
BuilderHook = Callable[["QuerySpec", "TemporalPointSet"], Callable[[], Any]]
IdentityHook = Callable[["QuerySpec", str], "IndexKey"]
MetricPredicate = Callable[["Metric"], bool]
DecompositionFactory = Callable[
    ["np.ndarray", "Metric", float], "SpatialDecomposition"
]


@dataclass(frozen=True)
class BackendDescriptor:
    """One registered backend: capabilities plus planner hooks.

    Parameters
    ----------
    name:
        Registry name (``"cover-tree"``, ``"grid"``, ``"linf-exact"``,
        or a custom name).  This string is also the ``backend`` field of
        every :class:`~repro.engine.cache.IndexKey` the backend's
        ``index_identity`` hook produces, so renaming a backend
        invalidates its cached indexes — by design.
    kinds:
        Query kinds (subset of :data:`repro.engine.spec.KINDS`) this
        backend can execute.  Dispatching an unsupported kind raises
        :class:`~repro.errors.ValidationError` naming the backends that
        *do* serve it.
    exact:
        ``True`` when the backend reports exactly the τ-durable set
        (no ε-extras).  ``backend="auto"`` prefers exact backends when
        one is eligible, matching the historical ℓ∞ promotion.
    description:
        One-line capability summary (shown by ``python -m repro
        backends``).
    metric_requirement:
        Human-readable metric constraint (``"any metric"``, ``"lp
        metrics (grid cells)"``, ``"linf only"``).
    metric_ok:
        Predicate deciding whether the backend can run under a metric.
    make_builder / index_identity:
        The planner hooks described in the module docstring.
    decomposition_factory:
        ``(points, metric, resolution) -> SpatialDecomposition`` for
        spatial backends; ``None`` for solvers (like the exact ℓ∞
        triangle reporter) that bypass the durable-ball structure.
    """

    name: str
    kinds: FrozenSet[str]
    exact: bool
    description: str
    metric_requirement: str
    metric_ok: MetricPredicate = field(compare=False)
    make_builder: BuilderHook = field(compare=False)
    index_identity: IdentityHook = field(compare=False)
    decomposition_factory: Optional[DecompositionFactory] = field(
        default=None, compare=False
    )

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValidationError(
                f"backend name must be a non-empty string, got {self.name!r}"
            )
        if self.name == "auto":
            raise ValidationError(
                "'auto' is the dispatch keyword, not a registrable backend name"
            )
        if not self.kinds:
            raise ValidationError(
                f"backend {self.name!r} must declare at least one query kind"
            )
        object.__setattr__(self, "kinds", frozenset(self.kinds))

    # ------------------------------------------------------------------
    @property
    def spatial(self) -> bool:
        """Whether this backend provides a spatial decomposition."""
        return self.decomposition_factory is not None

    def serves(self, kind: str) -> bool:
        return kind in self.kinds

    def supports_metric(self, metric: "Metric") -> bool:
        return bool(self.metric_ok(metric))

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, Any]:
        """JSON-ready capability card (the CLI listing)."""
        kinds: List[str] = sorted(self.kinds)
        return {
            "name": self.name,
            "kinds": kinds,
            "exact": self.exact,
            "spatial": self.spatial,
            "metric": self.metric_requirement,
            "description": self.description,
        }
