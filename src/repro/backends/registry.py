"""The backend registry — single source of truth for dispatch.

Every interchangeable algorithm flavour in this repository (cover-tree
vs grid spatial decompositions, approximate vs ℓ∞-exact triangle
reporting) registers a :class:`~repro.backends.descriptor.
BackendDescriptor` here.  Consumers stopped hardcoding the choices:

* the engine planner (:mod:`repro.engine.planner`) resolves every
  :class:`~repro.engine.spec.QuerySpec` through :meth:`BackendRegistry.
  resolve`;
* spec validation (:mod:`repro.engine.spec`) checks backend names and
  kind/backend combinations via :meth:`BackendRegistry.
  validate_combination`;
* :func:`repro.structures.durable_ball.make_decomposition` looks
  spatial backends up with :meth:`BackendRegistry.get_spatial`;
* the serving layer and the CLI list capabilities from
  :meth:`BackendRegistry.describe`.

Resolution policy for ``backend="auto"`` — the paper's choice by
capability, deterministic for a fixed dataset (no clocks, no
randomness, no dependence on n, dim or the number of τs):

1. candidates are the registered backends serving the query kind whose
   metric predicate accepts the dataset's metric;
2. ``exact=True`` restricts to exact backends (as does explicitly
   naming one); ``exact=False`` removes them;
3. if an exact backend remains eligible it wins outright — exact
   output (no ε-extras) beats any constant-factor speed difference,
   preserving the historical ℓ∞ promotion (Appendix B);
4. otherwise the first eligible name in :data:`PREFERENCE` wins:
   ``vector`` and ``grid`` (grid cells, Remark 1) on ℓ_α metrics, the
   ``cover-tree`` (Appendix A) for any other metric;
5. custom backends rank after those, in registration order — they are
   chosen only when no built-in is eligible.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..errors import BackendError, ValidationError
from .descriptor import BackendDescriptor

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.spec import QuerySpec
    from ..types import TemporalPointSet

__all__ = ["PREFERENCE", "BackendResolution", "BackendRegistry", "default_registry"]

#: Approximate backends in ``auto`` preference order.  ``vector`` and
#: ``grid`` return identical record sets; ``vector`` is the faster of
#: the two (``benchmarks/bench_backends.py`` measures it).
PREFERENCE: Tuple[str, ...] = ("vector", "grid", "cover-tree")


@dataclass(frozen=True)
class BackendResolution:
    """The outcome of one ``resolve`` call (descriptor + audit trail).

    ``candidates`` lists every eligible backend name in preference
    order (the winner first), so callers — the CLI's ``--explain``,
    tests — can see what else could have run; ``reason`` is the
    human-readable rule that decided.
    """

    descriptor: BackendDescriptor
    candidates: Tuple[str, ...]
    reason: str

    @property
    def name(self) -> str:
        return self.descriptor.name


def _preference_rank(descriptor: BackendDescriptor) -> int:
    """Sort key: exact backends, then :data:`PREFERENCE`, then the rest
    (a stable sort keeps registration order within each tier)."""
    if descriptor.exact:
        return 0
    if descriptor.name in PREFERENCE:
        return 1 + PREFERENCE.index(descriptor.name)
    return 1 + len(PREFERENCE)


class BackendRegistry:
    """Name → :class:`BackendDescriptor` mapping with capability dispatch.

    Thread-safe for registration; lookups and resolution touch an
    immutable snapshot.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._descriptors: "OrderedDict[str, BackendDescriptor]" = OrderedDict()

    # ------------------------------------------------------------------
    def register(
        self, descriptor: BackendDescriptor, replace: bool = False
    ) -> BackendDescriptor:
        """Add a backend; re-registering a name needs ``replace=True``."""
        with self._lock:
            if descriptor.name in self._descriptors and not replace:
                raise ValidationError(
                    f"backend {descriptor.name!r} is already registered; "
                    "pass replace=True to swap it"
                )
            self._descriptors[descriptor.name] = descriptor
        return descriptor

    def names(self) -> Tuple[str, ...]:
        """Registered backend names, in registration order."""
        with self._lock:
            return tuple(self._descriptors)

    def descriptors(self) -> Tuple[BackendDescriptor, ...]:
        with self._lock:
            return tuple(self._descriptors.values())

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._descriptors

    def __len__(self) -> int:
        with self._lock:
            return len(self._descriptors)

    def get(self, name: str) -> BackendDescriptor:
        """Descriptor for ``name``; unknown names raise :class:`BackendError`
        listing what *is* registered."""
        with self._lock:
            desc = self._descriptors.get(name)
        if desc is None:
            raise BackendError(
                f"unknown backend {name!r}; registered backends: "
                f"{', '.join(self.names()) or '(none)'}"
            )
        return desc

    def get_spatial(self, name: str) -> BackendDescriptor:
        """Descriptor for a *spatial* backend (one that provides a
        decomposition factory); errors list the registered spatial names."""
        spatial = self.spatial_names()
        with self._lock:
            desc = self._descriptors.get(name)
        if desc is None or not desc.spatial:
            raise BackendError(
                f"unknown spatial backend {name!r}; registered spatial "
                f"backends: {', '.join(spatial) or '(none)'}"
            )
        return desc

    def spatial_names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(n for n, d in self._descriptors.items() if d.spatial)

    def serving(self, kind: str) -> Tuple[BackendDescriptor, ...]:
        """Backends declaring support for a query kind (registration order)."""
        with self._lock:
            return tuple(d for d in self._descriptors.values() if d.serves(kind))

    def describe(self) -> List[Dict[str, Any]]:
        """JSON-ready capability cards, in registration order."""
        return [desc.describe() for desc in self.descriptors()]

    # ------------------------------------------------------------------
    def validate_combination(self, kind: str, backend: str) -> None:
        """Reject unknown names and unsupported kind/backend combos.

        Dataset-independent (no metric check) so
        :class:`~repro.engine.spec.QuerySpec` can call it at
        construction time.  ``auto`` always passes.
        """
        if backend == "auto":
            return
        with self._lock:
            desc = self._descriptors.get(backend)
        if desc is None:
            raise ValidationError(
                f"unknown backend {backend!r}; expected 'auto' or one of "
                f"{', '.join(self.names()) or '(none registered)'}"
            )
        if not desc.serves(kind):
            serving = [d.name for d in self.serving(kind)]
            raise ValidationError(
                f"backend {backend!r} does not serve {kind!r} queries; "
                f"backends serving {kind!r}: {', '.join(serving) or '(none)'}"
            )

    # ------------------------------------------------------------------
    def resolve(
        self, spec: "QuerySpec", tps: "TemporalPointSet"
    ) -> BackendResolution:
        """Pick the backend that will execute ``spec`` on ``tps``.

        See the module docstring for the policy.  Raises
        :class:`~repro.errors.ValidationError` on every illegal
        combination, always naming the backends that would work.
        """
        kind = spec.kind
        metric = tps.metric
        explicit: Optional[BackendDescriptor] = None
        if spec.backend != "auto":
            self.validate_combination(kind, spec.backend)
            explicit = self.get(spec.backend)

        # Exactness forcing: exact=True, or an explicitly named exact
        # backend, commits to the exact solver (historically exact=True
        # overrode even an explicit spatial backend name).
        if spec.exact is True or (explicit is not None and explicit.exact):
            target = explicit if explicit is not None and explicit.exact else None
            if target is None:
                exacts = [d for d in self.serving(kind) if d.exact]
                if not exacts:
                    raise ValidationError(
                        f"no registered exact backend serves {kind!r} queries"
                    )
                target = exacts[0]
            if not target.supports_metric(metric):
                raise ValidationError(
                    f"the exact backend {target.name!r} requires "
                    f"{target.metric_requirement}, got {metric.name!r}; use "
                    "backend='auto' (or exact=False) for approximate "
                    "reporting under this metric"
                )
            return BackendResolution(
                descriptor=target,
                candidates=(target.name,),
                reason="exact reporting requested",
            )

        if explicit is not None:
            if not explicit.supports_metric(metric):
                usable = [
                    d.name
                    for d in self.serving(kind)
                    if d.supports_metric(metric)
                ]
                hint = (
                    f"; backends supporting it: {', '.join(usable)}"
                    if usable
                    else ""
                )
                raise ValidationError(
                    f"backend {explicit.name!r} requires "
                    f"{explicit.metric_requirement}, got {metric.name!r}{hint}"
                )
            return BackendResolution(
                descriptor=explicit,
                candidates=(explicit.name,),
                reason="explicitly requested",
            )

        # auto: capability filter, then the fixed preference order.
        candidates = sorted(
            (
                d
                for d in self.serving(kind)
                if d.supports_metric(metric)
                and not (spec.exact is False and d.exact)
            ),
            key=_preference_rank,
        )
        if not candidates:
            raise ValidationError(
                f"no registered backend serves {kind!r} queries under the "
                f"{metric.name!r} metric"
            )
        chosen = candidates[0]
        return BackendResolution(
            descriptor=chosen,
            candidates=tuple(d.name for d in candidates),
            reason=(
                "exact backend eligible (no ε-extras beats speed)"
                if chosen.exact
                else f"first eligible of {' → '.join(PREFERENCE)}, "
                "then registration order"
            ),
        )


# ----------------------------------------------------------------------
_DEFAULT: Optional[BackendRegistry] = None
_DEFAULT_LOCK = threading.Lock()


def default_registry() -> BackendRegistry:
    """The process-wide registry, with the built-in backends installed.

    Created lazily on first use (importing :mod:`repro` never pays for
    registration).  Custom backends register here to become visible to
    spec validation, the planner, the CLI and the serving layer alike.
    """
    global _DEFAULT
    if _DEFAULT is None:
        with _DEFAULT_LOCK:
            if _DEFAULT is None:
                registry = BackendRegistry()
                from .builtin import register_builtin_backends

                register_builtin_backends(registry)
                _DEFAULT = registry
    return _DEFAULT
