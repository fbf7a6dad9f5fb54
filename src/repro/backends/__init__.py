"""First-class backend registry with capability-ordered ``auto`` dispatch.

The interchangeable algorithm flavours of the paper — cover-tree vs
grid spatial decompositions (Appendix A vs Remark 1), approximate vs
ℓ∞-exact triangle reporting (Section 3 vs Appendix B) — register
capability descriptors here, and every consumer (planner, spec
validation, serving layer, CLI) dispatches through one registry instead
of scattered string checks:

* :class:`~repro.backends.descriptor.BackendDescriptor` — name, query
  kinds served, metric constraint, exactness guarantee, builder and
  cache-identity hooks;
* :class:`~repro.backends.registry.BackendRegistry` — registration,
  capability lookup, and the deterministic ``backend="auto"``
  resolution (an eligible exact backend first, else the first eligible
  of :data:`~repro.backends.registry.PREFERENCE`, else custom backends
  in registration order);
* :func:`~repro.backends.registry.default_registry` — the lazily
  created process-wide instance with the built-ins installed.
"""

from .descriptor import BackendDescriptor
from .registry import BackendRegistry, BackendResolution, default_registry

__all__ = [
    "BackendDescriptor",
    "BackendRegistry",
    "BackendResolution",
    "default_registry",
]
