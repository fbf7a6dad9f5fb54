"""The ``vector`` backend: structure-of-arrays numpy kernels.

Registered on the backend registry as ``backend="vector"`` (see
:func:`repro.backends.builtin.register_builtin_backends`).  Serves all
four shared-index families under ``ℓ_α`` metrics with the ``grid``
backend's records, in the same order, from flat arrays instead of
per-point object graphs:

* :mod:`.soa` — the SoA snapshot + CSR grid-cell layout (one per
  dataset version and ε, memoised on the point set) and the blocked
  distance kernels;
* :mod:`.indexes` — the four query-family indexes, each holding its
  point set, ε and that layout, and answering in columns
  (:class:`~repro.blocks.RecordBlock`) until a caller reads records.
"""

from .indexes import (
    VectorPatternIndex,
    VectorSumPairIndex,
    VectorTriangleIndex,
    VectorUnionPairIndex,
)
from .soa import SoALayout, layout_for

__all__ = [
    "SoALayout",
    "layout_for",
    "VectorTriangleIndex",
    "VectorSumPairIndex",
    "VectorUnionPairIndex",
    "VectorPatternIndex",
]
