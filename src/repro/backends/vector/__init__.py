"""The ``vector`` backend: structure-of-arrays numpy kernels.

Registered on the backend registry as ``backend="vector"`` (see
:func:`repro.backends.builtin.register_builtin_backends`).  Serves all
four shared-index families under ``ℓ_α`` metrics with the ``grid``
backend's records, in the same order, from flat-array structures
instead of per-point object graphs:

* :mod:`.soa` — the SoA snapshot + CSR grid-cell layout (cached per
  dataset fingerprint) and the blocked distance kernels;
* :mod:`.structure` — the array-backed durable-ball structure ``D``;
* :mod:`.indexes` — the four query-family indexes, every one
  maintainable across ingestion epoch bumps.
"""

from .indexes import (
    VectorPatternIndex,
    VectorSumPairIndex,
    VectorTriangleIndex,
    VectorUnionPairIndex,
)
from .soa import SoALayout, VectorGridDecomposition, layout_for
from .structure import VectorBallStructure

__all__ = [
    "SoALayout",
    "layout_for",
    "VectorGridDecomposition",
    "VectorBallStructure",
    "VectorTriangleIndex",
    "VectorSumPairIndex",
    "VectorUnionPairIndex",
    "VectorPatternIndex",
]
