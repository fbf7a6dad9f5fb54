"""repro — durable patterns in temporal proximity graphs (PODS 2024).

A from-scratch reproduction of Agarwal, Hu, Sintos & Yang,
"On Reporting Durable Patterns in Temporal Proximity Graphs" (PODS 2024,
Proc. ACM Manag. Data 2(2) Art. 81): near-linear reporting of durable
triangles, cliques, paths and stars in implicitly-represented proximity
graphs, incremental reporting across durability thresholds, and
aggregate-durable pair reporting (SUM / UNION).

Quick start::

    import numpy as np
    from repro import TemporalPointSet, find_durable_triangles

    pts = np.random.default_rng(0).uniform(0, 4, size=(200, 2))
    starts = np.random.default_rng(1).uniform(0, 50, size=200)
    tps = TemporalPointSet(pts, starts, starts + 10, metric="l2")
    triangles = find_durable_triangles(tps, tau=5.0, epsilon=0.5)

See DESIGN.md for the paper-to-module map.
"""

from .errors import (
    BackendError,
    MetricError,
    ReproError,
    StructureError,
    ValidationError,
)
from .backends import (
    BackendDescriptor,
    BackendRegistry,
    default_registry,
)
from .temporal.interval import EMPTY_INTERVAL, Interval, intersect_many, union_length
from .temporal.interval_set import IntervalSet
from .types import PairRecord, PatternRecord, TemporalPointSet, TriangleRecord
from .core.triangles import DurableTriangleIndex
from .core.incremental import IncrementalTriangleSession
from .core.aggregate import SumPairIndex, UnionPairIndex
from .core.linf import LinfTriangleIndex
from .core.dynamic import DynamicTriangleStream
from .core.patterns import (
    PatternIndex,
    find_durable_cliques,
    find_durable_paths,
    find_durable_stars,
)
from .engine import (
    BatchResult,
    IndexCache,
    QueryEngine,
    QueryResult,
    QuerySpec,
)
from .api import (
    default_engine,
    find_durable_triangles,
    find_sum_durable_pairs,
    find_union_durable_pairs,
)
from .core.counting import count_durable_triangles
from .core.multi import MultiIntervalTriangleFinder

__version__ = "1.0.0"

__all__ = [
    # errors
    "BackendError",
    "MetricError",
    "ReproError",
    "StructureError",
    "ValidationError",
    # backend registry
    "BackendDescriptor",
    "BackendRegistry",
    "default_registry",
    # temporal primitives
    "EMPTY_INTERVAL",
    "Interval",
    "intersect_many",
    "union_length",
    "IntervalSet",
    # value types
    "PairRecord",
    "PatternRecord",
    "TemporalPointSet",
    "TriangleRecord",
    # indexes / sessions
    "DurableTriangleIndex",
    "IncrementalTriangleSession",
    "SumPairIndex",
    "UnionPairIndex",
    "LinfTriangleIndex",
    "DynamicTriangleStream",
    "PatternIndex",
    # batched engine
    "QueryEngine",
    "QuerySpec",
    "QueryResult",
    "BatchResult",
    "IndexCache",
    "default_engine",
    # one-call API
    "find_durable_triangles",
    "find_sum_durable_pairs",
    "find_union_durable_pairs",
    "find_durable_cliques",
    "find_durable_paths",
    "find_durable_stars",
    "count_durable_triangles",
    "MultiIntervalTriangleFinder",
    "__version__",
]
