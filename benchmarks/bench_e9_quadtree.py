"""E9 — Remark 1 / Theorem D.1: the quadtree backend for ℓ_α metrics.

Under ``ℓ_α`` the cover tree can be replaced by a one-level grid
decomposition with the same guarantees; this ablation compares the two
backends on identical workloads (build + query).
"""

import pytest

from repro import DurableTriangleIndex

from helpers import TAU, triangle_index, workload

N = 800


@pytest.mark.parametrize("backend", ["cover-tree", "grid"])
@pytest.mark.parametrize("metric", ["l2", "l1"])
def test_backend_query(benchmark, backend, metric):
    idx = triangle_index(N, backend=backend, metric=metric)
    benchmark.group = f"E9 backend query ({metric}, n=800)"
    result = benchmark.pedantic(idx.query, args=(TAU,), rounds=3, iterations=1)
    benchmark.extra_info["backend"] = backend
    benchmark.extra_info["metric"] = metric
    benchmark.extra_info["out"] = len(result)


@pytest.mark.parametrize("backend", ["cover-tree", "grid"])
def test_backend_build(benchmark, backend):
    tps = workload(N)
    benchmark.group = "E9 backend build (l2, n=800)"
    benchmark.pedantic(
        lambda: DurableTriangleIndex(tps, epsilon=0.5, backend=backend),
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["backend"] = backend
