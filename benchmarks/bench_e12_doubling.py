"""E12 — the ``ε^{-O(ρ)}`` dependence on doubling dimension.

Manifold workloads share the ambient dimension (6) but differ in
intrinsic dimension 1–3; canonical-ball counts and query time should
grow with the intrinsic (not ambient) dimension — the whole point of
parameterising by ρ instead of d.
"""

import pytest

from repro import DurableTriangleIndex
from repro.geometry import doubling_dimension_estimate

from helpers import manifold_workload

N = 800
TAU = 8.0


@pytest.mark.parametrize("intrinsic", [1, 2, 3])
def test_doubling_sweep(benchmark, intrinsic):
    tps = manifold_workload(N, intrinsic, ambient=6)
    idx = DurableTriangleIndex(tps, epsilon=0.5)
    benchmark.group = "E12 doubling dimension sweep (ambient=6, n=800)"
    result = benchmark.pedantic(idx.query, args=(TAU,), rounds=3, iterations=1)
    rho = doubling_dimension_estimate(tps.points, n_centers=12, seed=0)
    benchmark.extra_info["intrinsic_dim"] = intrinsic
    benchmark.extra_info["rho_estimate"] = round(rho, 2)
    benchmark.extra_info["groups"] = len(idx.structure.groups)
    benchmark.extra_info["out"] = len(result)
