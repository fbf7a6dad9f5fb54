"""E6 — Theorem B.3: exact ℓ∞ reporting in ``Õ(n + |T_τ|)``.

The exact backend's output is ``T_τ`` itself (no ε-extras); its time
should scale near-linearly and stay competitive with the approximate
cover-tree backend while returning strictly less.
"""

import pytest

from repro.baselines import brute_force_triangles

from helpers import TAU, linf_index, triangle_index, workload

SIZES = [400, 800, 1600]


@pytest.mark.parametrize("n", SIZES)
def test_linf_exact_scaling(benchmark, n):
    idx = linf_index(n)
    benchmark.group = "E6 linf exact: n sweep"
    result = benchmark.pedantic(idx.query, args=(TAU,), rounds=3, iterations=1)
    benchmark.extra_info["n"] = n
    benchmark.extra_info["out"] = len(result)


def test_linf_build(benchmark):
    from repro.core.linf import LinfTriangleIndex

    tps = workload(800, "linf")
    benchmark.group = "E6 linf exact: build (n=800)"
    benchmark.pedantic(lambda: LinfTriangleIndex(tps), rounds=2, iterations=1)


@pytest.mark.parametrize(
    "name",
    ["exact", "approx-cover-tree", "brute-force"],
)
def test_linf_vs_alternatives(benchmark, name):
    n = 800
    tps = workload(n, "linf")
    if name == "exact":
        idx = linf_index(n)
        fn = lambda: idx.query(TAU)
    elif name == "approx-cover-tree":
        idx = triangle_index(n, metric="linf")
        fn = lambda: idx.query(TAU)
    else:
        fn = lambda: brute_force_triangles(tps, TAU)
    benchmark.group = "E6 linf: exact vs approx vs brute (n=800)"
    result = benchmark.pedantic(fn, rounds=3, iterations=1)
    benchmark.extra_info["algorithm"] = name
    benchmark.extra_info["out"] = len(result)
