"""E14 — density sweep: where the implicit representation wins.

Section 1.2's core argument: the explicit edge set can be quadratic in
``n``, so any materialisation-based method pays ``Ω(m)`` before looking
at durability.  Sweeping the expected unit-ball degree at fixed ``n``
shows the crossover: ours scales with ``n + OUT`` (τ fixed, selective),
the explicit lister with ``m^{3/2}``-ish static-triangle volume.
"""

import pytest

from repro import DurableTriangleIndex
from repro.baselines import explicit_graph_triangles
from repro.datasets import benchmark_workload

N = 700
TAU = 16.0  # selective: few durable triangles at any density


def _tps(density):
    return benchmark_workload(N, density=density, seed=1)


@pytest.mark.parametrize("density", [5, 20, 80])
def test_ours_density(benchmark, density):
    tps = _tps(density)
    idx = DurableTriangleIndex(tps, epsilon=0.5)
    benchmark.group = "E14 density sweep: ours (n=700, selective tau)"
    result = benchmark.pedantic(idx.query, args=(TAU,), rounds=3, iterations=1)
    benchmark.extra_info["density"] = density
    benchmark.extra_info["out"] = len(result)


@pytest.mark.parametrize("density", [5, 20, 80])
def test_explicit_density(benchmark, density):
    tps = _tps(density)
    benchmark.group = "E14 density sweep: explicit graph (n=700, selective tau)"
    result = benchmark.pedantic(
        explicit_graph_triangles, args=(tps, TAU), rounds=3, iterations=1
    )
    benchmark.extra_info["density"] = density
    benchmark.extra_info["out"] = len(result)
