"""E5 — Section 2.2 / Appendix A: the ε trade-off.

Smaller ε means more canonical balls (the ``ε^{-O(ρ)}`` factor in every
bound) but fewer spurious ε-triangles (tighter output).  This experiment
measures both sides: query time, canonical group count, and the
inflation ratio ``reported / |T_τ|``.
"""

import pytest

from repro.baselines import brute_force_triangle_keys

from helpers import TAU, triangle_index, workload

N = 800


@pytest.mark.parametrize("epsilon", [1.0, 0.5, 0.25, 0.125])
def test_epsilon_sweep(benchmark, epsilon):
    idx = triangle_index(N, epsilon=epsilon)
    benchmark.group = "E5 epsilon sweep (n=800)"
    result = benchmark.pedantic(idx.query, args=(TAU,), rounds=3, iterations=1)
    exact = len(brute_force_triangle_keys(workload(N), TAU))
    benchmark.extra_info["epsilon"] = epsilon
    benchmark.extra_info["groups"] = idx.layout.n_cells
    benchmark.extra_info["out"] = len(result)
    benchmark.extra_info["exact"] = exact
    benchmark.extra_info["inflation"] = round(len(result) / max(exact, 1), 3)
