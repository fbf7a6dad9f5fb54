"""E11 — output sensitivity: time tracks OUT as τ varies.

At fixed ``n`` the index cost is ``c·n + d·OUT``: sweeping τ from
permissive to selective should show time falling with the output count,
while the explicit-graph baseline stays flat (it always lists every
static triangle first).
"""

import pytest

from repro.baselines import explicit_graph_triangles

from helpers import triangle_index, workload

N = 1000
TAUS = [2.0, 4.0, 8.0, 16.0]


@pytest.mark.parametrize("tau", TAUS)
def test_ours_tau_sweep(benchmark, tau):
    idx = triangle_index(N)
    benchmark.group = "E11 tau sweep: ours (n=1000)"
    result = benchmark.pedantic(idx.query, args=(tau,), rounds=3, iterations=1)
    benchmark.extra_info["tau"] = tau
    benchmark.extra_info["out"] = len(result)


@pytest.mark.parametrize("tau", [2.0, 16.0])
def test_explicit_graph_tau_sweep(benchmark, tau):
    tps = workload(N)
    benchmark.group = "E11 tau sweep: explicit graph (n=1000)"
    result = benchmark.pedantic(
        explicit_graph_triangles, args=(tps, tau), rounds=3, iterations=1
    )
    benchmark.extra_info["tau"] = tau
    benchmark.extra_info["out"] = len(result)
