"""E1 — Table 2 row 1 / Theorem 3.1: DurableTriangle scaling.

Claims under test:

* query time grows near-linearly in ``n`` when OUT ∝ n (constant
  density workload) — the ``Õ(n·ε^{-O(ρ)} + OUT)`` bound;
* the index beats the comparators whose cost ignores the durable output
  size: brute-force node-iterator, explicit-graph ``m^{3/2}`` listing,
  and the durable-join baseline (all exact, all super-linear).

The build and dense rows time the index the service runs (``auto``,
which the engine resolves to ``vector`` on ℓ2) beside the paper's
cover tree (``cover-tree``); ``extra_info["backend"]`` names the
backend that built it.
"""

import pytest

from repro import TemporalPointSet
from repro.baselines import (
    brute_force_triangles,
    durable_join_triangles,
    explicit_graph_triangles,
)
from repro.engine import QuerySpec
from repro.engine.planner import plan_query

from helpers import EPSILON, TAU, triangle_index, workload

SIZES = [400, 800, 1600, 3200]


def _plan(tps, tau, backend):
    """The engine's triangle plan over a fresh point-set object with the
    arrays of ``tps``: the ``vector`` layout and candidate map are
    memoised on the object, so each timed build needs its own."""
    spec = QuerySpec(kind="triangles", taus=tau, epsilon=EPSILON, backend=backend)
    return plan_query(0, spec, TemporalPointSet(tps.points, tps.starts, tps.ends, tps.metric))


@pytest.mark.parametrize("n", SIZES)
def test_ours_scaling(benchmark, n):
    idx = triangle_index(n)
    benchmark.group = "E1 ours: n sweep"
    result = benchmark.pedantic(idx.query, args=(TAU,), rounds=3, iterations=1)
    benchmark.extra_info["n"] = n
    benchmark.extra_info["out"] = len(result)


@pytest.mark.parametrize("backend", ["auto", "cover-tree"])
@pytest.mark.parametrize("n", SIZES)
def test_build_scaling(benchmark, n, backend):
    tps = workload(n)
    benchmark.group = "E1 ours: index build"
    benchmark.pedantic(
        lambda plan: plan.builder(),
        setup=lambda: ((_plan(tps, TAU, backend),), {}),
        rounds=3,
        iterations=1,
    )
    benchmark.extra_info["n"] = n
    benchmark.extra_info["backend"] = _plan(tps, TAU, backend).key.backend


@pytest.mark.parametrize("n", [800, 3200])
@pytest.mark.parametrize(
    "name,fn",
    [
        ("ours", None),
        ("brute-force", brute_force_triangles),
        ("explicit-graph", explicit_graph_triangles),
        ("durable-join", durable_join_triangles),
    ],
)
def test_vs_baselines(benchmark, n, name, fn):
    tps = workload(n)
    if name == "ours":
        idx = triangle_index(n)
        fn = lambda tps, tau: idx.query(tau)
    benchmark.group = f"E1 vs baselines, sparse (n={n})"
    result = benchmark.pedantic(fn, args=(tps, TAU), rounds=3, iterations=1)
    benchmark.extra_info["algorithm"] = name
    benchmark.extra_info["out"] = len(result)


def _dense_workload():
    """Section 1.2's hard regime: dense proximity neighbourhoods.

    Four tight communities make the explicit edge set (and its static
    triangle count) quadratic/cubic in the community size, while a
    selective τ keeps the durable output tiny — exactly where implicit
    output-sensitive reporting should dominate graph materialisation.
    """
    from repro import TemporalPointSet
    from repro.datasets import clustered_points, uniform_lifespans

    pts = clustered_points(
        600, n_clusters=4, box=20.0, cluster_std=0.25, seed=3
    )
    starts, ends = uniform_lifespans(600, horizon=60, max_len=20, seed=3)
    return TemporalPointSet(pts, starts, ends)


DENSE_TAU = 18.0


@pytest.mark.parametrize(
    "name",
    ["ours", "cover-tree", "brute-force", "explicit-graph", "durable-join"],
)
def test_dense_clusters(benchmark, name):
    tps = _dense_workload()
    if name in ("ours", "cover-tree"):
        plan = _plan(tps, DENSE_TAU, "auto" if name == "ours" else name)
        index = plan.builder()
        fn = lambda: plan.runner(index, DENSE_TAU)
        benchmark.extra_info["backend"] = plan.key.backend
    elif name == "brute-force":
        fn = lambda: brute_force_triangles(tps, DENSE_TAU)
    elif name == "explicit-graph":
        fn = lambda: explicit_graph_triangles(tps, DENSE_TAU)
    else:
        fn = lambda: durable_join_triangles(tps, DENSE_TAU)
    benchmark.group = "E1 vs baselines, dense clusters (n=600, selective tau)"
    result = benchmark.pedantic(fn, rounds=3, iterations=1)
    benchmark.extra_info["algorithm"] = name
    benchmark.extra_info["out"] = len(result)
