"""E4 — Theorem 5.2: AggDurablePair-UNION, linear dependence on κ.

The bound is ``Õ(κ·ε^{-O(ρ)}·(n + OUT))``: doubling the witness budget
should roughly double the per-pair greedy cost (modulo early success
exits), while the reported set grows monotonically with κ.  The
``ours`` rows time the plan's runner, the column-block path a served
query takes.
"""

import pytest

from repro.baselines import brute_union_pairs
from repro.engine import QuerySpec
from repro.engine.planner import runner_for

from helpers import union_index, workload

N = 600
TAU = 8.0


def _run(kappa):
    """The served UNION query with budget ``kappa`` at one τ on an
    index: a column block."""
    return runner_for(QuerySpec(kind="pairs-union", taus=TAU, kappa=kappa))


@pytest.mark.parametrize("kappa", [1, 2, 4, 8])
def test_union_kappa_sweep(benchmark, kappa):
    idx = union_index(N)
    benchmark.group = "E4 UNION pairs: kappa sweep (n=600)"
    result = benchmark.pedantic(
        _run(kappa), args=(idx, TAU), rounds=3, iterations=1
    )
    benchmark.extra_info["kappa"] = kappa
    benchmark.extra_info["out"] = len(result)


@pytest.mark.parametrize("n", [300, 600, 1200])
def test_union_n_sweep(benchmark, n):
    idx = union_index(n)
    benchmark.group = "E4 UNION pairs: n sweep (kappa=3)"
    result = benchmark.pedantic(_run(3), args=(idx, TAU), rounds=3, iterations=1)
    benchmark.extra_info["n"] = n
    benchmark.extra_info["out"] = len(result)


def test_union_vs_brute(benchmark):
    tps = workload(300)
    benchmark.group = "E4 UNION pairs vs brute (n=300)"
    result = benchmark.pedantic(
        brute_union_pairs, args=(tps, TAU, 3), rounds=2, iterations=1
    )
    benchmark.extra_info["algorithm"] = "brute-DP"
    benchmark.extra_info["out"] = len(result)


def test_union_ours_at_brute_size(benchmark):
    idx = union_index(300)
    benchmark.group = "E4 UNION pairs vs brute (n=300)"
    result = benchmark.pedantic(_run(3), args=(idx, TAU), rounds=3, iterations=1)
    benchmark.extra_info["algorithm"] = "ours"
    benchmark.extra_info["out"] = len(result)
