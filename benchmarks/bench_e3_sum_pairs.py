"""E3 — Theorem 5.1: AggDurablePair-SUM in near-linear time.

Query time should track ``n + OUT`` (constant-density workload), and
the indexed algorithm should dominate the quadratic witness-scan brute
force well before n = 1000.  The ``ours`` rows time the plan's runner,
the column-block path a served query takes.
"""

import pytest

from repro.baselines import brute_sum_pairs
from repro.engine import QuerySpec
from repro.engine.planner import runner_for

from helpers import sum_index, workload

SIZES = [400, 800, 1600]
TAU = 8.0
RUN = runner_for(QuerySpec(kind="pairs-sum", taus=TAU))


@pytest.mark.parametrize("n", SIZES)
def test_sum_scaling(benchmark, n):
    idx = sum_index(n)
    benchmark.group = "E3 SUM pairs: n sweep"
    result = benchmark.pedantic(RUN, args=(idx, TAU), rounds=3, iterations=1)
    benchmark.extra_info["n"] = n
    benchmark.extra_info["out"] = len(result)


def test_sum_vs_brute(benchmark):
    tps = workload(400)
    benchmark.group = "E3 SUM pairs vs brute (n=400)"
    result = benchmark.pedantic(
        brute_sum_pairs, args=(tps, TAU), rounds=2, iterations=1
    )
    benchmark.extra_info["algorithm"] = "brute-force"
    benchmark.extra_info["out"] = len(result)


def test_sum_ours_at_brute_size(benchmark):
    idx = sum_index(400)
    benchmark.group = "E3 SUM pairs vs brute (n=400)"
    result = benchmark.pedantic(RUN, args=(idx, TAU), rounds=3, iterations=1)
    benchmark.extra_info["algorithm"] = "ours"
    benchmark.extra_info["out"] = len(result)
