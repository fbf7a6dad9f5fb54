"""E8 — Theorem C.1: the dynamic setting.

Replaying the full lifespan event stream should cost near-linear total
time (``O(log³ n)`` amortised per update plus output), so the per-event
cost should grow only polylogarithmically with ``n``.
"""

import pytest

from repro import DynamicTriangleStream

from helpers import TAU, workload

SIZES = [300, 600, 1200]


@pytest.mark.parametrize("n", SIZES)
def test_stream_replay(benchmark, n):
    tps = workload(n)

    def run():
        stream = DynamicTriangleStream(tps, TAU, epsilon=0.5)
        recs = stream.run()
        return stream, recs

    benchmark.group = "E8 dynamic stream replay"
    stream, recs = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["n"] = n
    benchmark.extra_info["out"] = len(recs)
    benchmark.extra_info["group_rebuilds"] = stream.structure.n_group_rebuilds
    benchmark.extra_info["full_rebuilds"] = stream.structure.n_full_rebuilds


def test_offline_reference(benchmark):
    """Offline Algorithm 1 on the same workload, for the online premium."""
    from helpers import triangle_index

    idx = triangle_index(600)
    benchmark.group = "E8 offline reference (n=600)"
    result = benchmark.pedantic(idx.query, args=(TAU,), rounds=3, iterations=1)
    benchmark.extra_info["out"] = len(result)
