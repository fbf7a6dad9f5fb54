"""E13 — micro-ablations.

* ``ITΣ`` (paper-faithful annotated interval tree, ``O(log² n)``) vs the
  coverage profile (``O(log n)``) on the ``ComputeSumD`` primitive and
  end-to-end on ``ReportSUMPair``;
* the delay-guaranteed enumerator (Remark 2): maximum inter-yield work
  stays flat while ``n`` grows.

Both end-to-end rows run on ``grid``: it is the backend whose
``sum_backend`` really selects ``ITΣ`` or the profile (``vector``
always scores through profile arrays, so both choices would time one
index), and whose durable-ball structure the enumerator walks.
"""

import numpy as np
import pytest

from repro.core.enumeration import DelayGuaranteedEnumerator
from repro.temporal import AnnotatedIntervalTree, CoverageProfile

from helpers import TAU, sum_index, triangle_index


def _random_intervals(n, seed=0):
    rng = np.random.default_rng(seed)
    starts = rng.uniform(0, 1000, size=n)
    return [(float(s), float(s + l)) for s, l in zip(starts, rng.uniform(0, 100, n))]


@pytest.mark.parametrize("cls", [AnnotatedIntervalTree, CoverageProfile])
def test_compute_sum_primitive(benchmark, cls):
    ivs = _random_intervals(4000)
    struct = cls(ivs)
    rng = np.random.default_rng(1)
    queries = [(float(a), float(a + w)) for a, w in
               zip(rng.uniform(0, 1000, 200), rng.uniform(1, 200, 200))]

    def run():
        return sum(struct.sum_intersections(a, b) for a, b in queries)

    benchmark.group = "E13 ComputeSumD primitive (4000 intervals, 200 queries)"
    benchmark(run)
    benchmark.extra_info["structure"] = cls.__name__


@pytest.mark.parametrize("sum_backend", ["profile", "tree"])
def test_sum_pair_end_to_end(benchmark, sum_backend):
    idx = sum_index(800, sum_backend=sum_backend, backend="grid")
    benchmark.group = "E13 ReportSUMPair backend ablation (n=800)"
    result = benchmark.pedantic(idx.query, args=(TAU,), rounds=3, iterations=1)
    benchmark.extra_info["sum_backend"] = sum_backend
    benchmark.extra_info["out"] = len(result)


@pytest.mark.parametrize("n", [400, 800, 1600])
def test_delay_guarantee(benchmark, n):
    idx = triangle_index(n, backend="grid")

    def run():
        enum = DelayGuaranteedEnumerator(idx, TAU)
        count = sum(1 for _ in enum)
        return enum, count

    benchmark.group = "E13 delay-guaranteed enumeration"
    enum, count = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["n"] = n
    benchmark.extra_info["out"] = count
    benchmark.extra_info["max_delay_ops"] = enum.max_delay_ops
