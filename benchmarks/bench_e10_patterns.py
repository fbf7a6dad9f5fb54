"""E10 — Appendix D.2: cliques, paths, and stars.

The pattern reporters share Algorithm 1's near-linear regime; their
extra cost is the wider search radius (paths, stars) and the output
itself (combinatorial for stars).
"""

import pytest

from repro.core.patterns import PatternIndex

from helpers import workload

N = 400
TAU = 8.0


@pytest.fixture(scope="module")
def pattern_index():
    return PatternIndex(workload(N), epsilon=0.5)


def test_cliques_m4(benchmark, pattern_index):
    benchmark.group = "E10 patterns (n=400)"
    result = benchmark.pedantic(
        lambda: list(pattern_index.iter_cliques(4, TAU)), rounds=3, iterations=1
    )
    benchmark.extra_info["out"] = len(result)


def test_paths_m3(benchmark, pattern_index):
    benchmark.group = "E10 patterns (n=400)"
    result = benchmark.pedantic(
        lambda: list(pattern_index.iter_paths(3, TAU)), rounds=3, iterations=1
    )
    benchmark.extra_info["out"] = len(result)


def test_stars_m4(benchmark, pattern_index):
    benchmark.group = "E10 patterns (n=400)"
    result = benchmark.pedantic(
        lambda: list(pattern_index.iter_stars(4, TAU)), rounds=3, iterations=1
    )
    benchmark.extra_info["out"] = len(result)


def test_star_summaries(benchmark, pattern_index):
    """The implicit star representation the paper reports (centers +
    witness sets) versus the full Cartesian expansion above."""
    benchmark.group = "E10 patterns (n=400)"
    result = benchmark.pedantic(
        lambda: pattern_index.star_summaries(4, TAU), rounds=3, iterations=1
    )
    benchmark.extra_info["out"] = len(result)
