"""Shared workload builders for the benchmark harness.

Workloads are cached per parameter tuple so pytest-benchmark rounds
measure only the operation under test, never data generation.  Index
construction goes through the same :class:`repro.engine.QueryEngine`
cache as the production path (``repro.api`` / ``python -m repro
batch``), so the bench harness measures exactly the code a serving
workload runs — and ``ENGINE.stats`` exposes how often a round reused
a preprocessing pass.

Sizes are chosen for pure Python: large enough that the predicted
shapes — slopes, crossovers, output-sensitivity — are visible, small
enough that the whole suite finishes in minutes.
"""

from __future__ import annotations

from functools import lru_cache

from repro import IncrementalTriangleSession, TemporalPointSet
from repro.datasets import benchmark_workload, manifold_points, uniform_lifespans
from repro.engine import QueryEngine, QuerySpec

#: Default durability threshold: selective but non-trivial on the
#: benchmark workload (lifespans are 1..20 on a horizon of 60).
TAU = 8.0
EPSILON = 0.5

#: One engine for the whole bench session; every ``*_index`` helper
#: below resolves through its shared-index cache.
ENGINE = QueryEngine()


@lru_cache(maxsize=None)
def workload(n: int, metric: str = "l2", density: float = 10.0, seed: int = 0):
    return benchmark_workload(n, density=density, seed=seed, metric=metric)


def triangle_index(n: int, epsilon: float = EPSILON, backend: str = "auto",
                   metric: str = "l2"):
    # exact=False keeps this the approximate solver even on ℓ∞
    # workloads (E6 benchmarks it against the exact one).
    spec = QuerySpec(
        kind="triangles", taus=TAU, epsilon=epsilon, backend=backend, exact=False
    )
    return ENGINE.get_index(workload(n, metric), spec)


def linf_index(n: int):
    spec = QuerySpec(kind="triangles", taus=TAU, backend="linf-exact")
    return ENGINE.get_index(workload(n, "linf"), spec)


def sum_index(n: int, sum_backend: str = "profile", backend: str = "auto"):
    spec = QuerySpec(
        kind="pairs-sum", taus=TAU, epsilon=EPSILON, backend=backend,
        sum_backend=sum_backend,
    )
    return ENGINE.get_index(workload(n), spec)


def union_index(n: int):
    # κ is a query-time parameter; any valid value yields the same index.
    spec = QuerySpec(kind="pairs-union", taus=TAU, kappa=1, epsilon=EPSILON)
    return ENGINE.get_index(workload(n), spec)


@lru_cache(maxsize=None)
def manifold_workload(n: int, intrinsic: int, ambient: int, seed: int = 0):
    pts = manifold_points(
        n, intrinsic_dim=intrinsic, ambient_dim=ambient, extent=_extent(n, intrinsic),
        seed=seed,
    )
    starts, ends = uniform_lifespans(n, horizon=60, max_len=20, seed=seed)
    return TemporalPointSet(pts, starts, ends, metric="l2")


def _extent(n: int, intrinsic: int, degree: float = 10.0) -> float:
    # Keep the expected unit-ball degree constant across intrinsic
    # dimensions: extent^d = n · vol(unit l2 ball in R^d) / degree.
    from math import gamma, pi

    ball_vol = pi ** (intrinsic / 2) / gamma(intrinsic / 2 + 1)
    return max((n * ball_vol / degree) ** (1.0 / intrinsic), 1.0)


def fresh_session(n: int, backend: str = "auto", first_tau: float = 16.0):
    """A new incremental session that has answered one initial query."""
    session = IncrementalTriangleSession(
        workload(n, "linf" if backend == "linf-exact" else "l2"),
        epsilon=EPSILON,
        backend=backend,
    )
    session.query(first_tau)
    return session
