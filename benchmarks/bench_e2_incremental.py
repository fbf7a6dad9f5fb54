"""E2 — Theorem 4.2: incremental reporting beats recomputation.

The session's delta cost is ``Õ(ε^{-O(ρ)}·OUT_Δ)`` — *independent of n* —
while any from-scratch query pays its ``Ω(n)`` anchor sweep.  The regime
that exposes the gap is therefore a fine, selective τ ladder on a larger
input: each step changes few triangles, so the session touches only the
activated anchors while both recompute comparators rescan everything.

Comparators:
* ``session``       — Section 4 (activation thresholds + delta reports);
* ``index-recompute`` — re-run Algorithm 1 per τ on the prebuilt index
  and diff (the honest same-machinery baseline);
* ``brute-recompute`` — numpy brute force per τ and diff.
"""

from repro.baselines import RecomputeIncrementalBaseline

from helpers import fresh_session, triangle_index, workload

N = 2000
FIRST_TAU = 19.0
LADDER = [18.0, 17.5, 17.0, 16.5, 16.0, 15.5, 15.0]


def test_session_ladder(benchmark):
    def setup():
        return (fresh_session(N, first_tau=FIRST_TAU),), {}

    def run(session):
        total = 0
        for tau in LADDER:
            total += len(session.query(tau))
        return total

    benchmark.group = "E2 incremental ladder (n=2000, selective)"
    out = benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    benchmark.extra_info["algorithm"] = "session"
    benchmark.extra_info["delta_results"] = out


def test_index_recompute_ladder(benchmark):
    idx = triangle_index(N)

    def run():
        seen = {r.key for r in idx.query(FIRST_TAU)}
        total = 0
        for tau in LADDER:
            full = idx.query(tau)
            fresh = [r for r in full if r.key not in seen]
            total += len(fresh)
            seen = {r.key for r in full}
        return total

    benchmark.group = "E2 incremental ladder (n=2000, selective)"
    out = benchmark.pedantic(run, rounds=3, iterations=1)
    benchmark.extra_info["algorithm"] = "index-recompute"
    benchmark.extra_info["delta_results"] = out


def test_brute_recompute_ladder(benchmark):
    tps = workload(N)

    def setup():
        base = RecomputeIncrementalBaseline(tps)
        base.query(FIRST_TAU)
        return (base,), {}

    def run(base):
        total = 0
        for tau in LADDER:
            total += len(base.query(tau))
        return total

    benchmark.group = "E2 incremental ladder (n=2000, selective)"
    out = benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    benchmark.extra_info["algorithm"] = "brute-recompute"
    benchmark.extra_info["delta_results"] = out


def test_session_build(benchmark):
    """One-off preprocessing cost (S_α construction, Õ(n·ε^{-O(ρ)}))."""
    from repro import IncrementalTriangleSession

    tps = workload(N)
    benchmark.group = "E2 session preprocessing (n=2000)"
    benchmark.pedantic(
        lambda: IncrementalTriangleSession(tps, epsilon=0.5), rounds=2, iterations=1
    )
