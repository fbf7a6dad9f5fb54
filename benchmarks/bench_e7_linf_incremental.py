"""E7 — Theorem B.4: exact ℓ∞ incremental reporting.

The delta cost should track ``|T_{τ_{i+1}} \\ T_{τ_i}|`` exactly — the
exact counterpart of E2, without the ε slack.
"""

from repro.baselines import RecomputeIncrementalBaseline

from helpers import fresh_session, workload

N = 700
LADDER = [12.0, 10.0, 8.0, 6.0, 4.0]


def test_linf_session_ladder(benchmark):
    def setup():
        return (fresh_session(N, backend="linf-exact", first_tau=16.0),), {}

    def run(session):
        total = 0
        for tau in LADDER:
            total += len(session.query(tau))
        return total

    benchmark.group = "E7 linf incremental ladder (n=700)"
    out = benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    benchmark.extra_info["delta_results"] = out


def test_linf_recompute_ladder(benchmark):
    tps = workload(N, "linf")

    def setup():
        base = RecomputeIncrementalBaseline(tps)
        base.query(16.0)
        return (base,), {}

    def run(base):
        total = 0
        for tau in LADDER:
            total += len(base.query(tau))
        return total

    benchmark.group = "E7 linf incremental ladder (n=700)"
    out = benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    benchmark.extra_info["delta_results"] = out
