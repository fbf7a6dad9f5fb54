#!/usr/bin/env python3
"""Per-backend build/query benchmark → ``BENCH_backends.json``.

A measurement, not a calibration: for every registered backend
eligible for a (dataset shape, query kind) pair, the bench builds the
index from scratch (no cache — builds are the point — and a fresh
point-set object per build, so nothing memoised on a dataset version,
such as the ``vector`` layout, carries over), times a τ-sweep
query on it (cold: anything an index builds lazily is charged here),
then the same sweep again (warm: what a cached index serves), and the
warm sweep once more with each τ's ``records`` line encoded by the serve
encoder (served: what a served query costs before the socket, so
backends that answer in columns and backends that build record objects
are charged for the same work), reports
the vector-over-grid speedups that justify ``vector`` leading
``auto``'s preference order (and gates them at n ≥ 5000), and records
what ``auto`` chooses per shape and why.

The output JSON is uploaded as a CI artifact next to ``BENCH_smoke.json``
and ``BENCH_serve.json``.

Usage::

    python benchmarks/bench_backends.py [--n 400] [--repeat 2]
                                        [--out BENCH_backends.json]
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import sys
import time

from repro import TemporalPointSet
from repro.backends import default_registry
from repro.datasets import workload_from_spec
from repro.engine import QuerySpec
from repro.engine.planner import plan_query
from repro.serve.server import records_line

#: Dataset shapes (≥ 2, per the acceptance criterion): a general ℓ2
#: cloud and an ℓ∞ cloud where the exact backend competes too.
SHAPES = [
    {"name": "uniform-l2", "workload": "uniform", "metric": "l2", "seed": 0},
    {"name": "uniform-linf", "workload": "uniform", "metric": "linf", "seed": 1},
]

#: One spec per index family; the τ-sweep sizes the per-report term.
KIND_SPECS = [
    {"kind": "triangles", "taus": [4.0, 8.0]},
    {"kind": "pairs-sum", "taus": [6.0, 10.0]},
    {"kind": "pairs-union", "taus": [6.0], "kappa": 3},
    {"kind": "cliques", "taus": [4.0], "m": 3},
]


def _measure(spec, tps, repeat: int):
    """Best-of-``repeat`` build, cold-sweep, warm-sweep and served-sweep
    wall times.

    Each repetition plans ``spec`` on a fresh point-set object over the
    arrays of ``tps``, builds the plan's index, sweeps ``spec.taus`` on
    it, sweeps again on the same index, then sweeps once more encoding
    each τ's ``records`` line.  Also returns the records of one sweep.
    """
    build_s = query_s = warm_s = served_s = float("inf")
    records = 0
    for _ in range(repeat):
        plan = plan_query(
            0, spec, TemporalPointSet(tps.points, tps.starts, tps.ends, tps.metric)
        )
        t0 = time.perf_counter()
        index = plan.builder()
        build_s = min(build_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        for tau in spec.taus:
            plan.runner(index, tau)
        query_s = min(query_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        records = sum(len(plan.runner(index, tau)) for tau in spec.taus)
        warm_s = min(warm_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        for tau in spec.taus:
            records_line(0, tau, plan.runner(index, tau))
        served_s = min(served_s, time.perf_counter() - t0)
    return build_s, query_s, warm_s, served_s, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=400, help="points per shape")
    parser.add_argument("--repeat", type=int, default=2,
                        help="timing repetitions (best-of)")
    parser.add_argument("--out", default="BENCH_backends.json")
    parser.add_argument(
        "--min-vector-speedup", type=float, default=5.0,
        help="required vector-over-grid build+query speedup (best shape); "
             "enforced only at --n >= 5000, where the SoA kernels have "
             "real batches to amortise over (0 disables the gate)",
    )
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error(f"--repeat must be >= 1, got {args.repeat}")
    if args.n < 10:
        parser.error(f"--n must be >= 10 for meaningful timings, got {args.n}")

    registry = default_registry()
    measurements = []
    auto_choices = {}
    for shape in SHAPES:
        spec_src = {k: v for k, v in shape.items() if k != "name"}
        tps = workload_from_spec({**spec_src, "n": args.n})
        auto_choices[shape["name"]] = {}
        for kind_spec in KIND_SPECS:
            spec = QuerySpec(**kind_spec)
            resolution = registry.resolve(spec, tps)
            auto_choices[shape["name"]][spec.kind] = {
                "chosen": resolution.name,
                "reason": resolution.reason,
            }
            for descriptor in registry.serving(spec.kind):
                if not descriptor.supports_metric(tps.metric):
                    continue
                # Builder and runner come from a plan, so the bench runs
                # exactly the dispatch surface production uses.
                build_s, query_s, warm_s, served_s, records = _measure(
                    dataclasses.replace(spec, backend=descriptor.name),
                    tps,
                    args.repeat,
                )
                warm_us = warm_s * 1e6 / max(records, 1)
                served_us = served_s * 1e6 / max(records, 1)
                row = {
                    "shape": shape["name"],
                    "kind": spec.kind,
                    "backend": descriptor.name,
                    "n": tps.n,
                    "dim": tps.dim,
                    "metric": tps.metric.name,
                    "n_taus": len(spec.taus),
                    "records": records,
                    "build_seconds": build_s,
                    "query_seconds": query_s,
                    "warm_query_seconds": warm_s,
                    # per sweep when the sweep reports nothing
                    "warm_us_per_record": warm_us,
                    "served_query_seconds": served_s,
                    "served_us_per_record": served_us,
                }
                measurements.append(row)
                print(
                    f"{shape['name']:>13} {spec.kind:<11} {descriptor.name:<11}"
                    f" build {build_s * 1e3:8.1f} ms  query {query_s * 1e3:8.1f} ms"
                    f"  warm {warm_s * 1e3:8.1f} ms ({warm_us:7.1f} us/record)"
                    f"  served {served_s * 1e3:8.1f} ms ({served_us:7.1f} us/record)",
                    file=sys.stderr,
                )

    # Vector-over-grid speedup ratios per (shape, kind): the SoA
    # backend's reason to lead auto's order, recorded so regressions
    # are visible in the artifact and gated below at n >= 5000.
    by_key = {(m["shape"], m["kind"], m["backend"]): m for m in measurements}
    speedups = {}
    for shape in SHAPES:
        for kind_spec in KIND_SPECS:
            grid = by_key.get((shape["name"], kind_spec["kind"], "grid"))
            vec = by_key.get((shape["name"], kind_spec["kind"], "vector"))
            if grid is None or vec is None:
                continue
            entry = {
                "build": grid["build_seconds"] / max(vec["build_seconds"], 1e-12),
                "query": grid["query_seconds"] / max(vec["query_seconds"], 1e-12),
                "build_plus_query": (
                    (grid["build_seconds"] + grid["query_seconds"])
                    / max(vec["build_seconds"] + vec["query_seconds"], 1e-12)
                ),
                # Both sides encode their records lines: the like-for-like
                # warm comparison now that vector answers in columns.
                "served": grid["served_query_seconds"]
                / max(vec["served_query_seconds"], 1e-12),
            }
            speedups.setdefault(shape["name"], {})[kind_spec["kind"]] = entry
            print(
                f"{shape['name']:>13} {kind_spec['kind']:<11} vector/grid"
                f" speedup: build {entry['build']:5.2f}x"
                f" query {entry['query']:5.2f}x"
                f" b+q {entry['build_plus_query']:5.2f}x"
                f" served {entry['served']:5.2f}x",
                file=sys.stderr,
            )
    best_speedup = max(
        (
            entry["build_plus_query"]
            for per_kind in speedups.values()
            for entry in per_kind.values()
        ),
        default=0.0,
    )
    if args.n >= 5000 and args.min_vector_speedup > 0:
        if best_speedup < args.min_vector_speedup:
            print(
                f"FAIL vector best build+query speedup over grid is "
                f"{best_speedup:.2f}x at n={args.n}, required "
                f">= {args.min_vector_speedup:.2f}x",
                file=sys.stderr,
            )
            return 1
        print(
            f"vector speedup gate OK: best build+query {best_speedup:.2f}x "
            f">= {args.min_vector_speedup:.2f}x",
            file=sys.stderr,
        )

    payload = {
        "bench": "backends",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "n": args.n,
        "repeat": args.repeat,
        "shapes": SHAPES,
        "measurements": measurements,
        "vector_speedup_over_grid": speedups,
        "best_vector_speedup": best_speedup,
        "auto_choices": auto_choices,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
    backends = sorted({m["backend"] for m in measurements})
    print(f"wrote {args.out}: {len(measurements)} measurements over "
          f"{len(backends)} backends")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
