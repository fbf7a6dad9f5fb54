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
are charged for the same work), records the bytes of each ``vector``
index's candidate map (built with the index, so its build time is in
the build figure), times two engine-path sweeps per ``vector`` family
through one :class:`~repro.engine.QueryEngine` — :data:`SWEEP_TAUS` τs
ascending, where every τ after the first is narrowed from the τ
frontier, then descending on a fresh cache entry, where the frontier
never hits — each τ one query plus its encoded ``records`` line, best
of ``--repeat`` like the other timings, and each line checked against
the direct block's bytes — times an append of :data:`APPEND_EVENTS` events through a
:class:`~repro.serve.registry.DatasetShard` whose entry keeps the
ascending sweep's frontier and the sweep's highest τ answered after it
(narrowed from the carried frontier), reports the vector-over-grid
speedups that justify ``vector`` leading ``auto``'s preference order
(and gates them at n ≥ 5000), and records what ``auto`` chooses per
shape and why.

Whatever ``--n`` is, a fixed ``maintenance`` block then times the four
``vector`` families' ``maintained()`` after an append of
:data:`APPEND_EVENTS` events against a fresh build of the merged set, on
each of :data:`MAINTENANCE_RUNGS`, and checks that every array the two
hold is equal.  It also times each family's ``carry`` of its block at
its first :data:`KIND_SPECS` τ into the maintained index, with the
anchors the carry reran and the anchors the append touched, and checks
the carried blocks against the fresh build's.  The bench fails when an
array or a block differs, or when maintenance on the largest rung costs
more than :data:`MAINTENANCE_GATE` of the build.

Before any timed block, the bench allocates and frees one array of
:data:`ALLOCATOR_WARMUP_BYTES`.  Until glibc has freed a block larger
than its mmap threshold (128 KiB at start), it serves every temporary
above that size with a fresh ``mmap`` and page faults on each use; the
first large free raises the threshold to that block's size, up to its
32 MiB cap.  Without the warm-up, a warm row's figure depended on what
the process happened to allocate and free before it.

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

import numpy as np

from repro import TemporalPointSet
from repro.backends import default_registry
from repro.backends import vector
from repro.datasets import benchmark_workload, workload_from_spec
from repro.engine import QueryEngine, QuerySpec, execute_plans
from repro.engine.planner import plan_query
from repro.serve.registry import DatasetShard
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

#: τs per engine-path sweep: the spec's first τ and up, 0.05 apart.
SWEEP_TAUS = 20

#: Events per timed append, as in one ``ingest-interleaved`` round.
APPEND_EVENTS = 5

#: Bytes of the array allocated and freed before any timed block: more
#: than any kernel temporary at the sizes benched, and under glibc's
#: 32 MiB cap on its dynamic mmap threshold.
ALLOCATOR_WARMUP_BYTES = 24 << 20


#: ``(n, dim)`` of each maintenance rung (``benchmark_workload``, seed 0):
#: dim 2 at three sizes, and dims 3 and 4, where a ±reach box holds the
#: most cells and a new cell reruns the most candidate rows.
MAINTENANCE_RUNGS = [(2000, 2), (8000, 2), (32000, 2), (2000, 3), (2000, 4)]

#: The largest share of a fresh four-family build that maintenance may
#: cost on the largest rung.
MAINTENANCE_GATE = 0.1

#: Timed repetitions per maintenance rung (median).
MAINTENANCE_REPEAT = 3

VECTOR_CLASSES = (
    vector.VectorTriangleIndex,
    vector.VectorSumPairIndex,
    vector.VectorUnionPairIndex,
    vector.VectorPatternIndex,
)


def _sweep_taus(spec):
    return [round(spec.taus[0] + 0.05 * i, 2) for i in range(SWEEP_TAUS)]


def _engine_sweeps(spec, tps, index, runner, repeat: int):
    """Best-of-``repeat`` ascending and descending engine-path sweeps of
    ``spec`` over :data:`SWEEP_TAUS` τs, plus the direct ``runner``
    counts per τ.

    Each sweep starts from a freshly built cache entry (the build is not
    timed, and it keeps no frontier) and runs one single-τ query per τ,
    encoding its ``records`` line.  Outside the timed loop, each line is
    compared with the line of the direct ``runner`` block at that τ.
    Returns ``{"up": (seconds, counts, bytes equal), "down": …}`` and
    the direct counts, ascending.
    """
    taus = _sweep_taus(spec)
    direct = [len(runner(index, tau)) for tau in taus]
    engine = QueryEngine()
    sweeps = {}
    for name, order in (("up", taus), ("down", taus[::-1])):
        best = float("inf")
        for _ in range(repeat):
            engine.reset()
            engine.get_index(tps, spec)
            counts, lines = [], []
            t0 = time.perf_counter()
            for tau in order:
                records = engine.run(tps, spec, taus=(tau,)).records_by_tau[tau]
                lines.append(records_line(0, tau, records))
                counts.append(len(records))
            best = min(best, time.perf_counter() - t0)
        equal = all(
            line == records_line(0, tau, runner(index, tau)) for tau, line in zip(order, lines)
        )
        sweeps[name] = (best, counts, equal)
    return sweeps, direct


def _copy(tps):
    """A fresh point-set object over the arrays of ``tps``."""
    return TemporalPointSet(tps.points, tps.starts, tps.ends, tps.metric)


def _append_events(tps, rng):
    """:data:`APPEND_EVENTS` events uniform in the box and time span of
    ``tps``, lifespans 0.5–5, as ``(points, starts, ends)``."""
    lo, hi = tps.points.min(axis=0), tps.points.max(axis=0)
    starts = rng.uniform(tps.starts.min(), tps.starts.max(), APPEND_EVENTS)
    return (
        rng.uniform(lo, hi, (APPEND_EVENTS, tps.dim)),
        starts,
        starts + rng.uniform(0.5, 5.0, APPEND_EVENTS),
    )


def _arrays(index):
    """Every array a query of ``index`` reads, by name."""
    lay, cmap = index.layout, index.candidates
    names = ("points", "starts", "ends", "cell_keys", "cell_of", "centers",
             "counts", "offsets", "order_id", "order_end")
    out = {name: getattr(lay, name) for name in names}
    out["indptr"], out["cells"] = cmap.indptr, cmap.cells
    profiles = getattr(index, "_profiles", None)
    if profiles is not None:
        for name in ("offsets", "times", "integral", "slopes", "ranks", "keys"):
            out[f"profiles.{name}"] = getattr(profiles, name)
    if hasattr(index, "_start_keys"):
        out["start_keys"], out["start_ranks"] = index._start_keys
    return out


def _same(mine, theirs):
    return all(
        a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
        for a, b in zip(mine.values(), theirs.values())
    ) and mine.keys() == theirs.keys()


def _carry_plans(tps):
    """Per family, the plan of its :data:`KIND_SPECS` entry at that
    entry's first τ, in :data:`VECTOR_CLASSES` order."""
    return [
        plan_query(0, QuerySpec(**{**spec, "taus": spec["taus"][:1]}, backend="vector"), tps)
        for spec in KIND_SPECS
    ]


def _maintenance(n, dim):
    """One maintenance rung: the median seconds of the four families'
    ``maintained()`` after an append and of a fresh build of the merged
    set, whether every array of the two is equal, and per family the
    carry of its block at its first :data:`KIND_SPECS` τ (median
    milliseconds, anchors rerun and touched) and whether the last
    repetition's carried blocks equal the fresh build's."""
    tps = benchmark_workload(n, dim=dim, seed=0)
    indexes = [cls(tps, 0.5) for cls in VECTOR_CLASSES]
    plans = _carry_plans(tps)
    blocks = [
        plan.runner(index, plan.spec.taus[0]) for plan, index in zip(plans, indexes)
    ]
    rng = np.random.default_rng(0)
    maintain_s, fresh_s, equal = [], [], True
    carries = {plan.spec.kind: [] for plan in plans}
    for _ in range(MAINTENANCE_REPEAT):
        # A new merged object per repetition, so nothing is memoised.
        merged = tps.with_events(*_append_events(tps, rng))
        t0 = time.perf_counter()
        maintained = [index.maintained(merged) for index in indexes]
        maintain_s.append(time.perf_counter() - t0)
        carried = []
        for plan, index, successor, block in zip(plans, indexes, maintained, blocks):
            tau, params = plan.spec.taus[0], (plan.spec.kappa, plan.spec.m)
            t0 = time.perf_counter()
            carried.append(successor.carry(block, tau, params, index))
            carries[plan.spec.kind].append((
                time.perf_counter() - t0,
                len(successor.reruns(tau)),
                len(successor.candidates.touched),
            ))
        fresh_tps = _copy(merged)
        t0 = time.perf_counter()
        fresh = [cls(fresh_tps, 0.5) for cls in VECTOR_CLASSES]
        fresh_s.append(time.perf_counter() - t0)
        equal &= all(_same(_arrays(a), _arrays(b)) for a, b in zip(maintained, fresh))
    carries_equal = all(
        _same_block(block, plan.runner(index, plan.spec.taus[0]))
        for plan, index, block in zip(plans, fresh, carried)
    )
    carry_figures = {}
    for kind, rows in carries.items():
        seconds, rerun, touched = np.median(np.asarray(rows), axis=0)
        carry_figures[kind] = {
            "carry_ms": seconds * 1e3,
            "rerun_anchors": int(rerun),
            "touched_anchors": int(touched),
        }
    return (
        float(np.median(maintain_s)),
        float(np.median(fresh_s)),
        equal,
        carry_figures,
        carries_equal,
    )


def _same_block(mine, theirs):
    """Whether two record blocks hold the same columns and dtypes."""
    return type(mine) is type(theirs) and _same(
        dict(enumerate(mine._columns())), dict(enumerate(theirs._columns()))
    )


def _maintenance_block():
    """The ``maintenance`` block over :data:`MAINTENANCE_RUNGS`, gated."""
    rungs = []
    for n, dim in MAINTENANCE_RUNGS:
        maintain_s, fresh_s, equal, carries, carries_equal = _maintenance(n, dim)
        rungs.append({
            "n": n,
            "dim": dim,
            "events": APPEND_EVENTS,
            "maintained_ms": maintain_s * 1e3,
            "fresh_ms": fresh_s * 1e3,
            "ratio": maintain_s / fresh_s,
            "arrays_equal": equal,
            "carries": carries,
            "carries_equal": carries_equal,
        })
        print(
            f"maintenance n={n:>6} dim={dim}: maintained {maintain_s * 1e3:7.1f} ms"
            f"  fresh {fresh_s * 1e3:7.1f} ms  ratio {maintain_s / fresh_s:6.3f}"
            f"  arrays {'equal' if equal else 'DIFFER'}  carries "
            + ", ".join(
                f"{kind} {c['carry_ms']:.2f} ms"
                f" ({c['rerun_anchors']}/{c['touched_anchors']})"
                for kind, c in carries.items()
            )
            + f" {'equal' if carries_equal else 'DIFFER'}",
            file=sys.stderr,
        )
    largest = max(rungs, key=lambda rung: rung["n"])
    failures = [
        f"arrays differ from a fresh build at n={r['n']} dim={r['dim']}"
        for r in rungs
        if not r["arrays_equal"]
    ] + [
        f"carried blocks differ from a fresh build's at n={r['n']} dim={r['dim']}"
        for r in rungs
        if not r["carries_equal"]
    ]
    if largest["ratio"] > MAINTENANCE_GATE:
        failures.append(
            f"maintenance at n={largest['n']} costs {largest['ratio']:.3f} of a"
            f" fresh build, above {MAINTENANCE_GATE}"
        )
    return {"gate_ratio": MAINTENANCE_GATE, "rungs": rungs, "failures": failures,
            "ok": not failures}


def _post_append(spec, tps):
    """One append, then one query, on a shard whose entry keeps the
    ascending sweep's frontier (its lowest τ).

    The :data:`APPEND_EVENTS` events are uniform in the dataset's box
    and time span, lifespans 0.5–5.  Returns the append's seconds, the
    seconds and record count of the sweep's highest τ answered after it
    (one query plus its encoded ``records`` line), and the direct
    ``plan.runner`` count on a fresh build of the merged set.
    """
    taus = _sweep_taus(spec)
    points, starts, ends = _append_events(tps, np.random.default_rng(0))
    events = [
        {"point": point, "start": start, "end": end}
        for point, start, end in zip(points.tolist(), starts.tolist(), ends.tolist())
    ]

    def serve(tau):
        one = dataclasses.replace(spec, taus=(tau,))
        (result,) = execute_plans([plan_query(0, one, shard.tps)], shard.cache)
        return result.records_by_tau[tau]

    shard = DatasetShard("bench", _copy(tps))
    try:
        serve(taus[0])
        t0 = time.perf_counter()
        shard.append_events(events)
        append_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        records = serve(taus[-1])
        records_line(0, taus[-1], records)
        query_s = time.perf_counter() - t0
        plan = plan_query(0, spec, _copy(shard.tps))
        direct = len(plan.runner(plan.builder(), taus[-1]))
    finally:
        shard.close()
    return append_s, query_s, len(records), direct


def _measure(spec, tps, repeat: int):
    """Best-of-``repeat`` build, cold-sweep, warm-sweep and served-sweep
    wall times.

    Each repetition plans ``spec`` on a fresh point-set object over the
    arrays of ``tps``, builds the plan's index, sweeps ``spec.taus`` on
    it, sweeps again on the same index, then sweeps once more encoding
    each τ's ``records`` line.  Also returns the records of one sweep
    and the last index built.
    """
    build_s = query_s = warm_s = served_s = float("inf")
    records = 0
    for _ in range(repeat):
        plan = plan_query(0, spec, _copy(tps))
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
    return build_s, query_s, warm_s, served_s, records, index


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

    # Raise glibc's mmap threshold once, so kernel temporaries come from
    # the heap in every timed block alike: the array is freed at once.
    np.empty(ALLOCATOR_WARMUP_BYTES, dtype=np.uint8)
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
                build_s, query_s, warm_s, served_s, records, index = _measure(
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
                line = (
                    f"{shape['name']:>13} {spec.kind:<11} {descriptor.name:<11}"
                    f" build {build_s * 1e3:8.1f} ms  query {query_s * 1e3:8.1f} ms"
                    f"  warm {warm_s * 1e3:8.1f} ms ({warm_us:7.1f} us/record)"
                    f"  served {served_s * 1e3:8.1f} ms ({served_us:7.1f} us/record)"
                )
                if descriptor.name == "vector":
                    # Every point's candidate cells, as CSR arrays.
                    cmap = index.candidates
                    row["candidate_map_bytes"] = cmap.indptr.nbytes + cmap.cells.nbytes
                    line += f"  map {row['candidate_map_bytes'] / 1024:7.1f} KiB"
                    vector_spec = dataclasses.replace(spec, backend="vector")
                    sweeps, direct = _engine_sweeps(
                        vector_spec, tps, index, plan_query(0, vector_spec, tps).runner,
                        args.repeat,
                    )
                    row["sweep_direct_records"] = direct
                    for name, (seconds, counts, equal) in sweeps.items():
                        us = seconds * 1e6 / max(sum(counts), 1)
                        row[f"sweep_{name}_us_per_record"] = us
                        row[f"sweep_{name}_records"] = counts
                        row[f"sweep_{name}_bytes_equal"] = equal
                        line += f"  sweep {name} {us:7.1f} us/record"
                        line += "" if equal else " (bytes DIFFER)"
                    append_s, post_s, post, post_direct = _post_append(vector_spec, tps)
                    row["append_ms"] = append_s * 1e3
                    row["post_append_us_per_record"] = post_s * 1e6 / max(post, 1)
                    row["post_append_records"] = post
                    row["post_append_direct_records"] = post_direct
                    line += (
                        f"  append {row['append_ms']:6.1f} ms, then"
                        f" {row['post_append_us_per_record']:7.1f} us/record"
                    )
                measurements.append(row)
                print(line, file=sys.stderr)

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

    maintenance = _maintenance_block()
    for failure in maintenance["failures"]:
        print(f"FAIL {failure}", file=sys.stderr)

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
        "maintenance": maintenance,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
    backends = sorted({m["backend"] for m in measurements})
    print(f"wrote {args.out}: {len(measurements)} measurements over "
          f"{len(backends)} backends")
    return 0 if maintenance["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
