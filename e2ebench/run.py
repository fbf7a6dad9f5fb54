#!/usr/bin/env python3
"""The repository benchmark: one command, three served workloads.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload warm-sweep --seed 1 --seconds 20 --trace 0

It boots the program as users run it — ``python -m repro serve`` or
``python -m repro route`` from ``src/`` — as separate processes, drives
the named workload from this process (closed loop, at most two client
threads and two connections), checks every answer, and prints as its
last stdout line::

    {"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value", "unit"}}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
measured with no benchmark timers in the program.  ``--trace 1``
measures the workload twice, for half the time each — untraced, then
with the layer timers of ``e2ebench/hook`` installed in every ``repro``
process — and reports the per-layer metrics plus the timers' overhead.
The line before the result is ``{"meta": …}`` (seed, commit, versions,
sizes, pids); the full result and the traced-run layer report are
written under ``.e2ebench/<workload>-s<seed>-t<trace>/`` after the run
ends.

Set-up (boot, register, first touch of every index the workload uses)
is measured five times per ``--trace 0`` run and reported as the
median, each on a fresh process tree; the last tree serves the load.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from client import Client, Op, timed_query
from fleet import BootError, Fleet, metrics_text, spans_files
from workloads import DATASET, WORKLOADS, percentile, run_load, tau_repeat_share

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5
#: Trace ids of the requests outside the measured window.
SETUP_TRACE_ID = "5e7" + "0" * 29
IDENTITY_TRACE_IDS = ("1d" + "0" * 29 + "1", "1d" + "0" * 29 + "2")


@dataclass
class Phase:
    """One measured stretch on one booted process tree."""

    setup_s: List[float]
    first_touch: Any
    load: Any
    cpu_s: float
    rss_mb: float
    pids: List[int]
    metrics_before: str
    metrics_after: str
    span_files: Dict[int, str] = field(default_factory=dict)
    identity: Any = None


def set_up(fleet, wl, spec):
    """Register the dataset and touch every index the workload uses."""
    status, doc = fleet.request("POST", "/datasets", {"name": DATASET, "dataset": spec})
    if status != 201:
        raise BootError(f"register answered HTTP {status}: {doc}")
    client = Client(fleet.host, fleet.port)
    try:
        op = timed_query(client, Op("query", -1, 0, SETUP_TRACE_ID, 0.0), DATASET,
                         wl.first_touch_batch(), wl.include_records, keep_ids=False)
    finally:
        client.close()
    if not op.ok:
        raise BootError(f"first touch failed: {op.error}")
    return op


def identity_check(fleet, wl, load, oracle, out_dir):
    """Register the merged point set afresh and compare it with the
    appended dataset: same size, same answers to the same batch."""
    op = Op("identity", 0, 0, "", time.perf_counter())
    merged = oracle.version(load.events)
    path = os.path.join(out_dir, "merged.csv")
    oracle.write_csv(path, merged)
    fresh = DATASET + "-fresh"
    status, doc = fleet.request("POST", "/datasets",
                                {"name": fresh, "dataset": {"csv": path}})
    queries = next((o.payload for o in reversed(load.ops) if o.kind == "query"),
                   wl.first_touch_batch())
    client = Client(fleet.host, fleet.port)
    try:
        served, again = (
            timed_query(client, Op("query", 0, 0, trace_id, 0.0), name, queries,
                        True, keep_ids=True)
            for name, trace_id in zip((DATASET, fresh), IDENTITY_TRACE_IDS))
    finally:
        client.close()
    _, listing = fleet.request("GET", "/datasets")
    sizes = {d["name"]: d["n"] for d in listing.get("datasets", [])}
    op.t1 = time.perf_counter()
    op.payload = queries
    if status != 201:
        op.error = f"fresh registration answered HTTP {status}: {doc}"
    elif not (served.ok and again.ok):
        op.error = served.error or again.error
    elif not sizes.get(DATASET) == sizes.get(fresh) == merged.n:
        op.error = f"sizes differ: {sizes}, merged n={merged.n}"
    elif served.ids != again.ids:
        op.error = "appended dataset answers differ from a fresh registration"
    else:
        op.ok = True
        op.records = served.records
    return op


def run_phase(wl, spec, seed, seconds, setups, oracle, out_dir, span_dir=None):
    """Set up ``setups`` times (keeping the last process tree), then
    drive the workload on it for ``seconds``."""
    setup_s = []
    fleet = None
    for i in range(setups):
        t0 = time.perf_counter()
        fleet = Fleet(ROOT, wl.command, wl.command_args, span_dir)
        try:
            first = set_up(fleet, wl, spec)
        except BaseException:
            fleet.stop()
            raise
        setup_s.append(time.perf_counter() - t0)
        if i + 1 < setups:
            fleet.stop()
    identity = None
    try:
        before = metrics_text(fleet)
        cpu0 = fleet.cpu_seconds()
        points = oracle.base.points
        load = run_load(wl, fleet.host, fleet.port, seconds, seed,
                        (float(points.min()), float(points.max())), oracle.base.dim)
        cpu1 = fleet.cpu_seconds()
        rss = fleet.peak_rss_mb()
        after = metrics_text(fleet)
        if wl.appends:
            identity = identity_check(fleet, wl, load, oracle, out_dir)
    finally:
        fleet.stop()
    phase = Phase(setup_s, first, load, cpu1 - cpu0, rss, fleet.pids, before, after,
                  identity=identity)
    if span_dir is not None:
        phase.span_files = spans_files(span_dir, fleet.pids)
    return phase


def end_to_end(wl, phase: Phase) -> Dict[str, float]:
    """The user-visible numbers of one untraced phase."""
    ops = phase.load.ops
    window = phase.load.t_end - phase.load.t_start
    done = [op for op in ops if op.ok]
    queries = [op.wall * 1e3 for op in done if op.kind == "query"]
    appends = [op for op in done if op.kind == "append"]
    out = {
        "setup_s": statistics.median(phase.setup_s),
        "throughput_rps": len(done) / window,
        "latency_p50_ms": percentile(queries, 0.50),
        "latency_p95_ms": percentile(queries, 0.95),
        "records_per_s": sum(op.records for op in done if op.kind == "query") / window,
        "server_cpu_ms_per_req": phase.cpu_s * 1e3 / max(1, len(ops)),
        "peak_rss_mb": phase.rss_mb,
    }
    if wl.appends:
        # Every query of this workload follows an append, so its query
        # latency *is* the post-append query latency.
        out["post_append_query_p50_ms"] = out["latency_p50_ms"]
        out["append_p50_ms"] = percentile([op.wall * 1e3 for op in appends], 0.50)
        out["append_events_per_s"] = sum(op.records for op in appends) / window
    return out


def plant_wrong_answer(op) -> None:
    """Add a record that was never served (or bump one count)."""
    if op.ids is not None:
        op.ids[0].add((-1, -1, -1))
    else:
        kind, tau, count, *rest = op.results[0]
        op.results[0] = (kind, tau, count + 1, *rest)


def source_digest() -> str:
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small datasets, one set-up (self-checks only)")
    parser.add_argument("--plant-wrong-answer", action="store_true",
                        help="corrupt one sampled answer before verification "
                             "(self-checks only: failed must rise)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy

    import layers
    from verify import Oracle, verify_ops

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = os.path.join(ROOT, ".e2ebench",
                           f"{wl.name}-s{args.seed}-t{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    spec = wl.dataset_spec(args.tiny)
    oracle = Oracle(spec)
    setups = 1 if args.tiny or args.trace else SETUP_REPEATS
    # The traced run splits its time between the untraced and the
    # traced phase, so it costs no more than an end-to-end run.
    seconds = args.seconds / 2 if args.trace else args.seconds

    plain = run_phase(wl, spec, args.seed, seconds, setups, oracle, out_dir)
    traced = None
    if args.trace:
        span_dir = os.path.join(out_dir, "spans")
        os.makedirs(span_dir)
        traced = run_phase(wl, spec, args.seed, seconds, 1, oracle, out_dir,
                           span_dir=span_dir)

    checked = [plain] + ([traced] if traced else [])
    ops = [op for phase in checked for op in phase.load.ops]
    ops += [phase.identity for phase in checked if phase.identity is not None]
    sampled = {id(phase): [op for op in phase.load.ops if op.sampled and op.ok]
               for phase in checked}
    if args.plant_wrong_answer and sampled[id(plain)]:
        plant_wrong_answer(sampled[id(plain)][0])
    problems = []
    for phase in checked:
        problems += verify_ops(oracle, sampled[id(phase)], phase.load.events)
    failed = [op for op in ops if not op.ok]

    e2e = end_to_end(wl, plain)
    report = None
    values = e2e
    if traced is not None:
        report = layers.report(wl, traced, end_to_end(wl, traced)["latency_p50_ms"],
                               e2e["latency_p50_ms"])
        values = report["metrics"]
    bench = layers.benchmark()
    listed = bench["per_layer" if args.trace else "end_to_end"]

    meta = {
        "workload": wl.name,
        "why": next(w["why"] for w in bench["workloads"] if w["name"] == wl.name),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "dataset": {**spec, "n_final": oracle.version(plain.load.events).n},
        "tau_repeat_share": tau_repeat_share(plain.load.ops),
        "serving_pids": {("traced" if p is traced else "untraced"): p.pids
                         for p in checked},
        "setup_s_samples": plain.setup_s,
        "query_samples": sum(1 for op in plain.load.ops if op.kind == "query"),
        "latency_p95_valid": sum(1 for op in plain.load.ops if op.kind == "query") >= 200,
        "failed_frac": len(failed) / max(1, len(ops)),
        "verified_ops": sum(len(picked) for picked in sampled.values()),
        "untimed_entry_points": report["untimed_entry_points"] if report else [],
        "problems": problems + [f"{op.kind} #{op.seq}: {op.error}" for op in failed
                                if op.error and not op.error.startswith("oracle")][:20],
        "end_to_end_all": e2e,
    }
    timeline = [[op.kind, round(op.t0 - plain.load.t_start, 4), round(op.wall * 1e3, 3),
                 op.records, op.ok] for op in plain.load.ops]
    result = {
        "correct": not failed and bool(sampled[id(plain)]),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump({"meta": meta, "result": result, "untraced_ops": timeline}, fh)
    if report is not None:
        with open(os.path.join(out_dir, "layers.json"), "w") as fh:
            json.dump(report, fh, indent=2)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
