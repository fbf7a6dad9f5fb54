#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

Usage::

    python3 e2ebench/compare.py RUNS_A RUNS_B

Each argument is a directory of files, one per run, holding that run's
standard output (``e2ebench/run.py … > RUNS_A/warm-sweep-3.out``).  A is
the baseline (the parent commit), B the change.  Runs of one workload
pair up by seed, so alternate the two sides seed by seed.  For every
workload × end-to-end metric the tool prints each side's median and
quartiles, how many pairs B won, and a verdict, using the bounds in
``BENCHMARK.json``:

* ``improved``  — B wins at least nine tenths of the pairs and its
  median beats A's by more than A's own spread (quartile distance);
* ``unresolved`` — A's or B's spread exceeds the bound, unless every
  run of B beats every run of A;
* ``regressed`` — B's median is worse than A's by more than the bound;
* ``no worse``  — otherwise.

A gain is not claimed on a workload where B failed more operations
than A.  Metrics only one workload reports (the append figures of
``ingest-interleaved``) are printed without a verdict.  Exit status 1
when any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory: str) -> Dict[str, Dict[int, Tuple[dict, dict]]]:
    """workload → seed → (meta, result) for every run file in ``directory``."""
    runs: Dict[str, Dict[int, Tuple[dict, dict]]] = defaultdict(dict)
    for name in sorted(os.listdir(directory)):
        meta = result = None
        with open(os.path.join(directory, name)) as fh:
            for line in fh:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                doc = json.loads(line)
                if "meta" in doc:
                    meta = doc["meta"]
                elif "metrics" in doc:
                    result = doc
        if meta is not None and result is not None and not meta.get("trace"):
            runs[meta["workload"]][meta["seed"]] = (meta, result)
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: List[float], b: List[float], pairs: List[Tuple[float, float]],
            lower_better: bool, bound: float) -> Tuple[str, int]:
    sign = 1.0 if lower_better else -1.0

    def better(x: float, y: float) -> bool:
        return sign * (x - y) < 0

    wins = sum(1 for pa, pb in pairs if better(pb, pa))
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    a_spread = (a_q3 - a_q1) / abs(a_med) if a_med else 0.0
    b_spread = (b_q3 - b_q1) / abs(b_med) if b_med else 0.0
    gain = -sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    if pairs and wins >= 0.9 * len(pairs) and gain > a_spread:
        return "improved", wins
    if max(a_spread, b_spread) > bound and not all(better(x, y) for x in b for y in a):
        return "unresolved", wins
    if -gain > bound:
        return "regressed", wins
    return "no worse", wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    specs = {m["name"]: m for m in bench["end_to_end"]}
    runs_a, runs_b = load_runs(args.baseline), load_runs(args.change)
    regressed = False
    for workload in sorted(set(runs_a) & set(runs_b)):
        a_runs, b_runs = runs_a[workload], runs_b[workload]
        seeds = sorted(set(a_runs) & set(b_runs))
        failed_a = sum(r["failed"] for _, r in a_runs.values())
        failed_b = sum(r["failed"] for _, r in b_runs.values())
        print(f"{workload}: {len(a_runs)} vs {len(b_runs)} runs, {len(seeds)} pairs, "
              f"failed {failed_a} vs {failed_b}")
        names = list(specs) + sorted(
            {k for m, _ in b_runs.values() for k in m.get("end_to_end_all", {})} - set(specs))
        for name in names:
            def values(runs, seed_list=None):
                out = []
                for seed, (meta, result) in sorted(runs.items()):
                    if seed_list is not None and seed not in seed_list:
                        continue
                    if name in result["metrics"]:
                        out.append(result["metrics"][name]["value"])
                    elif name in meta.get("end_to_end_all", {}):
                        out.append(meta["end_to_end_all"][name])
                return out

            a, b = values(a_runs), values(b_runs)
            if not a or not b:
                continue
            pairs = list(zip(values(a_runs, seeds), values(b_runs, seeds)))
            qa, qb = quartiles(a), quartiles(b)
            row = (f"  {name:26s} A {qa[1]:11.4g} [{qa[0]:.4g}, {qa[2]:.4g}]"
                   f"  B {qb[1]:11.4g} [{qb[0]:.4g}, {qb[2]:.4g}]")
            spec = specs.get(name)
            if spec is None:
                print(f"{row}  (report only)")
                continue
            result, wins = verdict(a, b, pairs, spec["better"] == "lower", spec["bound"])
            if result == "improved" and failed_b > failed_a:
                result = "no gain: more failures"
            regressed |= result == "regressed"
            print(f"{row}  wins {wins}/{len(pairs)}  {result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
