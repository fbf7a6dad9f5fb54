#!/usr/bin/env python3
"""Self-checks of the benchmark itself, at tiny sizes (under a minute).

Usage (from the root of a checkout)::

    python3 e2ebench/selfcheck.py

1. Every workload runs end to end, untraced and traced, and is correct
   with no failed operation.
2. The metric names each mode prints are exactly ``BENCHMARK.json``'s
   ``end_to_end`` (``--trace 0``) or ``per_layer`` (``--trace 1``) list,
   with the listed units and numeric values.
3. A planted wrong answer — a record added to a served answer, or one
   count bumped on the counts-only workload — makes the run
   incorrect and raises ``failed``: verification is not vacuous.
4. In a directory holding only ``BENCHMARK.json`` and ``e2ebench/``
   (no program), the benchmark exits non-zero without a result.

Exit status 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"


def run(args: List[str], cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("e2ebench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    result: Optional[dict] = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc, result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    failures: List[str] = []

    def check(ok: bool, message: str) -> None:
        print(("ok   " if ok else "FAIL ") + message)
        if not ok:
            failures.append(message)

    for workload in (w["name"] for w in bench["workloads"]):
        for trace, listed in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            label = f"{workload} --trace {trace}"
            proc, result = run(["--workload", workload, "--seed", "3",
                                "--seconds", SECONDS, "--trace", trace, "--tiny"])
            if proc.returncode != 0 or result is None:
                check(False, f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{label}: correct={result['correct']} failed={result['failed']} "
                  f"attempted={result['attempted']}")
            metrics = result["metrics"]
            check(list(metrics) == [m["name"] for m in listed],
                  f"{label}: metric names match BENCHMARK.json")
            check(all(metrics[m["name"]]["unit"] == m["unit"]
                      and isinstance(metrics[m["name"]]["value"], (int, float))
                      for m in listed if m["name"] in metrics),
                  f"{label}: units and numeric values")

    for workload in ("warm-sweep", "routed-chatty"):
        proc, result = run(["--workload", workload, "--seed", "3", "--seconds", SECONDS,
                            "--trace", "0", "--tiny", "--plant-wrong-answer"])
        check(proc.returncode == 0 and result is not None and not result["correct"]
              and result["failed"] >= 1,
              f"{workload}: a planted wrong answer is caught "
              f"(failed={result and result['failed']})")

    bare = os.path.join(ROOT, ".e2ebench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "e2ebench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc, result = run(["--workload", "warm-sweep", "--seed", "1", "--seconds", SECONDS,
                        "--trace", "0"], cwd=bare)
    check(proc.returncode != 0 and (result is None or "metrics" not in result),
          f"without the program: exit {proc.returncode}, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failed check(s)" if failures else "all self-checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
