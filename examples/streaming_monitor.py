#!/usr/bin/env python3
"""Appendix C — monitoring durable triangles over a live stream.

Points are not known upfront: they appear at the start of their lifespan
and disappear at its end.  The dynamic structure reports each τ-durable
triangle the moment its anchor has been alive for τ ("maturity"), with
polylogarithmic amortised update cost (Theorem C.1).

The second half drives the same event stream through the *served* path:
a seed prefix is registered on a local serve instance and the remaining
points are replayed as NDJSON batches through
``POST /datasets/<name>/events`` — the epoch bumps per batch, the
triangle index (the ``vector`` backend that ``auto`` picks) is
maintained incrementally across epochs, and the final served report is
checked against both the streamed report (same must/may bounds) and a
direct offline run over the merged point set (record-set identity).

Run:  python examples/streaming_monitor.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"),
)

import numpy as np

from repro import DynamicTriangleStream
from repro.baselines import triangle_bounds
from repro.datasets import benchmark_workload

TAU, EPSILON = 6.0, 0.5
BATCH = 50


def run_stream(tps):
    """The original Appendix C replay: report triangles at maturity."""
    stream = DynamicTriangleStream(tps, TAU, epsilon=EPSILON)
    live = 0
    reported = []
    peak = 0
    for ev in stream.events():
        if ev.kind == "activate":
            live += 1
            peak = max(peak, live)
            if ev.triangles:
                reported.extend(ev.triangles)
                if len(reported) <= 5 or len(ev.triangles) >= 8:
                    print(
                        f"  t = {ev.time:6.2f}: point {ev.point:>3} matured, "
                        f"{len(ev.triangles)} new durable triangle(s)"
                    )
        else:
            live -= 1

    st = stream.structure
    print(
        f"\ntotals: {len(reported)} triangles reported on-line, "
        f"peak live set {peak}, group rebuilds {st.n_group_rebuilds}, "
        f"full compactions {st.n_full_rebuilds}"
    )
    return {r.key for r in reported}


def run_served(tps):
    """The same arrivals through a serve instance's events endpoint.

    The first half of the points is the seed registration; the rest
    arrive as NDJSON event batches.  A query lands between the first
    and second batch so the triangle index exists early and the later
    appends exercise epoch-aware incremental maintenance (the index
    migrates across epochs instead of rebuilding).
    """
    from repro.obs import counter_value, parse_exposition
    from repro.serve import start_server_thread
    from repro.serve.client import append_events, connect, request

    seed_n = tps.n // 2
    query = {
        "dataset": "stream",
        "queries": [{"kind": "triangles", "tau": TAU, "epsilon": EPSILON}],
    }

    handle = start_server_thread()
    tmp = tempfile.NamedTemporaryFile(
        mode="w", suffix=".csv", delete=False
    )
    try:
        # Seed prefix as CSV (%.17g round-trips doubles exactly, so the
        # served dataset is bit-identical to tps[:seed_n]).
        rows = np.column_stack(
            [tps.points[:seed_n], tps.starts[:seed_n], tps.ends[:seed_n]]
        )
        np.savetxt(tmp, rows, delimiter=",", fmt="%.17g")
        tmp.close()

        conn = connect(handle.host, handle.port)
        try:
            status, _data = request(
                conn, "POST", "/datasets",
                {"name": "stream", "dataset": {"csv": tmp.name}},
            )
            assert status == 201, status
            print(f"served: registered seed prefix of {seed_n} points")

            report = None
            for lo in range(seed_n, tps.n, BATCH):
                hi = min(lo + BATCH, tps.n)
                batch = "\n".join(
                    json.dumps(
                        {
                            "point": tps.points[i].tolist(),
                            "start": float(tps.starts[i]),
                            "end": float(tps.ends[i]),
                        }
                    )
                    for i in range(lo, hi)
                ).encode()
                status, doc = append_events(conn, "stream", batch)
                assert status == 200, (status, doc)
                report = doc["appended"]
                assert report["rejected"] == 0, report["errors"]
                print(
                    f"served: appended events {lo}..{hi - 1} -> epoch "
                    f"{report['epoch']}, maintained="
                    f"{report['maintained_families'] or '(cold cache)'}"
                )
                if lo == seed_n:
                    # Build the index early: every later append then
                    # maintains it across the epoch bump.
                    status, _data = request(conn, "POST", "/query", query)
                    assert status == 200, status

            status, data = request(conn, "POST", "/query", query)
            assert status == 200, status
            served = set()
            for line in data.decode().strip().split("\n"):
                doc = json.loads(line)
                if doc["type"] == "records":
                    served.update(
                        tuple(sorted(r["ids"])) for r in doc["records"]
                    )

            status, data = request(conn, "GET", "/metrics")
            families = parse_exposition(data.decode())
            stream = {"dataset": "stream"}
            migrated = counter_value(families, "serve_cache_migrated_total", stream)
            invalidated = counter_value(
                families, "serve_cache_invalidated_total", stream
            )
            print(
                f"served: epoch {report['epoch']}, "
                f"{len(served)} triangles reported, cache migrations "
                f"{migrated:g} / invalidations {invalidated:g}"
            )
            assert migrated >= 1, "the triangle index was never maintained"
        finally:
            conn.close()
    finally:
        os.unlink(tmp.name)
        handle.stop()
    return served


def main() -> None:
    tps = benchmark_workload(n=400, density=10.0, seed=11)
    print(f"replaying {tps.n} lifespan events, τ = {TAU}")

    streamed = run_stream(tps)

    # The stream's union equals the offline answer (same guarantee).
    must, may = triangle_bounds(tps, TAU, EPSILON)
    assert must <= streamed <= may
    print(
        f"offline cross-check: |T_τ| = {len(must)} ≤ streamed = "
        f"{len(streamed)} ≤ |T^ε_τ| = {len(may)}  ✓"
    )

    print(f"\nreplaying the same arrivals through a serve instance")
    served = run_served(tps)

    # Served and streamed reports agree: both hold every exact triangle
    # and nothing outside the ε-relaxation (their ε-extras may differ —
    # different decompositions — which is exactly the paper's contract).
    assert must <= served <= may
    print(
        f"served cross-check: |T_τ| = {len(must)} ≤ served = "
        f"{len(served)} ≤ |T^ε_τ| = {len(may)}  ✓"
    )

    # Stronger: append-then-query is record-identical to an offline run
    # over the merged point set with the same backend (the versioned-
    # dataset guarantee — maintenance never changes answers).
    from repro.api import default_engine
    from repro.engine import QuerySpec

    offline = default_engine().run(
        tps, QuerySpec(kind="triangles", taus=TAU, epsilon=EPSILON)
    )
    fresh = {r.key for r in offline.records}
    assert served == fresh, (
        f"served {len(served)} != fresh {len(fresh)}"
    )
    print(
        f"identity cross-check: served report == fresh build over the "
        f"merged point set ({len(fresh)} records)  ✓"
    )


if __name__ == "__main__":
    main()
