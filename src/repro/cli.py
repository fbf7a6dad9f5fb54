"""Command-line interface: ``python -m repro <command> …``.

Runs the library's solvers over built-in synthetic workloads (or a CSV
of ``x1..xd,start,end`` rows) and prints result summaries — a quick way
to poke at the algorithms without writing a script.

Commands::

    python -m repro info       --workload social --n 400
    python -m repro backends   [--explain --workload uniform --n 200]
    python -m repro triangles  --workload uniform --n 500 --tau 6
    python -m repro cliques    --m 4 --tau 4
    python -m repro pairs-sum  --workload coauthor --tau 30
    python -m repro pairs-union --tau 12 --kappa 3
    python -m repro stream     --tau 6
    python -m repro batch      queries.json --output results.json
    python -m repro serve      --port 8765 --dataset 'soc={"workload":"social","n":400}'
    python -m repro route      --port 8766 --workers 4
    python -m repro append     soc events.ndjson --port 8765
    python -m repro trace      --slow --port 8765

Backend dispatch is uniform across the CLI: every query-running command
takes ``--backend`` (default ``auto`` — the registry picks an eligible
exact backend, else the first eligible of vector → grid → cover-tree;
see ``python -m repro backends``).  The one-shot commands
(``triangles``, ``cliques``, ``pairs-sum``, ``pairs-union``) run
through the same engine/planner path as ``batch`` and ``serve``, so
``auto`` means the same thing everywhere.  ``backends`` lists the
registered descriptors and, with ``--explain``, shows the per-kind
winner, the deciding rule and the candidate order for a concrete
workload.

``batch`` runs a whole file of queries through the shared-index
:class:`~repro.engine.QueryEngine`: every query that can legally reuse
a preprocessing pass does, and independent queries execute concurrently.
The file is JSON (or YAML when PyYAML is installed): either a list of
query objects, or ``{"dataset": {...}, "queries": [...]}`` where the
dataset spec follows :func:`repro.datasets.workload_from_spec`.
Faults are isolated per query: a failing query is reported as an ERROR
line (and in the JSON output) while the rest of the batch completes;
the exit code is 1 when any query failed, 0 when all succeeded.

``serve`` runs the long-lived asyncio front end (:mod:`repro.serve`):
datasets are registered — at boot via ``--dataset NAME=SPEC`` or at
runtime via ``POST /datasets`` — each on its own shard (private index
cache, thread pool, bounded admission queue), and queries stream back
as NDJSON over HTTP.

``route`` runs the multi-process routing tier (:mod:`repro.router`):
``--workers N`` serve processes are spawned on loopback ports and
supervised (restart-with-replay on death), datasets are placed by
rendezvous (HRW) hashing over worker slots, and the same NDJSON
protocol is exposed on one public port.

``append`` streams an NDJSON event batch (file or stdin) into a served
dataset via ``POST /datasets/<name>/events``, printing the new epoch
and the accepted/rejected counts.  It works identically against a
``serve`` process and the ``route`` tier.

``trace`` renders a request's span waterfall from a live server's
trace ring (``GET /debug/traces/<id>``) — stitched across the router
and the owning worker when the ``route`` tier answers — or, with
``--slow``, lists the slowest retained traces.  Every query envelope
and error body carries the ``trace_id`` to pass here; see
``docs/tracing.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Dict, List, Optional

import numpy as np

from . import DynamicTriangleStream, TemporalPointSet
from .api import default_engine
from .backends import default_registry
from .datasets import workload_from_spec
from .engine import KINDS, QueryEngine, QueryResult, QuerySpec
from .engine.spec import apply_default_backend
from .errors import ReproError, ValidationError
from .geometry import doubling_dimension_estimate, spread

__all__ = ["main", "build_parser", "load_workload"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Durable patterns in temporal proximity graphs (PODS 2024).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workload", default="uniform",
                       choices=["uniform", "social", "coauthor"],
                       help="built-in synthetic workload")
        p.add_argument("--csv", default=None,
                       help="CSV file of x1..xd,start,end rows (overrides --workload)")
        p.add_argument("--n", type=int, default=400, help="number of points")
        p.add_argument("--seed", type=int, default=0, help="random seed")
        p.add_argument("--metric", default="l2", help="metric name (l1/l2/linf/l<α>)")
        p.add_argument("--epsilon", type=float, default=0.5,
                       help="distance approximation ε")
        p.add_argument("--top", type=int, default=5, help="rows to print")
        p.add_argument("--backend", default="auto",
                       help="backend name, or 'auto' for registry capability "
                            "dispatch (see `python -m repro backends`)")

    p_info = sub.add_parser("info", help="workload diagnostics (spread, doubling dim)")
    common(p_info)

    p_back = sub.add_parser(
        "backends",
        help="list registered backends and their capabilities",
    )
    common(p_back)
    p_back.add_argument("--json", action="store_true",
                        help="emit the descriptor list as JSON")
    p_back.add_argument("--explain", action="store_true",
                        help="resolve every query kind against the selected "
                             "workload and print the winner, the rule and "
                             "the candidate order")

    p_tri = sub.add_parser("triangles", help="report durable triangles (Section 3)")
    common(p_tri)
    p_tri.add_argument("--tau", type=float, required=True, help="durability τ")
    p_tri.add_argument("--count-only", action="store_true",
                       help="count without enumerating (future-work extension)")

    p_cli = sub.add_parser("cliques", help="report durable m-cliques (Appendix D)")
    common(p_cli)
    p_cli.add_argument("--tau", type=float, required=True)
    p_cli.add_argument("--m", type=int, default=4, help="clique size")

    p_sum = sub.add_parser("pairs-sum", help="SUM aggregate-durable pairs (Section 5.1)")
    common(p_sum)
    p_sum.add_argument("--tau", type=float, required=True)

    p_uni = sub.add_parser("pairs-union", help="UNION aggregate-durable pairs (Section 5.2)")
    common(p_uni)
    p_uni.add_argument("--tau", type=float, required=True)
    p_uni.add_argument("--kappa", type=int, default=3, help="witness budget κ")

    p_str = sub.add_parser("stream", help="replay lifespans dynamically (Appendix C)")
    common(p_str)
    p_str.add_argument("--tau", type=float, required=True)

    p_qry = sub.add_parser(
        "query",
        help="run one declarative pattern query (the pattern-dsl kind)",
    )
    common(p_qry)
    p_qry.add_argument(
        "--pattern", required=True,
        help="pattern in text form, e.g. "
             "\"seq(pairs(agg=sum), triangles(), gap=[0,5])\", "
             "or as a compact-JSON object (docs/query_language.md)",
    )
    p_qry.add_argument(
        "--tau", type=float, action="append", required=True,
        help="durability τ (repeat the flag for a τ-sweep)",
    )

    p_bat = sub.add_parser(
        "batch",
        help="run a JSON/YAML file of queries through the shared-index engine",
    )
    common(p_bat)
    p_bat.add_argument("file", help="batch file (JSON, or YAML with PyYAML)")
    p_bat.add_argument("--workers", type=int, default=None,
                       help="thread-pool width (default: one per query, CPU-capped)")
    p_bat.add_argument("--sequential", action="store_true",
                       help="execute queries one at a time")
    p_bat.add_argument("--output", default=None,
                       help="write full JSON results to PATH ('-' for stdout)")
    p_bat.add_argument("--no-records", action="store_true",
                       help="emit per-tau counts only, not the records")

    p_srv = sub.add_parser(
        "serve",
        help="run the async NDJSON-over-HTTP serving front end",
    )
    p_srv.add_argument("--host", default="127.0.0.1", help="bind address")
    p_srv.add_argument("--port", type=int, default=8765,
                       help="bind port (0 picks an ephemeral port)")
    p_srv.add_argument("--queue-limit", type=int, default=64,
                       help="per-shard bound on in-flight queries "
                            "(excess requests get 429)")
    p_srv.add_argument("--max-entries", type=int, default=32,
                       help="per-shard bound on resident indexes (LRU)")
    p_srv.add_argument("--workers", type=int, default=None,
                       help="per-shard thread-pool width")
    p_srv.add_argument("--dataset", action="append", default=[],
                       metavar="NAME=SPEC",
                       help="register a dataset at boot; SPEC is the JSON "
                            "accepted by POST /datasets (repeatable)")
    p_srv.add_argument("--backend", default=None, metavar="NAME",
                       help="default backend applied to queries that name "
                            "none, for every dataset that doesn't set its "
                            "own default_backend")
    p_srv.add_argument("--idle-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="close a keep-alive connection idle for this long "
                            "(default: 30)")
    p_srv.add_argument("--max-requests-per-conn", type=int, default=None,
                       metavar="N",
                       help="requests served on one connection before the "
                            "server closes it (default: 1000)")
    p_srv.add_argument("--api-keys", default=None, metavar="PATH",
                       help="tenant file (JSON) enabling per-tenant QoS: "
                            "POST /query then requires X-API-Key and is "
                            "metered by weighted fair shares and quotas "
                            "(see docs/operations.md)")
    p_srv.add_argument("--trace-sample", type=float, default=None,
                       metavar="P",
                       help="head-sampling probability for trace retention "
                            "(slow and error traces are always kept; "
                            "default: 1.0 — see docs/tracing.md)")
    p_srv.add_argument("--slow-query-ms", type=float, default=None,
                       metavar="MS",
                       help="requests at or above this duration are logged "
                            "to the slow-query NDJSON log and always "
                            "retained in the trace ring (default: 500)")

    p_rt = sub.add_parser(
        "route",
        help="run the multi-process routing tier (N serve workers behind "
             "one port)",
    )
    p_rt.add_argument("--host", default="127.0.0.1", help="router bind address")
    p_rt.add_argument("--port", type=int, default=8766,
                      help="router bind port (0 picks an ephemeral port)")
    p_rt.add_argument("--workers", type=int, default=2,
                      help="worker processes to spawn (each a full "
                           "`repro serve` on a loopback port)")
    p_rt.add_argument("--manifest", default=None, metavar="PATH",
                      help="persist the placement manifest to PATH; an "
                           "existing manifest is restored at boot")
    p_rt.add_argument("--probe-interval", type=float, default=None,
                      metavar="SECONDS",
                      help="supervision tick: liveness poll + /health probe "
                           "(default: 0.5)")
    p_rt.add_argument("--dataset", action="append", default=[],
                      metavar="NAME=SPEC",
                      help="register a dataset at boot; SPEC is the JSON "
                           "accepted by POST /datasets (repeatable)")
    p_rt.add_argument("--queue-limit", type=int, default=None,
                      help="per-shard admission bound, forwarded to every "
                           "worker")
    p_rt.add_argument("--max-entries", type=int, default=None,
                      help="per-shard resident-index bound, forwarded to "
                           "every worker")
    p_rt.add_argument("--api-keys", default=None, metavar="PATH",
                      help="tenant file (JSON), forwarded to every worker; "
                           "the router passes X-API-Key through, workers "
                           "enforce fair shares and quotas")
    p_rt.add_argument("--trace-sample", type=float, default=None,
                      metavar="P",
                      help="head-sampling probability for trace retention, "
                           "applied on the router and forwarded to every "
                           "worker (default: 1.0)")
    p_rt.add_argument("--slow-query-ms", type=float, default=None,
                      metavar="MS",
                      help="slow-query threshold in milliseconds, applied "
                           "on the router and forwarded to every worker "
                           "(default: 500)")

    p_trc = sub.add_parser(
        "trace",
        help="fetch a request trace from a serve or route process and "
             "print its span waterfall",
    )
    p_trc.add_argument("trace_id", nargs="?", default=None,
                       help="trace id echoed on the query envelope "
                            "(omit with --slow to list recent slow traces)")
    p_trc.add_argument("--slow", action="store_true",
                       help="list the slowest recent traces instead of "
                            "fetching one id")
    p_trc.add_argument("--min-ms", type=float, default=None, metavar="MS",
                       help="with --slow: only traces at least this slow")
    p_trc.add_argument("--limit", type=int, default=10,
                       help="with --slow: how many traces to list")
    p_trc.add_argument("--dataset", default=None,
                       help="with --slow: only traces for this dataset")
    p_trc.add_argument("--host", default="127.0.0.1",
                       help="serve or route address")
    p_trc.add_argument("--port", type=int, default=8765,
                       help="serve or route port")

    p_app = sub.add_parser(
        "append",
        help="append an NDJSON event batch to a served dataset "
             "(POST /datasets/<name>/events)",
    )
    p_app.add_argument("dataset", help="dataset name on the server or router")
    p_app.add_argument("file", nargs="?", default="-",
                       help="NDJSON events file, one "
                            "{'point': […], 'start': s, 'end': e} object "
                            "per line ('-' or omitted: stdin)")
    p_app.add_argument("--host", default="127.0.0.1",
                       help="serve or route address")
    p_app.add_argument("--port", type=int, default=8765,
                       help="serve or route port")
    return parser


def load_workload(args: argparse.Namespace) -> TemporalPointSet:
    """Materialise the requested input (see :func:`workload_from_spec`)."""
    if args.csv:
        return workload_from_spec({"csv": args.csv, "metric": args.metric})
    return workload_from_spec(
        {
            "workload": args.workload,
            "n": args.n,
            "seed": args.seed,
            "metric": args.metric,
        }
    )


def _load_batch_file(path: str) -> Dict[str, Any]:
    """Parse a batch file into ``{"dataset": ..., "queries": [...]}``.

    JSON always works; ``.yaml``/``.yml`` files use PyYAML when
    available and fail with a clear error otherwise.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read batch file {path!r}: {exc}") from exc
    if path.endswith((".yaml", ".yml")):
        try:
            import yaml
        except ImportError as exc:  # pragma: no cover - environment-specific
            raise ValidationError(
                "YAML batch files need the optional PyYAML dependency; "
                "install it or convert the file to JSON"
            ) from exc
        try:
            doc = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ValidationError(f"invalid YAML in {path!r}: {exc}") from exc
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON in {path!r}: {exc}") from exc
    if isinstance(doc, list):
        doc = {"queries": doc}
    if not isinstance(doc, dict) or "queries" not in doc:
        raise ValidationError(
            "batch file must be a list of queries or an object with a "
            "'queries' key (optionally a 'dataset' key)"
        )
    if not isinstance(doc["queries"], list) or not doc["queries"]:
        raise ValidationError("batch file declares no queries")
    return doc


def _run_batch(args: argparse.Namespace, out) -> int:
    doc = _load_batch_file(args.file)
    # --backend fills in queries that name none (explicit entries win,
    # kinds the backend cannot serve stay on auto) — one precedence
    # rule shared with the serving layer via apply_default_backend.
    doc["queries"] = apply_default_backend(doc["queries"], args.backend)
    # Validate the query specs before materialising any dataset, so a
    # typo in the file fails fast — naming the offending entry, which
    # matters in long files of declarative patterns.
    specs = []
    for i, q in enumerate(doc["queries"]):
        try:
            specs.append(QuerySpec.from_dict(q))
        except ValidationError as exc:
            raise ValidationError(f"query #{i}: {exc}") from exc
    if "dataset" in doc:
        tps = workload_from_spec(doc["dataset"])
    else:
        tps = load_workload(args)
    print(f"workload: {tps}", file=out)

    engine = QueryEngine(max_workers=args.workers)
    batch = engine.run_batch(tps, specs, parallel=not args.sequential)

    for i, res in enumerate(batch):
        taus = ",".join(f"{t:g}" for t in res.spec.taus)
        label = f" ({res.spec.label})" if res.spec.label else ""
        if not res.ok:
            print(
                f"[{i}] {res.spec.kind}{label} tau={taus}: ERROR {res.error}",
                file=out,
            )
            continue
        source = "cache" if res.cache_hit else f"build {res.build_seconds * 1e3:.1f} ms"
        print(
            f"[{i}] {res.spec.kind}{label} tau={taus}: {res.count} records "
            f"({source}, query {res.query_seconds * 1e3:.1f} ms)",
            file=out,
        )
    stats = batch.cache_stats
    errors = f", {batch.n_errors} FAILED" if batch.n_errors else ""
    print(
        f"batch: {len(batch)} queries, {batch.distinct_indexes} distinct "
        f"indexes, {stats['builds']} built, {stats['hits']} cache hits, "
        f"{batch.wall_seconds * 1e3:.1f} ms total{errors}",
        file=out,
    )
    if args.output:
        payload = batch.to_dict(include_records=not args.no_records)
        payload["dataset"] = {
            "n": tps.n,
            "dim": tps.dim,
            "metric": tps.metric.name,
            "fingerprint": tps.fingerprint(),
        }
        if args.output == "-":
            json.dump(payload, out, indent=2)
            print(file=out)
        else:
            with open(args.output, "w") as fh:
                json.dump(payload, fh, indent=2)
            print(f"results written to {args.output}", file=out)
    # Per-query failures were isolated, not raised: signal them in the
    # exit code (0 = all good, 1 = partial, 2 = the whole run errored).
    return 1 if batch.n_errors else 0


def _spec_for_kind(kind: str, args: argparse.Namespace) -> QuerySpec:
    """A representative spec for ``--explain`` resolution demos."""
    extras: Dict[str, Any] = {}
    if kind == "pairs-union":
        extras["kappa"] = 3
    tau = getattr(args, "tau", None)
    return QuerySpec(
        kind=kind,
        taus=tau if tau is not None else 4.0,
        epsilon=args.epsilon,
        backend=args.backend,
        **extras,
    )


def _run_backends(args: argparse.Namespace, out) -> int:
    registry = default_registry()
    if args.json:
        json.dump({"backends": registry.describe()}, out, indent=2)
        print(file=out)
    else:
        print(f"registered backends: {len(registry)}", file=out)
        for card in registry.describe():
            flags = []
            if card["exact"]:
                flags.append("exact")
            if card["spatial"]:
                flags.append("spatial")
            print(f"  {card['name']}  [{', '.join(flags) or '-'}]", file=out)
            print(f"    {card['description']}", file=out)
            print(f"    metric: {card['metric']}", file=out)
            print(f"    kinds:  {', '.join(card['kinds'])}", file=out)
    if args.explain:
        tps = load_workload(args)
        print(f"resolution for {tps} (backend={args.backend!r}):", file=out)
        for kind in KINDS:
            try:
                resolution = registry.resolve(_spec_for_kind(kind, args), tps)
            except ValidationError as exc:
                print(f"  {kind:<11} -> error: {exc}", file=out)
                continue
            print(
                f"  {kind:<11} -> {resolution.name}  ({resolution.reason}; "
                f"candidates {', '.join(resolution.candidates)})",
                file=out,
            )
    return 0


def _parse_boot_datasets(entries: List[str]) -> Dict[str, Dict[str, Any]]:
    """Parse repeated ``--dataset NAME=SPECJSON`` flags."""
    datasets: Dict[str, Dict[str, Any]] = {}
    for entry in entries:
        name, sep, spec_text = entry.partition("=")
        if not sep or not name:
            raise ValidationError(
                f"--dataset expects NAME=SPECJSON, got {entry!r}"
            )
        try:
            spec = json.loads(spec_text)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"--dataset {name}: invalid JSON spec: {exc}"
            ) from exc
        if not isinstance(spec, dict):
            raise ValidationError(
                f"--dataset {name}: spec must be a JSON object, got {spec!r}"
            )
        datasets[name] = spec
    return datasets


def _run_serve(args: argparse.Namespace, out) -> int:
    from .serve import run_server

    def announce(host: str, port: int, app) -> None:
        names = app.registry.names()
        print(f"serving on http://{host}:{port}", file=out)
        print(
            f"datasets: {', '.join(names) if names else '(none — POST /datasets)'}",
            file=out,
        )
        out.flush()

    keepalive_kwargs = {}
    if args.idle_timeout is not None:
        keepalive_kwargs["idle_timeout"] = args.idle_timeout
    if args.max_requests_per_conn is not None:
        keepalive_kwargs["max_requests_per_connection"] = args.max_requests_per_conn
    if args.trace_sample is not None:
        keepalive_kwargs["trace_sample"] = args.trace_sample
    if args.slow_query_ms is not None:
        keepalive_kwargs["slow_query_ms"] = args.slow_query_ms
    run_server(
        host=args.host,
        port=args.port,
        max_entries=args.max_entries,
        max_workers=args.workers,
        queue_limit=args.queue_limit,
        default_backend=args.backend,
        datasets=_parse_boot_datasets(args.dataset),
        api_keys=args.api_keys,
        announce=announce,
        **keepalive_kwargs,
    )
    print("server stopped", file=out)
    return 0


def _run_route(args: argparse.Namespace, out) -> int:
    from .router import run_router

    serve_args: List[str] = []
    if args.queue_limit is not None:
        serve_args += ["--queue-limit", str(args.queue_limit)]
    if args.max_entries is not None:
        serve_args += ["--max-entries", str(args.max_entries)]
    if args.api_keys is not None:
        serve_args += ["--api-keys", args.api_keys]
    route_kwargs = {}
    if args.probe_interval is not None:
        route_kwargs["probe_interval"] = args.probe_interval
    # Tracing settings apply to the router itself AND ride serve_args so
    # every worker keeps/logs by the same policy — a trace either has
    # its worker half or was sampled out on both sides consistently.
    if args.trace_sample is not None:
        serve_args += ["--trace-sample", str(args.trace_sample)]
        route_kwargs["trace_sample"] = args.trace_sample
    if args.slow_query_ms is not None:
        serve_args += ["--slow-query-ms", str(args.slow_query_ms)]
        route_kwargs["slow_query_ms"] = args.slow_query_ms

    def announce(host: str, port: int, app) -> None:
        statuses = app.pool.statuses()
        print(f"routing on http://{host}:{port}", file=out)
        for status in statuses:
            print(
                f"  {status.slot}: pid {status.pid} on "
                f"{status.host}:{status.port}",
                file=out,
            )
        names = app.manifest.names()
        print(
            f"datasets: {', '.join(names) if names else '(none — POST /datasets)'}",
            file=out,
        )
        out.flush()

    run_router(
        host=args.host,
        port=args.port,
        workers=args.workers,
        manifest_path=args.manifest,
        serve_args=serve_args,
        datasets=_parse_boot_datasets(args.dataset),
        announce=announce,
        **route_kwargs,
    )
    print("router stopped", file=out)
    return 0


def _run_trace(args: argparse.Namespace, out) -> int:
    """``repro trace``: span waterfalls from a live serve/route process.

    ``repro trace <id>`` prints one trace (stitched across processes
    when the router answers); ``repro trace --slow`` lists the slowest
    recent traces so an operator can pick an id without grepping the
    slow-query log.  Exit code 0 on success, 1 when the id is unknown.
    """
    from .obs.trace import format_waterfall
    from .serve.client import connect, fetch_trace, fetch_traces, probe

    if args.slow == (args.trace_id is not None):
        raise ValidationError(
            "pass exactly one of a trace id or --slow "
            "(`repro trace <id>` or `repro trace --slow`)"
        )
    try:
        probe(args.host, args.port)
    except OSError as exc:
        raise ValidationError(
            f"no server on {args.host}:{args.port} ({exc}); start one with "
            "`repro serve` or `repro route`"
        ) from exc
    conn = connect(args.host, args.port)
    try:
        if args.slow:
            status, doc = fetch_traces(
                conn,
                min_duration_ms=args.min_ms,
                limit=args.limit,
                dataset=args.dataset,
            )
            if status != 200 or not isinstance(doc, dict):
                print(f"trace listing failed: HTTP {status} {doc}", file=out)
                return 1
            traces = sorted(
                doc.get("traces", []),
                key=lambda t: -(t.get("duration_ms") or 0.0),
            )
            if not traces:
                print("no traces retained (check --trace-sample and "
                      "whether the server has taken traffic)", file=out)
                return 0
            for t in traces:
                flags = []
                if t.get("slow"):
                    flags.append("slow")
                if t.get("status") not in (None, "ok"):
                    flags.append(t["status"])
                suffix = f"  [{','.join(flags)}]" if flags else ""
                dataset = f"  dataset={t['dataset']}" if t.get("dataset") else ""
                print(
                    f"{t.get('trace_id')}  {t.get('duration_ms', 0.0):8.1f} ms  "
                    f"{t.get('route', '?')}{dataset}{suffix}",
                    file=out,
                )
            print(
                f"({len(traces)} traces; `repro trace <id>` for a waterfall)",
                file=out,
            )
            return 0
        status, doc = fetch_trace(conn, args.trace_id)
        if status == 404:
            print(
                f"trace {args.trace_id!r} not found "
                f"({doc.get('error', 'sampled out, evicted, or unknown')})",
                file=out,
            )
            return 1
        if status != 200 or not isinstance(doc, dict):
            print(f"trace fetch failed: HTTP {status} {doc}", file=out)
            return 1
        print(format_waterfall(doc), file=out)
        return 0
    finally:
        conn.close()


def _run_append(args: argparse.Namespace, out) -> int:
    """``repro append``: NDJSON file or stdin → the events endpoint.

    Works identically against a single ``repro serve`` process and the
    routing tier (which forwards to the owning worker and records the
    batch for replay).  Exit code 0 when the server accepted at least
    one event, 1 otherwise.
    """
    from .serve.client import append_events, connect, probe

    if args.file == "-":
        batch = sys.stdin.buffer.read()
    else:
        try:
            with open(args.file, "rb") as fh:
                batch = fh.read()
        except OSError as exc:
            raise ValidationError(
                f"cannot read events file {args.file!r}: {exc}"
            ) from exc
    if not batch.strip():
        raise ValidationError("event batch is empty")
    try:
        probe(args.host, args.port)
    except OSError as exc:
        raise ValidationError(
            f"no server on {args.host}:{args.port} ({exc}); start one with "
            "`repro serve` or `repro route`"
        ) from exc
    conn = connect(args.host, args.port)
    try:
        status, doc = append_events(conn, args.dataset, batch)
    finally:
        conn.close()
    if status != 200:
        print(f"append failed: HTTP {status} {doc}", file=out)
        return 1
    report = doc.get("appended", {})
    where = f" (worker {doc['worker']})" if "worker" in doc else ""
    print(
        f"dataset {report.get('name')!r}{where}: epoch {report.get('epoch')}, "
        f"n={report.get('n')}", file=out,
    )
    print(
        f"accepted {report.get('accepted', 0)}, "
        f"rejected {report.get('rejected', 0)}", file=out,
    )
    for err in report.get("errors", []):
        print(f"  rejected: {err}", file=out)
    maintained = report.get("maintained_families", [])
    invalidated = report.get("invalidated_families", [])
    if maintained or invalidated:
        print(
            f"indexes: maintained {', '.join(maintained) or '(none)'}; "
            f"invalidated {', '.join(invalidated) or '(none)'}", file=out,
        )
    return 0 if report.get("accepted", 0) else 1


def _timed(label: str, fn, out=sys.stdout):
    t0 = time.perf_counter()
    result = fn()
    dt = time.perf_counter() - t0
    print(f"{label}: {dt * 1000:.1f} ms", file=out)
    return result


def _run_one_shot(spec: QuerySpec, tps: TemporalPointSet, out) -> QueryResult:
    """Run a single-query command through the shared engine.

    One path for everything: the registry resolves the backend (so
    ``--backend auto`` means exactly what it means in ``batch`` and
    ``serve``), the process-wide cache shares preprocessing across
    commands in one interpreter, and the result carries build/query
    timing equivalent to the old hand-timed prints.
    """
    result = default_engine().run(tps, spec)
    print(f"backend: {result.key.backend}", file=out)
    source = "cache hit" if result.cache_hit else f"{result.build_seconds * 1000:.1f} ms"
    print(f"build: {source}", file=out)
    print(f"query: {result.query_seconds * 1000:.1f} ms", file=out)
    return result


def main(argv: Optional[List[str]] = None, out=sys.stdout) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "batch":
            return _run_batch(args, out)
        if args.command == "serve":
            return _run_serve(args, out)
        if args.command == "route":
            return _run_route(args, out)
        if args.command == "append":
            return _run_append(args, out)
        if args.command == "trace":
            return _run_trace(args, out)
        if args.command == "backends":
            return _run_backends(args, out)
        tps = load_workload(args)
        print(f"workload: {tps}", file=out)

        if args.command == "info":
            print(f"spread        ≈ {spread(tps.points, tps.metric):.1f}", file=out)
            rho = doubling_dimension_estimate(tps.points, tps.metric, n_centers=16)
            print(f"doubling dim  ≈ {rho:.2f}", file=out)
            degs = []
            for i in range(0, tps.n, max(tps.n // 64, 1)):
                d = tps.metric.dists(tps.points, tps.points[i])
                degs.append(int((d <= 1.0).sum()) - 1)
            print(f"unit-ball deg ≈ {np.mean(degs):.1f}", file=out)
            print(f"mean lifespan ≈ {(tps.ends - tps.starts).mean():.2f}", file=out)

        elif args.command == "triangles":
            spec = QuerySpec(
                kind="triangles", taus=args.tau,
                epsilon=args.epsilon, backend=args.backend,
            )
            if args.count_only:
                idx = default_engine().get_index(tps, spec)
                if not hasattr(idx, "count"):
                    raise ValidationError(
                        "--count-only needs the approximate triangle index; "
                        "pass --backend cover-tree or grid (the resolved "
                        "exact backend enumerates instead of counting)"
                    )
                count = _timed("count", lambda: idx.count(args.tau), out)
                print(f"durable triangles: {count}", file=out)
            else:
                recs = _run_one_shot(spec, tps, out).records
                print(f"durable triangles: {len(recs)}", file=out)
                for r in sorted(recs, key=lambda r: -r.durability)[: args.top]:
                    print(f"  {r.ids}  durability {r.durability:.2f}", file=out)

        elif args.command == "cliques":
            spec = QuerySpec(
                kind="cliques", taus=args.tau, m=args.m,
                epsilon=args.epsilon, backend=args.backend,
            )
            recs = _run_one_shot(spec, tps, out).records
            print(f"durable {args.m}-cliques: {len(recs)}", file=out)
            for r in sorted(recs, key=lambda r: -r.durability)[: args.top]:
                print(f"  {r.members}  durability {r.durability:.2f}", file=out)

        elif args.command == "pairs-sum":
            spec = QuerySpec(
                kind="pairs-sum", taus=args.tau,
                epsilon=args.epsilon, backend=args.backend,
            )
            recs = _run_one_shot(spec, tps, out).records
            print(f"SUM-durable pairs: {len(recs)}", file=out)
            for r in sorted(recs, key=lambda r: -r.score)[: args.top]:
                print(f"  ({r.p}, {r.q})  witness sum {r.score:.2f}", file=out)

        elif args.command == "pairs-union":
            spec = QuerySpec(
                kind="pairs-union", taus=args.tau, kappa=args.kappa,
                epsilon=args.epsilon, backend=args.backend,
            )
            recs = _run_one_shot(spec, tps, out).records
            print(f"(τ,κ)-UNION-durable pairs: {len(recs)}", file=out)
            for r in sorted(recs, key=lambda r: -r.score)[: args.top]:
                print(f"  ({r.p}, {r.q})  covered {r.score:.2f}", file=out)

        elif args.command == "query":
            spec = QuerySpec(
                kind="pattern-dsl", taus=tuple(args.tau),
                epsilon=args.epsilon, backend=args.backend,
                pattern=args.pattern,
            )
            recs = _run_one_shot(spec, tps, out).records
            print(f"pattern matches: {len(recs)}", file=out)

            def _rank(r):
                return -getattr(r, "durability", getattr(r, "score", 0.0))

            for r in sorted(recs, key=_rank)[: args.top]:
                members = getattr(r, "members", None) or getattr(r, "ids", None)
                if members is None:
                    members = (r.p, r.q)
                value = getattr(r, "durability", getattr(r, "score", 0.0))
                print(f"  {tuple(members)}  durability {value:.2f}", file=out)

        elif args.command == "stream":
            stream = DynamicTriangleStream(
                tps, args.tau, args.epsilon, backend=args.backend
            )
            recs = _timed("replay", stream.run, out)
            st = stream.structure
            print(
                f"streamed triangles: {len(recs)} "
                f"(rebuilds {st.n_group_rebuilds}, compactions {st.n_full_rebuilds})",
                file=out,
            )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
