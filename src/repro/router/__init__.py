"""Multi-process routing tier over the serving front end (ISSUE 5).

The decomposition indexes the paper builds are expensive to construct
and cheap to query, which rewards keeping each dataset's index cache
hot on a dedicated process.  This package is that scaling seam: a
router process that owns **placement** and **supervision**, in front of
N ``repro serve`` worker processes that own the shards.

* :mod:`~repro.router.placement` — rendezvous (HRW) hashing over slot
  ids: deterministic across restarts and churn-stable;
* :mod:`~repro.router.manifest` — the placement manifest (dataset →
  worker + replayable registration payload), optionally persisted for
  router restarts;
* :mod:`~repro.router.supervisor` — the worker pool: spawn on loopback
  ports, probe liveness, restart-with-replay on death, graceful
  fan-out drain;
* :mod:`~repro.router.proxy` — :class:`RouterApp`, the public front
  end: same NDJSON-over-HTTP protocol as ``repro serve``, queries
  proxied to the owning worker with streaming and fault isolation
  preserved end to end, ``503`` (never a hang) for queries racing a
  dead worker, and one fleet-wide ``/metrics`` scrape.

Start one with ``python -m repro route --workers N`` or, in-process,
:func:`start_router_thread` (the tests' and bench driver's fixture).
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

from ..serve.server import ServerHandle, run_app, start_app_thread
from .manifest import ManifestEntry, PlacementManifest
from .placement import choose_worker
from .proxy import RouterApp
from .supervisor import (
    DEFAULT_BOOT_TIMEOUT,
    DEFAULT_PROBE_INTERVAL,
    WorkerPool,
    WorkerStatus,
)

__all__ = [
    "ManifestEntry",
    "PlacementManifest",
    "WorkerPool",
    "WorkerStatus",
    "RouterApp",
    "choose_worker",
    "run_router",
    "start_router_thread",
    "DEFAULT_PROBE_INTERVAL",
    "DEFAULT_BOOT_TIMEOUT",
]


def _build_router(
    workers: int,
    manifest_path: Optional[str],
    probe_interval: float,
    serve_args: Sequence[str],
    datasets: Optional[Mapping[str, Any]],
    **settings: Any,
) -> RouterApp:
    """Spawn the worker fleet and restore state; blocking.

    ``settings`` are :class:`RouterApp`'s connection and tracing
    settings.
    """
    manifest = PlacementManifest(manifest_path)
    pool = WorkerPool(
        workers=workers,
        serve_args=serve_args,
        manifest=manifest,
        probe_interval=probe_interval,
    )
    pool.start()
    try:
        app = RouterApp(pool, manifest=manifest, **settings)
        # A persisted manifest restores the previous layout before the
        # router takes traffic; CLI --dataset entries register after,
        # so an explicit boot dataset wins over a stale manifest row.
        app.bootstrap()
        for name, spec in (datasets or {}).items():
            app.register_blocking(name, spec)
    except BaseException:
        pool.stop(graceful=False)
        raise
    return app


def run_router(
    host: str = "127.0.0.1",
    port: int = 8766,
    workers: int = 2,
    manifest_path: Optional[str] = None,
    probe_interval: float = DEFAULT_PROBE_INTERVAL,
    serve_args: Sequence[str] = (),
    datasets: Optional[Mapping[str, Any]] = None,
    announce=None,
    **settings: Any,
) -> None:
    """Blocking entry point for ``python -m repro route``.

    ``settings`` are :class:`RouterApp`'s.
    """
    app = _build_router(
        workers, manifest_path, probe_interval, serve_args, datasets, **settings
    )
    run_app(app, host, port, announce)


def start_router_thread(
    workers: int = 2,
    host: str = "127.0.0.1",
    port: int = 0,
    manifest_path: Optional[str] = None,
    probe_interval: float = DEFAULT_PROBE_INTERVAL,
    serve_args: Sequence[str] = (),
    datasets: Optional[Mapping[str, Any]] = None,
    boot_timeout: float = 30.0,
    **settings: Any,
) -> ServerHandle:
    """Start a router (plus its worker fleet) on a daemon thread.

    Returns once the router is listening; ``handle.stop()`` drains the
    router and the whole fleet.  The worker processes are real
    subprocesses — this is the fixture the failover tests and the
    router bench drive.  ``settings`` are :class:`RouterApp`'s.
    """
    app = _build_router(
        workers, manifest_path, probe_interval, serve_args, datasets, **settings
    )
    try:
        return start_app_thread(
            app, host, port, boot_timeout=boot_timeout, thread_name="repro-route"
        )
    except BaseException:
        app.pool.stop(graceful=False)
        raise
