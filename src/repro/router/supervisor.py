"""Worker-process pool: spawn, probe, restart-with-replay, drain.

Each worker is a full ``python -m repro serve`` process on its own
loopback port — a real process boundary, so N workers use N cores and
a crash (OOM, segfault in a native extension, operator ``kill``) takes
down one shard set, not the service.  The pool:

* **spawns** workers with ``--port 0`` and learns the bound port from
  the serve announce line (no port-picking races);
* **probes** liveness two ways: ``Popen.poll()`` catches process death
  within one supervision tick, and an HTTP ``GET /health`` probe
  catches wedged-but-alive processes after a few consecutive failures;
* **restarts** a dead worker in place — same slot id, fresh process,
  new generation — and **replays** every dataset the placement
  manifest says the slot owns (``replace=True``, so replay is
  idempotent), followed by each dataset's recorded event batches in
  append order, before marking the slot running again;
* **drains** on shutdown by fanning ``POST /shutdown`` out to every
  worker (each drains its own in-flight streams per the serve layer's
  graceful-stop rules), then waits, then kills stragglers.

Slot ids (``worker-0`` …) are the placement keys and deliberately
survive restarts: a replacement process inherits its slot's datasets,
so placement never moves on a crash.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple
from urllib.parse import quote

from ..errors import ReproError, ValidationError
from .manifest import ManifestEntry, PlacementManifest

__all__ = [
    "WorkerStatus",
    "WorkerPool",
    "worker_request",
    "DEFAULT_PROBE_INTERVAL",
    "DEFAULT_BOOT_TIMEOUT",
]

#: Seconds between supervision ticks (process poll + health probe).
DEFAULT_PROBE_INTERVAL = 0.5

#: Seconds a freshly spawned worker gets to print its announce line
#: (imports numpy, binds the socket) before the spawn counts as failed.
DEFAULT_BOOT_TIMEOUT = 30.0

#: Consecutive failed health probes before a live-but-wedged process is
#: killed and restarted.  Process *death* needs no streak — one tick.
PROBE_FAILURE_THRESHOLD = 3

_ANNOUNCE_RE = re.compile(r"serving on http://([0-9.]+):(\d+)")

#: Everything a blocking worker round trip can raise: socket errors and
#: protocol-level failures (e.g. BadStatusLine from a wedged worker
#: emitting garbage — which must count as an unhealthy probe, not
#: escape to the supervise loop's last-resort handler).
_REQUEST_ERRORS = (OSError, http.client.HTTPException)


@dataclass(frozen=True)
class WorkerStatus:
    """Immutable snapshot of one slot, safe to hand across threads."""

    slot: str
    generation: int
    running: bool
    host: Optional[str]
    port: Optional[int]
    pid: Optional[int]
    restarts: int


def worker_request(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Optional[Any] = None,
    timeout: float = 30.0,
    raw_body: Optional[bytes] = None,
) -> Tuple[int, bytes]:
    """One blocking HTTP round trip to a worker (supervisor-side).

    The proxy's event loop has its own async client; this is for the
    supervisor thread (replay, graceful drain) and boot-time
    registration, where blocking is fine and stdlib ``http.client``
    is the simplest correct thing.  ``raw_body`` sends a non-JSON body
    verbatim (event-batch replay posts NDJSON); it is mutually
    exclusive with ``payload``.
    """
    if payload is not None and raw_body is not None:
        raise ValidationError("worker_request takes payload or raw_body, not both")
    if raw_body is not None:
        body: Optional[bytes] = raw_body
        content_type = "application/x-ndjson"
    else:
        body = json.dumps(payload).encode() if payload is not None else None
        content_type = "application/json"
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(
            method,
            path,
            body=body,
            headers={"Content-Type": content_type, "Connection": "close"},
        )
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class _WorkerProcess:
    """One generation of one slot: the OS process plus its bound address."""

    def __init__(self, slot: str, generation: int, cmd: List[str],
                 env: Dict[str, str]) -> None:
        self.slot = slot
        self.generation = generation
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.started_monotonic = time.monotonic()
        #: Last stdout/stderr lines, kept for the error message when a
        #: spawn fails or a worker dies unexpectedly.
        self.tail: deque = deque(maxlen=50)
        self._booted = threading.Event()
        self.process = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            bufsize=1,
            env=env,
        )
        # The reader thread drains stdout for the process's whole life:
        # it parses the announce line, and keeps the pipe from filling
        # (a full pipe would wedge the worker on its next print).
        self._reader = threading.Thread(
            target=self._read_output,
            name=f"repro-route-{slot}-out",
            daemon=True,
        )
        self._reader.start()

    def _read_output(self) -> None:
        assert self.process.stdout is not None
        for line in self.process.stdout:
            self.tail.append(line.rstrip("\n"))
            if not self._booted.is_set():
                match = _ANNOUNCE_RE.search(line)
                if match:
                    self.host = match.group(1)
                    self.port = int(match.group(2))
                    self._booted.set()
        self._booted.set()  # EOF: unblock any boot waiter

    def wait_booted(self, timeout: float) -> None:
        if not self._booted.wait(timeout) or self.port is None:
            tail = "\n".join(self.tail)
            self.kill()
            raise ReproError(
                f"worker {self.slot!r} failed to announce within {timeout:.0f}s; "
                f"output:\n{tail}"
            )

    @property
    def alive(self) -> bool:
        return self.process.poll() is None

    @property
    def pid(self) -> int:
        return self.process.pid

    def kill(self) -> None:
        if self.alive:
            self.process.kill()
        try:
            self.process.wait(timeout=5.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - defensive
            pass
        # The reader reaches EOF once the child has exited.  Close the
        # pipe only after it is done: closing under a blocked read would
        # wait on that read.
        self._reader.join(timeout=5.0)
        if not self._reader.is_alive():
            self.process.stdout.close()


class _WorkerState:
    """Mutable per-slot record, guarded by the pool lock."""

    def __init__(self) -> None:
        self.current: Optional[_WorkerProcess] = None
        self.generation = 0
        self.restarts = 0
        #: Current *streak* of failed health probes (resets on success;
        #: reaching PROBE_FAILURE_THRESHOLD triggers a restart).
        self.probe_failures = 0
        #: Cumulative failed probes over the slot's life (telemetry).
        self.probe_failures_total = 0
        self.replay_errors = 0
        self.last_error: Optional[str] = None


class WorkerPool:
    """Spawn and supervise N ``repro serve`` worker processes."""

    def __init__(
        self,
        workers: int = 2,
        host: str = "127.0.0.1",
        serve_args: Sequence[str] = (),
        manifest: Optional[PlacementManifest] = None,
        probe_interval: float = DEFAULT_PROBE_INTERVAL,
        boot_timeout: float = DEFAULT_BOOT_TIMEOUT,
        python: str = sys.executable,
    ) -> None:
        if workers < 1:
            raise ValidationError(f"need at least 1 worker, got {workers!r}")
        self.host = host
        self.serve_args = list(serve_args)
        self.manifest = manifest if manifest is not None else PlacementManifest()
        self.probe_interval = probe_interval
        self.boot_timeout = boot_timeout
        self.python = python
        #: Event batches re-appended during replay, fleet-wide (both the
        #: supervisor's restart replay and the router's boot replay
        #: count here — the ``router_replayed_event_batches_total``
        #: metric reads it).
        self.replayed_event_batches_total = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        #: Processes spawned but not yet adopted into a slot's
        #: ``current`` — tracked so a stop() racing a mid-restart spawn
        #: (which can sit in boot/replay for a long time) still finds
        #: and kills them instead of orphaning a live subprocess.
        self._pending: set = set()
        self._states: Dict[str, _WorkerState] = {
            f"worker-{i}": _WorkerState() for i in range(workers)
        }

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn every worker, then start the supervision thread."""
        for slot, state in self._states.items():
            proc = self._spawn(slot)
            with self._lock:
                state.current = proc
                state.generation = proc.generation
                self._pending.discard(proc)
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-route-supervisor", daemon=True
        )
        self._supervisor.start()

    def _spawn(self, slot: str) -> _WorkerProcess:
        with self._lock:
            generation = self._states[slot].generation + 1
        cmd = [
            self.python, "-m", "repro", "serve",
            "--host", self.host, "--port", "0",
            *self.serve_args,
        ]
        env = dict(os.environ)
        # The worker must import the same `repro` this router runs —
        # including editable/source checkouts pytest put on sys.path.
        package_root = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        )
        src_root = os.path.dirname(package_root)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            f"{src_root}{os.pathsep}{existing}" if existing else src_root
        )
        env["PYTHONUNBUFFERED"] = "1"  # announce line must not sit in a buffer
        proc = _WorkerProcess(slot, generation, cmd, env)
        with self._lock:
            self._pending.add(proc)
        try:
            proc.wait_booted(self.boot_timeout)
        except BaseException:
            with self._lock:
                self._pending.discard(proc)
            raise  # wait_booted killed the process already
        return proc

    # ------------------------------------------------------------------
    def slots(self) -> Tuple[str, ...]:
        """Every configured slot id, dead or alive.

        Placement hashes over *slots*, not live processes: a dataset
        placed while its worker restarts still belongs to that slot
        (queries get 503 until the replay lands), which is what keeps
        placement deterministic across crashes and restarts.
        """
        with self._lock:
            return tuple(self._states)

    def status(self, slot: str) -> WorkerStatus:
        with self._lock:
            state = self._states.get(slot)
            if state is None:
                raise ValidationError(
                    f"unknown worker slot {slot!r}; configured: "
                    f"{', '.join(self._states)}"
                )
            proc = state.current
            running = proc is not None and proc.alive and proc.port is not None
            return WorkerStatus(
                slot=slot,
                generation=state.generation,
                running=running,
                host=proc.host if proc is not None else None,
                port=proc.port if proc is not None else None,
                pid=proc.pid if proc is not None else None,
                restarts=state.restarts,
            )

    def statuses(self) -> List[WorkerStatus]:
        return [self.status(slot) for slot in self.slots()]

    # ------------------------------------------------------------------
    def _supervise(self) -> None:
        while not self._stop.wait(self.probe_interval):
            for slot in self.slots():
                if self._stop.is_set():
                    return
                try:
                    self._check_one(slot)
                except Exception as exc:  # noqa: BLE001 - keep supervising
                    with self._lock:
                        state = self._states.get(slot)
                        if state is not None:
                            state.last_error = f"{type(exc).__name__}: {exc}"

    def _check_one(self, slot: str) -> None:
        with self._lock:
            state = self._states[slot]
            proc = state.current
        if proc is None:
            self._restart(slot)
            return
        if not proc.alive:
            self._restart(slot)
            return
        # Liveness probe: a process can survive while its event loop is
        # wedged; a short /health round trip catches that.
        try:
            status, _body = worker_request(
                proc.host, proc.port, "GET", "/health", timeout=2.0
            )
            healthy = status == 200
        except _REQUEST_ERRORS:
            healthy = False
        with self._lock:
            state.probe_failures = 0 if healthy else state.probe_failures + 1
            if not healthy:
                state.probe_failures_total += 1
            wedged = state.probe_failures >= PROBE_FAILURE_THRESHOLD
        if wedged:
            proc.kill()
            self._restart(slot)

    def _restart(self, slot: str) -> None:
        """Replace a dead worker and replay its datasets (in place).

        The slot is marked not-running for the whole restart (queries
        racing it get 503 from the proxy), and only flips back to
        running once every manifest entry it owns has been replayed —
        a half-replayed worker must not serve 404s for datasets it is
        about to re-register.
        """
        if self._stop.is_set():
            return
        with self._lock:
            state = self._states[slot]
            old = state.current
            state.current = None  # status(): running=False from here on
            state.probe_failures = 0
        if old is not None:
            old.kill()
        proc = self._spawn(slot)
        replay_errors = self._replay(slot, proc)
        with self._lock:
            self._pending.discard(proc)
            if self._stop.is_set():
                # stop() raced this restart: its kill sweep ran off the
                # pre-restart process list, so this fresh worker must
                # not be adopted (it would outlive the router).
                adopt = False
            else:
                adopt = True
                state.current = proc
                state.generation = proc.generation
                state.restarts += 1
                state.replay_errors += replay_errors
        if not adopt:
            proc.kill()

    def replay_entry(
        self, host: str, port: int, entry: "ManifestEntry"
    ) -> Tuple[int, Optional[str]]:
        """Replay one manifest entry onto a worker: seed, then events.

        The seed registration goes first (``replace=True``, idempotent);
        every recorded event batch follows in append order, so the
        worker re-derives the exact epoch and point set that was being
        served.  Returns ``(errors, last_error_message)`` — a failed
        seed short-circuits (appending onto a missing dataset would
        404), a failed batch does not (later batches are independent
        points; replaying what can be replayed beats stopping).
        Successfully replayed batches count into
        :attr:`replayed_event_batches_total`.
        """
        payload = dict(entry.payload, replace=True)
        try:
            status, body = worker_request(
                host, port, "POST", "/datasets", payload, timeout=120.0
            )
        except _REQUEST_ERRORS as exc:
            status, body = 0, str(exc).encode()
        if status != 201:
            return 1, (
                f"replay of dataset {entry.name!r} failed: "
                f"HTTP {status} {body[:200]!r}"
            )
        errors = 0
        last_error: Optional[str] = None
        path = f"/datasets/{quote(entry.name, safe='')}/events"
        for batch in entry.events:
            try:
                status, body = worker_request(
                    host, port, "POST", path, timeout=120.0,
                    raw_body=batch.encode("utf-8"),
                )
            except _REQUEST_ERRORS as exc:
                status, body = 0, str(exc).encode()
            if status != 200:
                errors += 1
                last_error = (
                    f"event replay for dataset {entry.name!r} failed: "
                    f"HTTP {status} {body[:200]!r}"
                )
            else:
                with self._lock:
                    self.replayed_event_batches_total += 1
        return errors, last_error

    def _replay(self, slot: str, proc: _WorkerProcess) -> int:
        """Restore every dataset the manifest assigns to ``slot``."""
        errors = 0
        for entry in self.manifest.owned_by(slot):
            entry_errors, last_error = self.replay_entry(
                proc.host, proc.port, entry
            )
            if entry_errors:
                errors += entry_errors
                with self._lock:
                    self._states[slot].last_error = last_error
        return errors

    # ------------------------------------------------------------------
    def stop(self, graceful: bool = True, timeout: float = 10.0) -> None:
        """Stop supervising, drain the fleet, kill stragglers (idempotent)."""
        self._stop.set()
        if self._supervisor is not None and self._supervisor.is_alive():
            self._supervisor.join(self.probe_interval * 4 + 2.0)
        with self._lock:
            procs = [s.current for s in self._states.values() if s.current]
            for state in self._states.values():
                state.current = None
        if graceful:
            # Fan the shutdown out first — every worker starts draining
            # its in-flight streams concurrently — then wait for exits.
            for proc in procs:
                if proc.alive and proc.port is not None:
                    try:
                        worker_request(
                            proc.host, proc.port, "POST", "/shutdown", timeout=2.0
                        )
                    except _REQUEST_ERRORS:
                        pass
            deadline = time.monotonic() + timeout
            for proc in procs:
                remaining = max(0.1, deadline - time.monotonic())
                try:
                    proc.process.wait(timeout=remaining)
                except subprocess.TimeoutExpired:
                    pass
        for proc in procs:
            proc.kill()
        # Second sweep: a restart racing this stop may have adopted a
        # fresh process after the list above was snapshotted, or still
        # be parked in boot/replay with the process only in _pending.
        with self._lock:
            stragglers = [s.current for s in self._states.values() if s.current]
            for state in self._states.values():
                state.current = None
            stragglers.extend(self._pending)
            self._pending.clear()
        for proc in stragglers:
            proc.kill()

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Each slot's supervision record (the router's ``/stats`` and
        its ``router_worker_*`` callbacks)."""
        out: Dict[str, Any] = {}
        for status in self.statuses():
            with self._lock:
                state = self._states[status.slot]
                last_error = state.last_error
                replay_errors = state.replay_errors
                probe_failures_total = state.probe_failures_total
            out[status.slot] = {
                "alive": status.running,
                "generation": status.generation,
                "restarts": status.restarts,
                "replay_errors": replay_errors,
                "probe_failures_total": probe_failures_total,
                "pid": status.pid,
                "address": (
                    f"{status.host}:{status.port}" if status.port else None
                ),
                "last_error": last_error,
            }
        return out
