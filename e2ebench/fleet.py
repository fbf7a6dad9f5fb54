"""Boot the program as users run it and read its processes' resource use.

A :class:`Fleet` is one ``python -m repro serve`` or ``python -m repro
route`` process tree, started from the checkout's ``src/`` with a
``PYTHONPATH`` the benchmark controls.  The traced run puts
``e2ebench/hook`` first on that path, so the hook's ``sitecustomize``
installs the layer timers in every ``repro`` process — including the
workers the router spawns, which inherit the environment.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

HOOK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "hook")

#: Directory the hook writes ``spans-<pid>.json`` into; also its on-switch.
SPAN_DIR_ENV = "E2EBENCH_SPAN_DIR"

_ADDRESS_RE = re.compile(r"(?:serving|routing) on http://([0-9.]+):(\d+)")
_WORKER_RE = re.compile(r"worker-\d+: pid (\d+) on")

BOOT_TIMEOUT = 60.0
STOP_TIMEOUT = 20.0


class BootError(RuntimeError):
    """A serving process did not come up."""


def http_call(host: str, port: int, method: str, path: str,
              body: Optional[bytes] = None,
              content_type: str = "application/json",
              timeout: float = 120.0) -> Tuple[int, bytes]:
    """One round trip on a throwaway connection (control plane only)."""
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(method, path, body=body, headers={
            "Content-Type": content_type, "Connection": "close",
        })
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def http_json(host: str, port: int, method: str, path: str,
              payload=None) -> Tuple[int, object]:
    body = json.dumps(payload).encode() if payload is not None else None
    status, raw = http_call(host, port, method, path, body)
    try:
        return status, json.loads(raw) if raw else {}
    except ValueError:
        return status, {"error": raw.decode("utf-8", "replace")}


def cpu_seconds(pid: int) -> float:
    """utime + stime of one process (all its threads), in seconds."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def peak_rss_mb(pid: int) -> float:
    """VmHWM (peak resident set) of one process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _pid_alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return False
    return state != "Z"


class Fleet:
    """One booted ``repro serve`` / ``repro route`` process tree."""

    def __init__(self, root: str, command: str, args: Sequence[str] = (),
                 span_dir: Optional[str] = None) -> None:
        env = dict(os.environ)
        path = [os.path.join(root, "src")]
        env.pop(SPAN_DIR_ENV, None)
        if span_dir is not None:
            path.insert(0, HOOK_DIR)
            env[SPAN_DIR_ENV] = span_dir
        env["PYTHONPATH"] = os.pathsep.join(path)
        env["PYTHONUNBUFFERED"] = "1"
        self.host = ""
        self.port = 0
        self.worker_pids: List[int] = []
        self._lines: List[str] = []
        self._booted = threading.Event()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", command, "--host", "127.0.0.1",
             "--port", "0", *args],
            cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        if not self._booted.wait(BOOT_TIMEOUT) or not self.port:
            self.stop()
            raise BootError(
                f"repro {command} did not announce within {BOOT_TIMEOUT:.0f}s:\n"
                + "\n".join(self._lines[-30:])
            )

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.append(line.rstrip("\n"))
            match = _ADDRESS_RE.search(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
            match = _WORKER_RE.search(line)
            if match:
                self.worker_pids.append(int(match.group(1)))
            if line.startswith("datasets:"):
                self._booted.set()  # the announce block's last line
        self._booted.set()

    @property
    def pids(self) -> List[int]:
        """Every process that serves requests (router plus workers)."""
        return [self.proc.pid, *self.worker_pids]

    def cpu_seconds(self) -> float:
        return sum(cpu_seconds(pid) for pid in self.pids)

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(pid) for pid in self.pids)

    def request(self, method: str, path: str, payload=None) -> Tuple[int, object]:
        return http_json(self.host, self.port, method, path, payload)

    def stop(self) -> None:
        """Graceful ``POST /shutdown``, then wait for every process to end.

        Stragglers are killed; a traced process writes its spans on the
        way out, so the graceful path is what keeps a traced run whole.
        """
        if self.proc.poll() is None and self.port:
            try:
                http_call(self.host, self.port, "POST", "/shutdown", timeout=10.0)
            except OSError:
                pass
        try:
            self.proc.wait(STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(STOP_TIMEOUT)
        deadline = time.monotonic() + STOP_TIMEOUT
        for pid in self.worker_pids:
            while _pid_alive(pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            if _pid_alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        self._reader.join(5.0)


def metrics_text(fleet: Fleet) -> str:
    status, raw = http_call(fleet.host, fleet.port, "GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered HTTP {status}")
    return raw.decode("utf-8")


def spans_files(span_dir: str, pids: Sequence[int], timeout: float = 10.0) -> Dict[int, str]:
    """Wait for each traced process's span dump; returns pid → path."""
    deadline = time.monotonic() + timeout
    out: Dict[int, str] = {}
    for pid in pids:
        path = os.path.join(span_dir, f"spans-{pid}.json")
        while not os.path.exists(path) and time.monotonic() < deadline:
            time.sleep(0.05)
        if os.path.exists(path):
            out[pid] = path
    return out
