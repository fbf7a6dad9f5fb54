"""Layer timers for the benchmark's traced run.

Python imports ``sitecustomize`` at start-up from the first directory on
``sys.path`` that has one.  The benchmark puts this directory on
``PYTHONPATH`` only for its traced run, and names an output directory
in ``E2EBENCH_SPAN_DIR``; every ``repro`` process of that run —
``repro serve``, ``repro route`` and the workers the router spawns,
which inherit the environment — then wraps the public entry points of
each layer before the server starts.  Nothing under ``src/`` changes.

Each wrapper records a span ``(name, start, end, id, parent, request,
attrs)`` in memory.  ``request`` is the trace id of the client's
``traceparent`` header (the router forwards it to its worker, so both
processes' spans of one request share it).  Spans are written to
``spans-<pid>.json`` when the process exits, never while it serves.

``record_to_dict`` runs once per record, so it gets an accumulator
instead of spans; the ``_result_lines`` spans carry its time and call
count for the lines they produced.
"""

from __future__ import annotations

import atexit
import contextvars
import itertools
import json
import os
import threading
import time

_SPAN_DIR = os.environ.get("E2EBENCH_SPAN_DIR")

_spans: list = []
_ids = itertools.count(1)
_clock = time.perf_counter
#: (request key, dispatch span id) of the request the current task serves.
_request = contextvars.ContextVar("e2ebench_request", default=(None, None))
#: (request key, span id) of the executor work running on this thread.
_thread = threading.local()
#: id(plan) -> (request key, dispatch span id, submit instant).
_submitted: dict = {}
#: [seconds, calls] spent in record_to_dict by this process.
_r2d = [0.0, 0]
_process = {"tier": None}
#: Entry points this program no longer has (renamed by a refactor): the
#: report lists them, so a silently untimed layer cannot pass unseen.
_missing: list = []


def _key(request) -> "str | None":
    header = request.headers.get("traceparent")
    parts = header.split("-") if header else ()
    return parts[1] if len(parts) == 4 else None


def _emit(name, t0, t1, parent=None, key=None, attrs=None, sid=None):
    _spans.append((name, t0, t1, sid or next(_ids), parent, key, attrs))


def _dump() -> None:
    path = os.path.join(_SPAN_DIR, f"spans-{os.getpid()}.json")
    with open(path + ".tmp", "w") as fh:
        json.dump({"pid": os.getpid(), "tier": _process["tier"],
                   "missing": _missing, "spans": _spans}, fh)
    os.replace(path + ".tmp", path)


def _patch(owner, attr: str, make) -> None:
    """Replace ``owner.attr`` by ``make(original)``, or note it missing."""
    inner = getattr(owner, attr, None)
    if inner is None:
        _missing.append(f"{owner.__name__}.{attr}")
        return
    setattr(owner, attr, make(inner))


def _timed_read_request(read_request):
    async def timed(reader, *args, **kwargs):
        t0 = _clock()
        request = await read_request(reader, *args, **kwargs)
        if request is not None:
            _emit("http.read_request", t0, _clock(), key=_key(request))
        return request
    return timed


def _timed_dispatch(dispatch):
    async def timed(self, request, writer, state):
        _process["tier"] = self.tier
        key, sid = _key(request), next(_ids)
        token = _request.set((key, sid))
        t0 = _clock()
        try:
            return await dispatch(self, request, writer, state)
        finally:
            _emit("dispatch", t0, _clock(), key=key, sid=sid, attrs={"path": request.path})
            _request.reset(token)
    return timed


def _timed_plan_batch(plan_batch):
    def timed(*args, **kwargs):
        key, parent = _request.get()
        t0 = _clock()
        try:
            return plan_batch(*args, **kwargs)
        finally:
            _emit("engine.planner.plan_batch", t0, _clock(), parent, key)
    return timed


def _timed_submit_plans(submit_plans):
    def timed(shard, plans, *args, **kwargs):
        key, parent = _request.get()
        t0 = _clock()
        for plan in plans:
            _submitted[id(plan)] = (key, parent, t0)
        rejected = True
        try:
            futures = submit_plans(shard, plans, *args, **kwargs)
            rejected = False
            return futures
        finally:
            if rejected:
                for plan in plans:
                    _submitted.pop(id(plan), None)
            _emit("serve.bridge.submit_plans", t0, _clock(), parent, key,
                  {"plans": len(plans), "rejected": rejected})
    return timed


def _timed_execute_plan(execute_plan):
    def timed(plan, *args, **kwargs):
        t0 = _clock()
        key, parent, submitted = _submitted.pop(id(plan), (None, None, None))
        if submitted is not None:
            _emit("serve.bridge.queue_wait", submitted, t0, parent, key)
        sid = next(_ids)
        _thread.current = (key, sid)
        try:
            return execute_plan(plan, *args, **kwargs)
        finally:
            _thread.current = None
            _emit("engine.executor.execute_plan", t0, _clock(), parent, key,
                  {"kind": plan.spec.kind}, sid=sid)
    return timed


def _timed_get_or_build(get_or_build):
    def timed(self, key, builder):
        t0 = _clock()
        outcome = get_or_build(self, key, builder)
        request, parent = getattr(_thread, "current", None) or (None, None)
        _emit("engine.cache.get", t0, _clock(), parent, request, {
            "source": outcome.source, "family": key.family,
            "build_s": outcome.build_seconds if outcome.source == "build" else 0.0,
        })
        return outcome
    return timed


def _timed_advance(advance):
    def timed(self, *args, **kwargs):
        request, parent = getattr(_thread, "current", None) or (None, None)
        t0 = _clock()
        moved = advance(self, *args, **kwargs)
        _emit("engine.cache.advance", t0, _clock(), parent, request, {
            "migrated": len(moved["migrated"]), "invalidated": len(moved["invalidated"]),
        })
        return moved
    return timed


def _timed_thread_entry(name):
    """Work the server runs on the default executor (appends,
    registrations): its children find it through the thread-local."""
    def make(inner):
        def timed(self, *args, **kwargs):
            sid = next(_ids)
            _thread.current = (None, sid)
            t0 = _clock()
            try:
                return inner(self, *args, **kwargs)
            finally:
                _thread.current = None
                _emit(name, t0, _clock(), sid=sid)
        return timed
    return make


def _timed_send_chunk(send_chunk):
    async def timed(*args, **kwargs):
        key, parent = _request.get()
        t0 = _clock()
        sent = await send_chunk(*args, **kwargs)
        _emit("serve.http.send_chunk", t0, _clock(), parent, key, {"bytes": sent})
        return sent
    return timed


def _timed_record_to_dict(record_to_dict):
    def timed(record):
        t0 = _clock()
        out = record_to_dict(record)
        _r2d[0] += _clock() - t0
        _r2d[1] += 1
        return out
    return timed


def _timed_result_lines(result_lines):
    def timed(*args, **kwargs):
        key, parent = _request.get()
        lines = result_lines(*args, **kwargs)
        while True:
            t0, r2d_s, r2d_n = _clock(), _r2d[0], _r2d[1]
            try:
                line = next(lines)
            except StopIteration:
                return
            _emit("engine.results.result_lines", t0, _clock(), parent, key, {
                "r2d_s": _r2d[0] - r2d_s, "r2d_n": _r2d[1] - r2d_n,
            })
            yield line
    return timed


def _install() -> None:
    atexit.register(_dump)
    from repro.engine.cache import IndexCache
    from repro.router.proxy import RouterApp
    from repro.serve import bridge, server
    from repro.serve.registry import DatasetRegistry, DatasetShard

    # Functions are patched where their caller looks them up: the names
    # repro.serve.server and repro.serve.bridge imported.
    _patch(server, "read_request", _timed_read_request)
    _patch(server.ServeApp, "_dispatch", _timed_dispatch)
    _patch(RouterApp, "_dispatch", _timed_dispatch)
    _patch(server, "plan_batch", _timed_plan_batch)
    _patch(server, "submit_plans", _timed_submit_plans)
    _patch(bridge, "execute_plan", _timed_execute_plan)
    _patch(IndexCache, "get_or_build", _timed_get_or_build)
    _patch(IndexCache, "advance", _timed_advance)
    _patch(DatasetShard, "append_events", _timed_thread_entry("serve.registry.append_events"))
    _patch(DatasetRegistry, "register", _timed_thread_entry("serve.registry.register"))
    _patch(server, "send_chunk", _timed_send_chunk)
    _patch(server, "record_to_dict", _timed_record_to_dict)
    _patch(server, "_result_lines", _timed_result_lines)


if _SPAN_DIR:
    _install()
