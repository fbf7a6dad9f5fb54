"""The three workloads: what each serves, what it sends, and why.

All load is closed-loop — a client sends its next request only after
the previous answer has been read and checked — from at most two
client threads, each on its own keep-alive connection.  The run's
``--seed`` draws each client's τ values, the appended events and the
verification sample.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from client import Client, Op, timed_append, timed_query

#: (kind, τ low, τ high, extra query fields).  The ranges put each
#: family at about 1.3–1.5k records on the n=2000 uniform set.  They
#: are narrow so that every request does about the same work (a run's
#: figures then depend little on its draws), yet τ at 0.001 steps
#: rarely repeats, so an exact-answer cache cannot fake a gain.
SWEEP_FAMILIES: Tuple[Tuple[str, float, float, Dict[str, Any]], ...] = (
    ("triangles", 3.9, 4.1, {}),
    ("pairs-sum", 5.4, 5.6, {}),
    ("pairs-union", 5.4, 5.6, {"kappa": 3}),
    ("cliques", 3.9, 4.1, {"m": 3}),
)

#: Tiny answers on the n=300 social set: tens of records each.
CHATTY_FAMILIES: Tuple[Tuple[str, float, float, Dict[str, Any]], ...] = (
    ("triangles", 3.9, 4.1, {}),
    ("pairs-sum", 3.9, 4.1, {}),
)

#: The dataset is the same for every ``--seed``: runs on different
#: seeds then measure the same work, so their spread is the
#: measurement's own.  The seed drives τ draws, events and sampling.
DATASET_SEED = 7

#: Events per append: far below the 0.5·n rebuild threshold, so every
#: append takes the incremental-maintenance path.
EVENTS_PER_APPEND = 5


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "serve" or "route"
    command_args: Tuple[str, ...]
    generator: str
    n: int
    tiny_n: int
    families: Tuple[Tuple[str, float, float, Dict[str, Any]], ...]
    include_records: bool
    clients: int
    appends: bool
    #: Requests per client the verifier may sample from, and how many.
    verify_from: int
    verify_count: int

    def dataset_spec(self, tiny: bool) -> Dict[str, Any]:
        return {"workload": self.generator, "n": self.tiny_n if tiny else self.n,
                "seed": DATASET_SEED}

    def batch(self, rng: random.Random) -> List[Dict[str, Any]]:
        """One request: one query per family, τ drawn per request."""
        return [
            {"kind": kind, "tau": round(rng.uniform(lo, hi), 3), **extra}
            for kind, lo, hi, extra in self.families
        ]

    def first_touch_batch(self) -> List[Dict[str, Any]]:
        """Every index the workload uses, at the low end of each τ range
        (the largest answers), so lazy structures are charged to set-up."""
        return [{"kind": kind, "tau": lo, **extra} for kind, lo, _, extra in self.families]


#: Why each workload exists is its ``why`` in ``BENCHMARK.json``.
WORKLOADS: Dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload(
            name="warm-sweep",
            command="serve", command_args=(),
            generator="uniform", n=2000, tiny_n=200,
            families=SWEEP_FAMILIES, include_records=True,
            clients=2, appends=False, verify_from=12, verify_count=3,
        ),
        Workload(
            name="routed-chatty",
            command="route", command_args=("--workers", "1"),
            generator="social", n=300, tiny_n=100,
            families=CHATTY_FAMILIES, include_records=False,
            clients=2, appends=False, verify_from=200, verify_count=8,
        ),
        Workload(
            name="ingest-interleaved",
            command="serve", command_args=(),
            generator="uniform", n=2000, tiny_n=200,
            families=SWEEP_FAMILIES, include_records=True,
            clients=1, appends=True, verify_from=12, verify_count=2,
        ),
    )
}

DATASET = "bench"


def make_events(rng: random.Random, box: Tuple[float, float], dim: int,
                count: int) -> List[Dict[str, Any]]:
    """Appended points: uniform in the dataset's box and its time horizon.

    Lifespans are short (0.5–5 time units, against τ ≥ 3.9), so answers
    barely grow as a run appends: a run that appends more does not get
    more work per query.  The few that outlast τ still join triangle and
    clique answers, so the verifier sees appended ids.
    """
    lo, hi = box
    events = []
    for _ in range(count):
        start = round(rng.uniform(0.0, 60.0), 6)
        events.append({
            "point": [round(rng.uniform(lo, hi), 6) for _ in range(dim)],
            "start": start,
            "end": round(start + rng.uniform(0.5, 5.0), 6),
        })
    return events


def trace_id(seed: int, client: int, seq: int) -> str:
    """A distinct W3C trace id per operation: the layer timers key the
    spans of one request on it, across the router and its worker."""
    return f"{seed & 0xFFFFFFFF:08x}{client + 1:08x}{seq + 1:016x}"


@dataclass
class Load:
    ops: List[Op]
    t_start: float
    t_end: float
    events: List[Dict[str, Any]]


def run_load(wl: Workload, host: str, port: int, seconds: float, seed: int,
             box: Tuple[float, float], dim: int) -> Load:
    """Drive the workload's closed loop for ``seconds``; returns every op."""
    ops: List[Op] = []
    events: List[Dict[str, Any]] = []
    lock = threading.Lock()
    errors: List[BaseException] = []
    t_start = time.perf_counter()
    deadline = t_start + seconds

    def client_loop(index: int) -> None:
        rng = random.Random(f"{seed}:client:{index}")
        picker = random.Random(f"{seed}:verify:{index}")
        verify = set(picker.sample(range(wl.verify_from), wl.verify_count))
        client = Client(host, port)
        seq = queries_sent = 0
        try:
            while time.perf_counter() < deadline:
                if wl.appends:
                    batch = make_events(rng, box, dim, EVENTS_PER_APPEND)
                    op = Op("append", index, seq, trace_id(seed, index, seq), 0.0)
                    timed_append(client, op, DATASET, batch)
                    with lock:
                        ops.append(op)
                        if op.ok:
                            events.extend(batch)
                    seq += 1
                    if not op.ok:
                        continue
                queries = wl.batch(rng)
                op = Op("query", index, seq, trace_id(seed, index, seq), 0.0,
                        events_before=len(events))
                timed_query(client, op, DATASET, queries, wl.include_records,
                            keep_ids=queries_sent in verify)
                with lock:
                    ops.append(op)
                seq += 1
                queries_sent += 1
        except BaseException as exc:  # noqa: BLE001 - surfaced by the caller
            errors.append(exc)
        finally:
            client.close()

    threads = [threading.Thread(target=client_loop, args=(i,)) for i in range(wl.clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    ops.sort(key=lambda op: op.t0)
    return Load(ops, t_start, max((op.t1 for op in ops), default=t_start), events)


def tau_repeat_share(ops: List[Op]) -> float:
    """Share of query items whose (family, τ) an earlier item already asked."""
    seen = set()
    items = repeats = 0
    for op in ops:
        if op.kind != "query" or not op.payload:
            continue
        for query in op.payload:
            key = (query["kind"], query["tau"])
            items += 1
            repeats += key in seen
            seen.add(key)
    return repeats / items if items else 0.0


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 1]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
