"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro import TemporalPointSet

# ----------------------------------------------------------------------
# Random workload helpers (deterministic per seed)
# ----------------------------------------------------------------------


def random_tps(
    n: int = 60,
    dim: int = 2,
    seed: int = 0,
    metric: str = "l2",
    box: float = 4.0,
    horizon: float = 20.0,
    max_len: float = 12.0,
    integer_times: bool = True,
) -> TemporalPointSet:
    """A reproducible random temporal point set.

    Coordinates are uniform in ``[0, box]^dim`` so that with box ≈ 4 a
    unit-ball query sees a non-trivial neighbourhood.  Lifespans default
    to integer endpoints to keep durability comparisons exact.
    """
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, box, size=(n, dim))
    if integer_times:
        starts = rng.integers(0, int(horizon), size=n).astype(float)
        lengths = rng.integers(0, int(max_len) + 1, size=n).astype(float)
    else:
        starts = rng.uniform(0, horizon, size=n)
        lengths = rng.uniform(0, max_len, size=n)
    return TemporalPointSet(pts, starts, starts + lengths, metric=metric)


#: A few (start, length) values, so many points share a lifespan and
#: many lifespans share an endpoint.
_STARTS = (0.0, 0.5, 1.0, 1.25, 2.0, 3.0)
_LENGTHS = (0.0, 1.0, 2.5, 3.0, 4.0, 5.5, 7.0)


@st.composite
def clustered_tps(draw):
    """Float point sets in a few tight clusters, with shared lifespans
    and endpoints: several points per grid cell and many ties, which is
    where the vector kernels' order and arithmetic show."""
    metric = draw(st.sampled_from(["l1", "l2", "linf"]))
    coord = st.floats(0.0, 4.0, allow_nan=False, allow_infinity=False)
    centers = draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=6))
    jitter = st.floats(0.0, 0.06, allow_nan=False, allow_infinity=False)
    n = draw(st.integers(5, 16))
    picks = draw(
        st.lists(
            st.tuples(st.integers(0, len(centers) - 1), jitter, jitter),
            min_size=n, max_size=n,
        )
    )
    starts = draw(st.lists(st.sampled_from(_STARTS), min_size=n, max_size=n))
    lengths = draw(st.lists(st.sampled_from(_LENGTHS), min_size=n, max_size=n))
    pts = np.asarray(
        [(centers[c][0] + dx, centers[c][1] + dy) for c, dx, dy in picks]
    )
    s = np.asarray(starts)
    return TemporalPointSet(pts, s, s + np.asarray(lengths), metric=metric)


def index_classes() -> dict:
    """The index class each key's ``(backend, family)`` names."""
    from repro.backends import vector
    from repro.core.aggregate import SumPairIndex, UnionPairIndex
    from repro.core.linf import LinfTriangleIndex
    from repro.core.patterns import PatternIndex
    from repro.core.triangles import DurableTriangleIndex

    spatial = {
        "triangles": DurableTriangleIndex,
        "pairs-sum": SumPairIndex,
        "pairs-union": UnionPairIndex,
        "patterns": PatternIndex,
    }
    return {
        "cover-tree": spatial,
        "grid": spatial,
        "vector": {
            "triangles": vector.VectorTriangleIndex,
            "pairs-sum": vector.VectorSumPairIndex,
            "pairs-union": vector.VectorUnionPairIndex,
            "patterns": vector.VectorPatternIndex,
        },
        "linf-exact": {"linf-triangles": LinfTriangleIndex},
    }


def check_plan_builds_its_key(tps: TemporalPointSet, spec) -> tuple[str, str]:
    """Build ``spec``'s plan over ``tps`` and check the index against the
    plan's key; return the key's ``(backend, family)``.

    The descriptor's key is the only cache identity, so it must describe
    what the plan's builder returns: the index class of its family and
    backend, over the same dataset version and ε.
    """
    from repro.engine import plan_query

    classes = index_classes()
    plan = plan_query(0, spec, tps)
    key, index = plan.key, plan.builder()
    assert type(index) is classes[key.backend][key.family], spec
    assert index.tps.fingerprint() == key.fingerprint == tps.fingerprint()
    if key.backend == "linf-exact":
        assert key.epsilon == 0.0  # the exact solver has no ε
    else:
        assert index.epsilon == key.epsilon == spec.epsilon, spec
    if classes[key.backend] is classes["grid"]:
        assert index.backend == key.backend, spec
    if key.family == "pairs-sum":
        # The vector SUM index always scores through profiles.
        expected = getattr(index, "sum_backend", "profile")
        assert key.extra == (expected,), spec
    else:
        assert key.extra == (), spec
    return key.backend, key.family


def check_route_table(handle, name: str) -> None:
    """Drive every route of ``ROUTES`` over a live front end (either tier).

    Each route answers every method the table does not list for it with
    405 ``<M> not allowed on <path>``; paths that match no route answer
    404 ``no route for '<path>'`` and are counted under the front end's
    own ``route="other"`` series.  ``name`` is a registered dataset (the
    table's ``{name}``); only methods a route rejects are sent, so
    nothing changes on the server.
    """
    import http.client
    import json
    from urllib.parse import quote

    from repro.obs import parse_exposition
    from repro.serve.server import ROUTES

    def send(method: str, path: str):
        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=60)
        try:
            conn.request(method, path)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def other_404s() -> float:
        _status, body = send("GET", "/metrics")
        return sum(
            s.value
            for s in parse_exposition(body.decode())["http_requests_total"].samples
            if "worker" not in s.labels
            and (s.labels["route"], s.labels["status"]) == ("other", "404")
        )

    allowed: dict = {}
    for method, route in ROUTES:
        allowed.setdefault(route, set()).add(method)
    for route, methods in allowed.items():
        path = route.replace("{name}", quote(name, safe="")).replace("{id}", "0" * 32)
        for method in sorted({"GET", "POST", "DELETE", "PUT"} - methods):
            status, body = send(method, path)
            assert (status, json.loads(body)["error"]) == (
                405, f"{method} not allowed on {path}"
            ), (method, route)
    unknown = ("/nope", "/datasets/", f"/datasets/{name}/x", "/debug/tracesX")
    before = other_404s()
    for path in unknown:
        for method in ("GET", "POST"):
            status, body = send(method, path)
            assert (status, json.loads(body)["error"]) == (
                404, f"no route for {path!r}"
            ), (method, path)
    assert other_404s() - before == 2 * len(unknown)


def random_intervals(n: int, seed: int = 0, horizon: int = 50):
    """Random integer-endpoint (start, end) pairs."""
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, horizon, size=n)
    lengths = rng.integers(0, horizon // 2 + 1, size=n)
    return [(float(s), float(s + l)) for s, l in zip(starts, lengths)]


@pytest.fixture
def small_tps() -> TemporalPointSet:
    return random_tps(n=40, seed=7)


@pytest.fixture
def medium_tps() -> TemporalPointSet:
    return random_tps(n=120, seed=11)
