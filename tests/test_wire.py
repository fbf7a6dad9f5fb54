"""The served NDJSON wire format, pinned byte for byte.

* A golden body (``tests/golden/query_body.ndjson``) holds one served
  batch covering every kind, a multi-τ sweep, an empty answer and a
  per-query error line; a served batch must reproduce it exactly once
  the timing fields are masked.
* Every vector family's :class:`~repro.blocks.RecordBlock` writes the
  text ``json.dumps`` writes for its records' ``record_to_dict`` dicts,
  and holds the grid backend's records (property test).
* Non-finite durabilities and scores are spelled as ``json.dumps``
  spells them, on the served path too.
* The vector served path builds no record object, counts only or with
  records.

Regenerate the golden file only for an intended wire change::

    PYTHONPATH=src python tests/test_wire.py
"""

import http.client
import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import QueryEngine, QuerySpec, TemporalPointSet
from repro.backends.vector import (
    VectorPatternIndex,
    VectorSumPairIndex,
    VectorTriangleIndex,
    VectorUnionPairIndex,
)
from repro.blocks import CliqueBlock, PairBlock, TriangleBlock
from repro.core.aggregate import SumPairIndex, UnionPairIndex
from repro.core.patterns import PatternIndex
from repro.core.triangles import DurableTriangleIndex
from repro.engine import QueryResult, record_to_dict
from repro.serve import start_server_thread
from repro.serve.server import records_line
from repro.types import PairRecord, PatternRecord, TriangleRecord

from conftest import clustered_tps, random_tps

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "query_body.ndjson")

GOLDEN_QUERIES = [
    {"kind": "triangles", "taus": [1.0, 2.5, 4.0], "label": "sweep"},
    {"kind": "triangles", "tau": 2.0, "backend": "grid"},
    {"kind": "pairs-sum", "tau": 3.0},
    {"kind": "pairs-union", "tau": 3.0, "kappa": 3},
    {"kind": "cliques", "tau": 3.0, "m": 3},
    {"kind": "cliques", "tau": 3.0, "m": 4},
    {"kind": "paths", "tau": 6.0, "m": 3},
    {"kind": "stars", "tau": 6.0, "m": 3},
    {
        "kind": "pattern-dsl",
        "tau": 6.0,
        "pattern": "seq(pairs(agg=sum), pairs(agg=sum), gap=[0,0.5])",
    },
    {"kind": "triangles", "tau": 1000.0, "label": "empty"},
    {"kind": "triangles", "tau": 2.0, "label": "poison"},
]

#: Fields whose values change from run to run.
_MASKS = [
    (re.compile(rb'"(query_seconds|build_seconds|wall_seconds)": [^,}]+'), rb'"\1": 0'),
    (re.compile(rb'"cache_hit": (true|false)'), rb'"cache_hit": null'),
    (re.compile(rb'"trace_id": "[0-9a-f]*"'), rb'"trace_id": ""'),
]


def golden_tps() -> TemporalPointSet:
    """32 points from closed formulas (no RNG), with lifespans whose
    endpoints and lengths need ``float.__repr__``'s shortest digits."""
    i = np.arange(32)
    points = np.column_stack(((i * 37 % 23) * 0.2, (i * 53 % 19) * 0.23))
    starts = (i * 7 % 11) * 0.3
    ends = starts + (i * 5 % 13) * 0.7 + 0.1
    return TemporalPointSet(points, starts, ends, metric="l2")


def mask(body: bytes) -> bytes:
    for pattern, replacement in _MASKS:
        body = pattern.sub(replacement, body)
    return body


def _poison_label(monkeypatch):
    """Make the query labelled ``poison`` fail inside the engine."""
    import repro.serve.bridge as bridge
    from repro.engine.executor import execute_plan

    def poisoned(plan, cache, raise_on_error=True, trace=None):
        if plan.spec.label == "poison":
            return QueryResult(
                spec=plan.spec, key=plan.key, records_by_tau={},
                cache_hit=False, build_seconds=0.0, query_seconds=0.0,
                error="RuntimeError: poisoned",
            )
        return execute_plan(plan, cache, raise_on_error, trace=trace)

    monkeypatch.setattr(bridge, "execute_plan", poisoned)


def served_body(handle, queries, dataset="golden", **extra) -> bytes:
    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=60)
    try:
        conn.request(
            "POST", "/query",
            body=json.dumps({"dataset": dataset, "queries": queries, **extra}),
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        assert resp.status == 200
        return resp.read()
    finally:
        conn.close()


def golden_body() -> bytes:
    """The masked body of the golden batch, served on a warm cache (so
    the batch-end cache counts do not depend on build races)."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        _poison_label(monkeypatch)
        handle = start_server_thread()
        try:
            handle.app.registry.register("golden", golden_tps())
            served_body(handle, GOLDEN_QUERIES)
            return mask(served_body(handle, GOLDEN_QUERIES))
        finally:
            handle.stop()


class TestGoldenBody:
    def test_served_batch_reproduces_the_golden_body(self):
        with open(GOLDEN, "rb") as fh:
            expected = fh.read()
        assert golden_body() == expected


def reference_line(index, tau, records) -> bytes:
    """A ``records`` line the way the object path always wrote it."""
    return json.dumps({
        "type": "records", "query": index, "tau": tau, "count": len(records),
        "records": [record_to_dict(r) for r in records],
    }).encode()


def _by_key(records):
    return sorted(records, key=lambda r: r.key)


class TestBlockText:
    @settings(max_examples=40, deadline=None)
    @given(
        tps=clustered_tps(),
        tau=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
        epsilon=st.sampled_from([0.5, 1.0]),
    )
    def test_blocks_write_json_dumps_text_of_grid_records(self, tps, tau, epsilon):
        grid_pat = PatternIndex(tps, epsilon, backend="grid")
        cases = [
            (
                VectorTriangleIndex(tps, epsilon).query_block(tau),
                DurableTriangleIndex(tps, epsilon, backend="grid").query(tau),
            ),
            (
                VectorSumPairIndex(tps, epsilon).query_block(tau),
                SumPairIndex(tps, epsilon, backend="grid").query(tau),
            ),
        ]
        vec_union = VectorUnionPairIndex(tps, epsilon)
        grid_union = UnionPairIndex(tps, epsilon, backend="grid")
        cases += [
            (vec_union.query_block(tau, kappa), grid_union.query(tau, kappa))
            for kappa in (1, 3)
        ]
        vec_pat = VectorPatternIndex(tps, epsilon)
        cases += [
            (vec_pat.clique_block(m, tau), list(grid_pat.iter_cliques(m, tau)))
            for m in (2, 3, 4)
        ]
        for block, grid in cases:
            records = block.records()
            assert block.json_array() == json.dumps(
                [record_to_dict(r) for r in records]
            ).encode()
            assert records_line(3, tau, block) == reference_line(3, tau, records)
            if isinstance(block, TriangleBlock):
                # Vector lists triangles in its own order.
                assert _by_key(records) == _by_key(grid)
            else:
                assert records == grid
            assert len(block) == len(records)

    def test_hand_built_blocks_cover_every_spelling(self):
        tri = TriangleBlock(
            np.array([[7, 1, 2], [9, 3, 4], [5, 6, 8], [2 ** 40, 0, 1]]),
            np.array([-1e308, 0.1, 2.0, 3.0]),
            np.array([1e308, 0.30000000000000004, 2.0, 1.0]),
        )
        pairs = PairBlock(
            np.array([1, 2, 3, 4, 5]),
            np.array([6, 7, 8, 9, 10]),
            np.array([np.nan, np.inf, -np.inf, -0.0, 1e-320]),
        )
        clique = CliqueBlock(
            np.array([[1, 2, 3, 4]]), np.array([0.5]), np.array([np.nextafter(0.5, 1)])
        )
        empty = TriangleBlock(np.empty((0, 3), dtype=np.int64), np.empty(0), np.empty(0))
        for block in (tri, pairs, clique, empty):
            text = block.json_array()
            assert text == json.dumps([record_to_dict(r) for r in block]).encode()
        assert [r.durability for r in tri][1:] == [0.20000000000000004, 0.0, 0.0]
        assert b'"durability": Infinity' in tri.json_array()
        assert b'"score": NaN' in pairs.json_array()
        assert b'"score": -Infinity' in pairs.json_array()
        assert b'"score": -0.0' in pairs.json_array()
        assert empty.json_array() == b"[]" and not empty

    def test_records_are_built_once(self):
        block = VectorTriangleIndex(random_tps(n=80, seed=3), 0.5).query_block(2.0)
        first = block.records()
        assert first and block.records() is first
        assert list(block) == first and block[0] == first[0]


# ----------------------------------------------------------------------
# Non-finite floats
# ----------------------------------------------------------------------
def _wide_tps() -> TemporalPointSet:
    """Points alive over ``[-1e308, 1e308]`` (finite), whose common
    lifespans are ``2e308`` long: the durability overflows to ∞.  Every
    fourth point lives over ``[0, 5]``, so finite values share columns
    with the infinite ones."""
    i = np.arange(16)
    points = np.column_stack(((i % 4) * 0.3, (i // 4) * 0.3))
    starts = np.where(i % 4 == 0, 0.0, -1e308)
    ends = np.where(i % 4 == 0, 5.0, 1e308)
    return TemporalPointSet(points, starts, ends)


WIDE_QUERIES = [
    {"kind": "triangles", "tau": 1.0},
    {"kind": "pairs-sum", "tau": 1.0},
    {"kind": "pairs-union", "tau": 1.0, "kappa": 2},
    {"kind": "cliques", "tau": 1.0, "m": 3},
]


class TestNonFinite:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_served_infinity_is_json_dumps_spelling_on_vector_and_grid(self):
        handle = start_server_thread()
        try:
            handle.app.registry.register("wide", _wide_tps())
            bodies = {
                backend: served_body(
                    handle, [{**q, "backend": backend} for q in WIDE_QUERIES],
                    dataset="wide",
                )
                for backend in ("vector", "grid")
            }
        finally:
            handle.stop()
        lines = {
            backend: [
                line for line in body.decode().splitlines()
                if line.startswith('{"type": "records"')
            ]
            for backend, body in bodies.items()
        }
        for backend, (tri, sum_, union, cliques) in lines.items():
            assert '"durability": Infinity' in tri, backend
            assert '"durability": Infinity' in cliques, backend
            assert '"score": Infinity' in union, backend
            assert '"durability": 5.0' in tri, backend  # finite rows too
        vector, grid = lines["vector"], lines["grid"]
        # SUM, UNION and cliques list grid's records in grid's order:
        # the served lines are the same bytes.
        assert vector[1:] == grid[1:]
        assert sorted(json.loads(vector[0])["records"], key=str) == sorted(
            json.loads(grid[0])["records"], key=str
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blocks_match_the_object_path_on_wide_lifespans(self):
        tps = _wide_tps()
        blocks = [
            VectorTriangleIndex(tps, 0.5).query_block(1.0),
            VectorSumPairIndex(tps, 0.5).query_block(1.0),
            VectorUnionPairIndex(tps, 0.5).query_block(1.0, 2),
            VectorPatternIndex(tps, 0.5).clique_block(3, 1.0),
        ]
        for block in blocks:
            assert len(block)
            assert records_line(0, 1.0, block) == reference_line(0, 1.0, block.records())


# ----------------------------------------------------------------------
# Counts only
# ----------------------------------------------------------------------
COUNT_QUERIES = [
    {"kind": "triangles", "taus": [1.0, 2.0]},
    {"kind": "pairs-sum", "tau": 2.0},
    {"kind": "pairs-union", "tau": 2.0, "kappa": 3},
    {"kind": "cliques", "tau": 2.0, "m": 3},
]


class TestNoRecordObjects:
    """The vector served path stays in columns: neither ``QueryResult.count``
    nor a served batch, counts only or with records, builds a record."""

    def test_vector_served_path_builds_no_record(self, monkeypatch):
        tps = random_tps(n=120, seed=4)
        queries = [{**q, "backend": "vector"} for q in COUNT_QUERIES]
        specs = [QuerySpec.from_dict(q) for q in queries]
        engine = QueryEngine()
        results = [engine.run(tps, spec) for spec in specs]
        expected = [{tau: len(r) for tau, r in res.records_by_tau.items()} for res in results]
        assert all(all(c.values()) for c in expected)
        expected_lines = [
            reference_line(i, tau, list(recs))
            for i, res in enumerate(results) for tau, recs in res.records_by_tau.items()
        ]

        def no_records(self, *args, **kwargs):
            raise AssertionError(f"built a {type(self).__name__}")

        for cls in (TriangleRecord, PairRecord, PatternRecord):
            monkeypatch.setattr(cls, "__init__", no_records)

        for spec, counts in zip(specs, expected):
            result = engine.run(tps, spec)
            assert result.count == sum(counts.values())
            assert {tau: len(r) for tau, r in result.records_by_tau.items()} == counts

        handle = start_server_thread()
        try:
            handle.app.registry.register("counts", tps)
            counts_only = served_body(
                handle, queries, dataset="counts", include_records=False
            )
            with_records = served_body(handle, queries, dataset="counts")
        finally:
            handle.stop()
        lines = [json.loads(line) for line in counts_only.splitlines()]
        results = [line for line in lines if line["type"] == "result"]
        assert [line["error"] for line in results] == [None] * len(queries)
        assert [
            {float(tau): n for tau, n in line["counts"].items()} for line in results
        ] == expected
        assert [
            line for line in with_records.splitlines()
            if line.startswith(b'{"type": "records"')
        ] == expected_lines


if __name__ == "__main__":
    body = golden_body()
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "wb") as fh:
        fh.write(body)
    print(f"wrote {GOLDEN}: {len(body)} bytes, {len(body.splitlines())} lines")
