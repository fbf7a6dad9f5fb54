"""Tests for the compositional query IR + pattern DSL (ISSUE 8).

Covers: the parser (both surface syntaxes, actionable failures), the
exhaustive :class:`QuerySpec` round-trip (satellite 2), record-set
identity between every legacy kind and its DSL spelling on band-free
lattice datasets (satellite 3), staged execution through the shared
cache, composite patterns end-to-end through a live 2-worker router
checked against a brute-force composition oracle, per-template serve
metrics, and the batch CLI's entry-indexed compile errors
(satellite 6).
"""

import http.client
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main as cli_main
from repro.datasets import workload_from_spec
from repro.engine import IndexKey, QueryEngine, QuerySpec, plan_query
from repro.errors import ValidationError
from repro.lang import (
    ComposedRecord,
    PairsNode,
    ShapeNode,
    TrianglesNode,
    node_from_json,
    parse_pattern,
)
from repro.router import start_router_thread
from repro.temporal.interval import intersect_many

from conftest import random_tps
from test_backends import PARITY_EPS, PARITY_KAPPA, lattice_tps


# ----------------------------------------------------------------------
# Parser: both surface syntaxes, one AST
# ----------------------------------------------------------------------
class TestParser:
    def test_text_and_json_forms_agree(self):
        text = "seq(pairs(agg=sum), triangles(), gap=[0, 5], tau=3)"
        as_json = {
            "seq": [{"pairs": {"agg": "sum"}}, {"triangles": {}}],
            "gap": [0, 5],
            "tau": 3,
        }
        assert parse_pattern(text) == parse_pattern(as_json)
        # ... and a JSON string is the JSON form.
        assert parse_pattern(json.dumps(as_json)) == parse_pattern(as_json)

    def test_parse_is_idempotent_on_nodes(self):
        node = parse_pattern("all(clique(m=4), pairs(agg=union, kappa=8))")
        assert parse_pattern(node) is node

    def test_to_json_round_trips(self):
        node = parse_pattern(
            "seq(triangles(exact=false), star(m=4, dur=[1, 9]), "
            "pairs(agg=union, kappa=2, tau=5), gap=[1, 4])"
        )
        assert node_from_json(node.to_json()) == node

    def test_defaults(self):
        assert parse_pattern("clique()") == ShapeNode(shape="clique", m=3)
        assert parse_pattern("pairs()") == PairsNode(agg="sum")
        assert parse_pattern("triangles") == TrianglesNode()  # bare head

    @pytest.mark.parametrize(
        "payload",
        [
            "frobnicate()",                      # unknown head
            {"seq": [], "all": []},              # two heads
            {},                                  # no head
            {"triangles": {}, "gap": [0, 1]},    # gap off a seq node
            "pairs(agg=union)",                  # union without kappa
            "pairs(agg=sum, kappa=3)",           # kappa off union
            "pairs(agg=max)",                    # unknown aggregate
            "seq(triangles())",                  # combinator arity
            "clique(m=1)",                       # m < 2
            "clique(m=true)",                    # non-integer m
            "triangles() junk",                  # trailing input
            "seq(pairs(), pairs(), gap=[5, 1])", # inverted bounds
            "seq(pairs(), pairs(), gap=[-1, 1])",# negative gap
            {"triangles": {}, "tau": -1},        # non-positive tau
            {"triangles": {"m": 3}},             # unknown parameter
            "",                                  # empty
            42,                                  # wrong payload type
            "seq(pairs(), pairs()",              # unbalanced parens
        ],
    )
    def test_bad_payloads_raise_validation_error(self, payload):
        with pytest.raises(ValidationError):
            parse_pattern(payload)

    def test_nodes_are_hashable(self):
        a = parse_pattern("seq(pairs(agg=sum), pairs(agg=sum), gap=[0,5])")
        b = parse_pattern(
            {"seq": [{"pairs": {"agg": "sum"}}] * 2, "gap": [0, 5]}
        )
        assert len({a, b}) == 1


# ----------------------------------------------------------------------
# Satellite 2: QuerySpec.to_dict/from_dict carries every optional field
# ----------------------------------------------------------------------
def _patterns():
    leaf = st.sampled_from(
        [
            {"triangles": {}},
            {"triangles": {"exact": True}},
            {"clique": {"m": 3}},
            {"path": {"m": 4}},
            {"star": {"m": 3}, "dur": [1, 8]},
            {"pairs": {"agg": "sum"}},
            {"pairs": {"agg": "union", "kappa": 5}, "tau": 2},
        ]
    )
    return st.recursive(
        leaf,
        lambda kids: st.builds(
            lambda parts, gap: {"seq": parts, "gap": gap}
            if gap
            else {"all": parts},
            st.lists(kids, min_size=2, max_size=3),
            st.sampled_from([None, [0, 4]]),
        ),
        max_leaves=4,
    )


@st.composite
def spec_payloads(draw):
    kind = draw(
        st.sampled_from(
            [
                "triangles",
                "cliques",
                "paths",
                "stars",
                "pairs-sum",
                "pairs-union",
                "pattern-dsl",
            ]
        )
    )
    payload = {
        "kind": kind,
        "taus": draw(
            st.lists(
                st.floats(0.25, 16.0, allow_nan=False),
                min_size=1,
                max_size=3,
            )
        ),
        "epsilon": draw(st.sampled_from([0.2, 0.5, 1.0])),
        "backend": draw(st.sampled_from(["auto", "grid", "cover-tree"])),
    }
    if draw(st.booleans()):
        payload["label"] = draw(st.text(max_size=12))
    if kind == "pairs-union":
        payload["kappa"] = draw(st.integers(1, 64))
    elif kind in ("cliques", "paths", "stars"):
        if draw(st.booleans()):
            payload["m"] = draw(st.integers(2, 6))
    elif kind == "pairs-sum":
        payload["sum_backend"] = draw(st.sampled_from(["profile", "tree"]))
    elif kind == "triangles":
        exact = draw(st.sampled_from([None, True]))
        if exact is not None:
            payload["exact"] = exact
    elif kind == "pattern-dsl":
        payload["pattern"] = draw(_patterns())
    return payload


class TestSpecRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(payload=spec_payloads())
    def test_to_dict_from_dict_is_identity_over_json(self, payload):
        spec = QuerySpec.from_dict(payload)
        wire = json.loads(json.dumps(spec.to_dict()))
        assert QuerySpec.from_dict(wire) == spec
        # A second hop is a fixed point (wire form is canonical).
        assert QuerySpec.from_dict(wire).to_dict() == spec.to_dict()

    def test_every_optional_field_survives_the_wire(self):
        specs = [
            QuerySpec(
                kind="triangles", taus=(2.0, 3.0), epsilon=0.25,
                backend="grid", exact=False, label="t",
            ),
            QuerySpec(kind="pairs-union", taus=2.0, kappa=7, label="u"),
            QuerySpec(kind="paths", taus=2.0, m=5),
            QuerySpec(kind="pairs-sum", taus=2.0, sum_backend="tree"),
            QuerySpec(
                kind="pattern-dsl", taus=2.0,
                pattern="seq(pairs(agg=sum), triangles(), gap=[0, 5])",
            ),
        ]
        for spec in specs:
            wire = json.loads(json.dumps(spec.to_dict()))
            assert QuerySpec.from_dict(wire) == spec, spec
        # Non-default optionals are present on the wire...
        assert specs[0].to_dict()["exact"] is False
        assert specs[1].to_dict()["kappa"] == 7
        assert specs[2].to_dict()["m"] == 5
        assert specs[3].to_dict()["sum_backend"] == "tree"
        assert "seq" in specs[4].to_dict()["pattern"]
        # ...and defaults are omitted (stable minimal wire form).
        minimal = QuerySpec(kind="triangles", taus=2.0).to_dict()
        assert set(minimal) == {"kind", "taus"}


# ----------------------------------------------------------------------
# Satellite 3: each legacy kind, spelled in the DSL, is record-set
# identical to the native kind (band-free lattice datasets make the
# approximate backends exactly comparable — see test_backends).
# ----------------------------------------------------------------------
LEGACY_AS_DSL = [
    (dict(kind="triangles"), "triangles()"),
    (dict(kind="cliques", m=3), "clique(m=3)"),
    (dict(kind="paths", m=3), "path(m=3)"),
    (dict(kind="stars", m=3), "star(m=3)"),
    (dict(kind="pairs-sum"), "pairs(agg=sum)"),
    (
        dict(kind="pairs-union", kappa=PARITY_KAPPA),
        f"pairs(agg=union, kappa={PARITY_KAPPA})",
    ),
]


class TestDslLegacyEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(tps=lattice_tps(), tau=st.sampled_from([1.0, 2.0, 3.0]))
    def test_primitive_roots_match_native_kinds(self, tps, tau):
        engine = QueryEngine()
        for kwargs, text in LEGACY_AS_DSL:
            native = engine.run(
                tps,
                QuerySpec(
                    taus=tau, epsilon=PARITY_EPS, backend="grid", **kwargs
                ),
            )
            dsl = engine.run(
                tps,
                QuerySpec(
                    kind="pattern-dsl", taus=tau, epsilon=PARITY_EPS,
                    backend="grid", pattern=text,
                ),
            )
            assert sorted(r.key for r in dsl.records) == sorted(
                r.key for r in native.records
            ), (kwargs, tau)
            # The DSL stage resolved to the index the native query
            # already built: shared through the cache, never rebuilt.
            assert dsl.cache_hit and dsl.stages
            assert dsl.stages[0]["cache_hit"] is True


# ----------------------------------------------------------------------
# Staged execution: per-stage timing + cache sharing
# ----------------------------------------------------------------------
class TestStagedExecution:
    def test_stage_timings_and_cache_sharing(self):
        tps = random_tps(n=40, seed=4)
        engine = QueryEngine()
        engine.run(tps, QuerySpec(kind="triangles", taus=2.0, backend="grid"))
        spec = QuerySpec(
            kind="pattern-dsl", taus=2.0, backend="grid",
            pattern="seq(triangles(), pairs(agg=sum), gap=[0, 8])",
        )
        first = engine.run(tps, spec)
        stages = {s["family"]: s for s in first.stages}
        assert set(stages) == {"triangles", "pairs-sum"}
        assert stages["triangles"]["cache_hit"] is True
        assert stages["pairs-sum"]["cache_hit"] is False
        assert not first.cache_hit  # one stage missed
        assert first.build_seconds == pytest.approx(
            sum(s["build_seconds"] for s in first.stages)
        )
        # Every stage warm now: the whole staged plan is a cache hit.
        second = engine.run(tps, spec)
        assert second.cache_hit
        assert all(s["cache_hit"] for s in second.stages)
        # The wire shape carries the stage breakdown.
        doc = second.to_dict(include_records=False)
        assert [s["stage"] for s in doc["stages"]] == ["s0", "s1"]

    def test_composed_records_serialise(self):
        tps = random_tps(n=40, seed=4)
        engine = QueryEngine()
        res = engine.run(
            tps,
            QuerySpec(
                kind="pattern-dsl", taus=2.0, backend="grid",
                pattern="seq(pairs(agg=sum), pairs(agg=sum), gap=[0, 4])",
            ),
        )
        assert res.count > 0
        rec = res.records[0]
        assert isinstance(rec, ComposedRecord)
        doc = json.loads(json.dumps(res.to_dict()))
        first = doc["results"][0]["records"][0]
        assert first["type"] == "composed" and first["template"] == "seq"
        assert [c["type"] for c in first["components"]] == ["pair", "pair"]
        assert first["durability"] == pytest.approx(rec.durability)
        assert first["members"] == sorted(rec.members)

    def test_combination_explosion_is_a_clean_error(self):
        # An unconstrained 4-way product over a dense dataset must trip
        # the MAX_COMBINATIONS guard, not grind or OOM.
        from repro.lang.compiler import MAX_COMBINATIONS  # noqa: F401

        tps = random_tps(n=120, seed=0, box=2.0)
        engine = QueryEngine()
        spec = QuerySpec(
            kind="pattern-dsl", taus=1.0, backend="grid",
            pattern="seq(pairs(), pairs(), pairs(), pairs())",
        )
        with pytest.raises(ValidationError, match="combinations"):
            engine.run(tps, spec)


# ----------------------------------------------------------------------
# Composite patterns end-to-end through the router, against a
# brute-force composition oracle
# ----------------------------------------------------------------------
DATASET_SPEC = {"workload": "uniform", "n": 48, "seed": 2}
E2E_TAU = 2.0

#: (pattern text, leaf plan: list of (spec kwargs, gap/intersection))
E2E_PATTERNS = [
    "seq(pairs(agg=sum), pairs(agg=sum), gap=[0, 3])",
    "seq(triangles(), triangles(), gap=[0, 2])",
    "all(clique(m=3), pairs(agg=union, kappa=8))",
]


def _prim_key(record):
    if hasattr(record, "ids"):
        return ("triangle", tuple(record.ids))
    if hasattr(record, "p"):
        return ("pair", record.p, record.q)
    return (record.kind, tuple(record.members))


def _wire_key(doc):
    if doc["type"] == "composed":
        return (
            doc["template"],
            tuple(_wire_key(c) for c in doc["components"]),
        )
    if doc["type"] == "pair":
        return ("pair", doc["p"], doc["q"])
    if doc["type"] == "triangle":
        return ("triangle", tuple(doc["ids"]))
    return (doc["type"], tuple(doc["members"]))


def _matches(engine, tps, tau, **kwargs):
    """(key, interval) for every native match of one primitive."""
    records = engine.run(
        tps, QuerySpec(taus=tau, backend="grid", **kwargs)
    ).records
    out = []
    for r in records:
        interval = (
            r.lifespan
            if hasattr(r, "lifespan")
            else tps.pattern_lifespan((r.p, r.q))
        )
        out.append((_prim_key(r), interval))
    return out


def _oracle_seq(parts, gap):
    combos = [((k,), iv) for k, iv in parts[0]]
    for nxt in parts[1:]:
        grown = []
        for keys, last in combos:
            for key, interval in nxt:
                delta = interval.start - last.start
                if delta < 0:
                    continue
                if gap is not None and not gap[0] <= delta <= gap[1]:
                    continue
                if key in keys:
                    continue
                grown.append((keys + (key,), interval))
        combos = grown
    return {("seq", keys) for keys, _ in combos}


def _oracle_all(parts, tau):
    out = set()
    for key_a, iv_a in parts[0]:
        for key_b, iv_b in parts[1]:
            if key_a == key_b:
                continue
            joint = intersect_many([iv_a, iv_b])
            if not joint.is_empty and joint.length >= tau:
                out.add(("all", (key_a, key_b)))
    return out


def _oracle(engine, tps, text, tau):
    if text == E2E_PATTERNS[0]:
        pair = _matches(engine, tps, tau, kind="pairs-sum")
        return _oracle_seq([pair, pair], (0.0, 3.0))
    if text == E2E_PATTERNS[1]:
        tri = _matches(engine, tps, tau, kind="triangles")
        return _oracle_seq([tri, tri], (0.0, 2.0))
    cli = _matches(engine, tps, tau, kind="cliques", m=3)
    uni = _matches(engine, tps, tau, kind="pairs-union", kappa=8)
    return _oracle_all([cli, uni], tau)


@pytest.fixture(scope="module")
def dsl_router():
    handle = start_router_thread(workers=2)
    try:
        status, body = _request_json(
            handle, "POST", "/datasets",
            {"name": "uni", "dataset": DATASET_SPEC},
        )
        assert status == 201, body
        yield handle
    finally:
        handle.stop()


def _request(handle, method, path, body=None, timeout=60):
    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=timeout)
    try:
        conn.request(
            method, path,
            body=json.dumps(body) if body is not None else None,
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _request_json(handle, method, path, body=None, timeout=60):
    status, data = _request(handle, method, path, body, timeout=timeout)
    return status, json.loads(data)


class TestCompositePatternsThroughRouter:
    @pytest.mark.parametrize("text", E2E_PATTERNS)
    def test_matches_brute_force_oracle(self, dsl_router, text):
        status, data = _request(
            dsl_router, "POST", "/query",
            {
                "dataset": "uni",
                "queries": [
                    {"kind": "pattern-dsl", "tau": E2E_TAU, "pattern": text}
                ],
            },
        )
        assert status == 200
        lines = [json.loads(l) for l in data.decode().strip().split("\n")]
        assert lines[-1]["ok"], lines[-1]
        result = next(l for l in lines if l["type"] == "result")
        # The stage breakdown rides the serve result line too (duplicate
        # leaves fold, so the two-identical-part patterns have 1 stage).
        stage_names = [s["stage"] for s in result["stages"]]
        assert stage_names == [f"s{i}" for i in range(len(stage_names))]
        assert all("cache_hit" in s and "family" in s for s in result["stages"])
        records = next(l for l in lines if l["type"] == "records")["records"]
        assert len(records) > 0
        got = {_wire_key(r) for r in records}
        assert len(got) == len(records)  # no duplicate matches
        engine = QueryEngine()
        tps = workload_from_spec(DATASET_SPEC)
        assert got == _oracle(engine, tps, text, E2E_TAU)

    def test_template_counters_in_fleet_metrics(self, dsl_router):
        from repro.obs import parse_exposition

        # At least one DSL query has been proxied by the tests above.
        status, data = _request(dsl_router, "GET", "/metrics")
        assert status == 200
        families = parse_exposition(data.decode())
        samples = families["serve_template_queries_total"].samples
        # Re-exported per worker: every sample names its slot.
        assert all(
            dict(s.labels)["worker"].startswith("worker-") for s in samples
        )
        by_template = {}
        for s in samples:
            labels = dict(s.labels)
            by_template[labels["template"]] = (
                by_template.get(labels["template"], 0.0) + s.value
            )
        assert by_template.get("pattern-dsl", 0.0) >= 1.0
        assert "serve_template_query_errors_total" in families

    def test_compile_error_is_a_4xx_naming_the_entry(self, dsl_router):
        status, doc = _request_json(
            dsl_router, "POST", "/query",
            {
                "dataset": "uni",
                "queries": [
                    {"kind": "triangles", "tau": 2.0},
                    {
                        "kind": "pattern-dsl", "tau": 2.0,
                        "pattern": "pairs(agg=union)",
                    },
                ],
            },
        )
        assert status == 400
        assert "query #1" in doc["error"]
        assert "kappa" in doc["error"]


# ----------------------------------------------------------------------
# Satellite 6: batch CLI names the offending entry on compile failure
# ----------------------------------------------------------------------
def run_cli(*argv):
    out = io.StringIO()
    code = cli_main(list(argv), out=out)
    return code, out.getvalue()


class TestCliSurfaces:
    def test_batch_compile_error_names_entry(self, tmp_path, capsys):
        doc = {
            "queries": [
                {"kind": "triangles", "tau": 2.0},
                {"kind": "pattern-dsl", "tau": 2.0, "pattern": "frobnicate()"},
            ]
        }
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(doc))
        code, _ = run_cli("batch", str(path), "--n", "30")
        err = capsys.readouterr().err
        assert code == 2
        assert "query #1" in err
        assert "frobnicate" in err

    def test_batch_runs_dsl_entries(self, tmp_path):
        doc = {
            "queries": [
                {"kind": "triangles", "tau": 2.0, "backend": "grid"},
                {
                    "kind": "pattern-dsl", "tau": 2.0, "backend": "grid",
                    "pattern": "seq(triangles(), triangles(), gap=[0, 4])",
                    "label": "chain",
                },
            ]
        }
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(doc))
        code, text = run_cli(
            "batch", str(path), "--n", "40", "--seed", "4", "--output", "-"
        )
        assert code == 0
        assert "pattern-dsl (chain)" in text
        # The DSL entry shared the triangle index built by entry 0.
        assert "(cache," in text.split("\n")[2]

    def test_query_command_runs_a_pattern(self):
        code, text = run_cli(
            "query", "--n", "40", "--seed", "4",
            "--pattern", "seq(pairs(agg=sum), pairs(agg=sum), gap=[0, 6])",
            "--tau", "2",
        )
        assert code == 0
        assert "pattern matches:" in text

    def test_query_command_rejects_bad_pattern(self, capsys):
        code, _ = run_cli(
            "query", "--n", "30", "--pattern", "pairs(agg=union)", "--tau", "2"
        )
        assert code == 2
        assert "kappa" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Plan-level invariants
# ----------------------------------------------------------------------
class TestPlanning:
    def test_shared_leaves_fold_into_one_stage(self):
        tps = random_tps(n=30, seed=1)
        spec = QuerySpec(
            kind="pattern-dsl", taus=2.0, backend="grid",
            pattern="seq(pairs(agg=sum), pairs(agg=sum), pairs(agg=sum))",
        )
        plan = plan_query(0, spec, tps)
        assert len(plan.stages) == 1
        assert plan.stages[0].key.family == "pairs-sum"
        assert plan.key == IndexKey(
            "pattern-dsl", tps.fingerprint(), 0.5, "dsl", ()
        )

    def test_pattern_rejected_on_legacy_kinds(self):
        with pytest.raises(ValidationError, match="only valid for pattern-dsl"):
            QuerySpec(kind="triangles", taus=2.0, pattern="triangles()")
        with pytest.raises(ValidationError, match="require a 'pattern'"):
            QuerySpec(kind="pattern-dsl", taus=2.0)

    def test_leaf_validation_surfaces_at_plan_time(self):
        # exact=True lowers to the ℓ∞ solver, which an l2 dataset must
        # reject — through the same registry path as the legacy kind.
        tps = random_tps(n=30, seed=1, metric="l2")
        spec = QuerySpec(
            kind="pattern-dsl", taus=2.0,
            pattern="seq(triangles(exact=true), pairs(agg=sum))",
        )
        with pytest.raises(Exception):
            plan_query(0, spec, tps)
