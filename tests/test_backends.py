"""Tests for the backend registry and capability-ordered ``auto``
dispatch.

Covers: registry registration/lookup semantics, pair/pattern kinds
*rejecting* ``linf-exact`` instead of silently coercing it to
``auto``, registry-routed ``make_decomposition`` errors, the ``auto``
rule pinned over kinds × metrics × exactness, bit-stable cache keys
for every pre-existing backend name, grid vs cover-tree record-set
parity on band-free datasets (property test), the vector index classes
equal to grid as record lists on clustered float sets (property test),
read-only vector query paths, the vector candidate map (gathered rows
equal to the generator's, built once per version), the serving layer's
per-dataset default backend + per-backend counters, and the CLI
surfaces.
"""

import gc
import io
import json
import os
import subprocess
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import TemporalPointSet
from repro.backends import (
    BackendDescriptor,
    BackendRegistry,
    default_registry,
)
from repro.backends.builtin import register_builtin_backends
from repro.cli import main as cli_main
from repro.core.aggregate import SumPairIndex, UnionPairIndex
from repro.core.patterns import PatternIndex
from repro.core.triangles import DurableTriangleIndex
from repro.engine import KINDS, IndexKey, QueryEngine, QuerySpec, plan_query
from repro.errors import BackendError, ValidationError
from repro.obs import counter_value, parse_exposition
from repro.structures.durable_ball import make_decomposition

from conftest import (
    check_plan_builds_its_key,
    clustered_tps,
    index_classes,
    random_tps,
)


def fresh_registry() -> BackendRegistry:
    return register_builtin_backends(BackendRegistry())


# ----------------------------------------------------------------------
# Registry semantics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_names_in_registration_order(self):
        assert default_registry().names() == (
            "cover-tree", "grid", "linf-exact", "vector",
        )

    def test_unknown_backend_error_lists_registered(self):
        with pytest.raises(
            BackendError, match="cover-tree, grid, linf-exact, vector"
        ):
            default_registry().get("annoy")

    def test_get_spatial_rejects_non_spatial(self):
        # linf-exact is registered but provides no decomposition.
        with pytest.raises(BackendError, match="spatial backends: cover-tree, grid"):
            default_registry().get_spatial("linf-exact")

    def test_duplicate_registration_needs_replace(self):
        registry = fresh_registry()
        descriptor = registry.get("grid")
        with pytest.raises(ValidationError, match="already registered"):
            registry.register(descriptor)
        registry.register(descriptor, replace=True)  # idempotent with replace

    def test_custom_backend_becomes_spec_valid_and_plannable(self):
        registry = fresh_registry()
        base = registry.get("cover-tree")
        custom = BackendDescriptor(
            name="my-cover-tree",
            kinds=base.kinds,
            exact=False,
            description="registered by a test",
            metric_requirement="any metric",
            metric_ok=lambda metric: True,
            # Reuse the stock hooks: identity still keys on *this* name.
            make_builder=base.make_builder,
            index_identity=lambda spec, fp: IndexKey(
                "triangles", fp, spec.epsilon, "my-cover-tree"
            ),
        )
        registry.register(custom)
        tps = random_tps(n=20, seed=0)
        spec = QuerySpec(kind="triangles", taus=2.0)
        plan = plan_query(
            0,
            QuerySpec(kind="triangles", taus=2.0),
            tps,
            registry=registry,
        )
        assert plan.key.backend != "my-cover-tree"  # built-ins rank first
        resolution = registry.resolve(spec, tps)
        assert resolution.candidates[-1] == "my-cover-tree"  # ...but eligible

    def test_auto_is_not_registrable(self):
        with pytest.raises(ValidationError, match="dispatch keyword"):
            BackendDescriptor(
                name="auto",
                kinds=frozenset({"triangles"}),
                exact=False,
                description="",
                metric_requirement="",
                metric_ok=lambda m: True,
                make_builder=lambda s, t: None,
                index_identity=lambda s, f: None,
            )

    def test_describe_cards_are_json_ready(self):
        cards = default_registry().describe()
        json.dumps(cards)  # must not raise
        by_name = {c["name"]: c for c in cards}
        assert by_name["linf-exact"]["exact"] is True
        assert by_name["linf-exact"]["kinds"] == ["triangles"]
        assert by_name["grid"]["spatial"] is True


# ----------------------------------------------------------------------
# Satellite 1: unsupported kind/backend combos are rejected with the
# serving backends named (previously: silent coercion to 'auto').
# ----------------------------------------------------------------------
class TestKindBackendRejection:
    @pytest.mark.parametrize(
        "kind", ["pairs-sum", "pairs-union", "cliques", "paths", "stars"]
    )
    def test_linf_exact_rejected_for_non_triangle_kinds(self, kind):
        kwargs = {"kappa": 2} if kind == "pairs-union" else {}
        with pytest.raises(ValidationError) as err:
            QuerySpec(kind=kind, taus=2.0, backend="linf-exact", **kwargs)
        message = str(err.value)
        # The error must name the backends that DO serve the kind.
        assert "does not serve" in message
        assert "cover-tree" in message and "grid" in message

    def test_triangles_still_accept_linf_exact(self):
        spec = QuerySpec(kind="triangles", taus=2.0, backend="linf-exact")
        assert spec.backend == "linf-exact"

    def test_validate_combination_direct(self):
        registry = default_registry()
        registry.validate_combination("pairs-sum", "auto")  # never rejected
        registry.validate_combination("pairs-sum", "grid")
        with pytest.raises(ValidationError, match="serving 'pairs-sum'"):
            registry.validate_combination("pairs-sum", "linf-exact")
        with pytest.raises(ValidationError, match="unknown backend"):
            registry.validate_combination("triangles", "bogus")


# ----------------------------------------------------------------------
# Satellite 2: make_decomposition goes through the registry.
# ----------------------------------------------------------------------
class TestMakeDecomposition:
    def test_unknown_spatial_backend_lists_registered(self):
        tps = random_tps(n=10, seed=0)
        with pytest.raises(BackendError) as err:
            make_decomposition(tps, 0.25, backend="octree")
        assert "registered spatial backends: cover-tree, grid" in str(err.value)

    def test_exact_backend_is_not_a_decomposition(self):
        tps = random_tps(n=10, seed=0, metric="linf")
        with pytest.raises(BackendError, match="spatial"):
            make_decomposition(tps, 0.25, backend="linf-exact")

    def test_auto_still_builds_the_cover_tree(self):
        # Structure-level auto keeps the paper's general-metric default;
        # registry dispatch happens one level up, in the planner.
        tps = random_tps(n=15, seed=1)
        dec = make_decomposition(tps, 0.25, backend="auto")
        assert type(dec).__name__ == "CoverTreeDecomposition"

    def test_registered_names_build(self):
        tps = random_tps(n=15, seed=1)
        # "vector" shares the grid's cells, so by name it builds the grid.
        for name in ("grid", "vector"):
            assert type(make_decomposition(tps, 0.25, name)).__name__ == (
                "GridDecomposition"
            )


class TestLazyApiEngine:
    def test_importing_api_allocates_no_engine(self):
        code = (
            "import repro.api as api; "
            "assert api._ENGINE is None, 'engine built at import time'; "
            "engine = api.default_engine(); "
            "assert engine is api.default_engine(); "
            "assert api._ENGINE is engine; "
            "print('ok')"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
        )
        assert out.stdout.strip() == "ok"


# ----------------------------------------------------------------------
# Deterministic auto resolution
# ----------------------------------------------------------------------
AUTO_METRICS = ("l1", "l2", "linf", ("lp", 3), "function")

_V, _C, _X, _E = "vector", "cover-tree", "linf-exact", "error"

#: exact → winner under each of AUTO_METRICS for every non-triangle
#: kind ("error": the spec or the registry rejects the combination).
_APPROX_ONLY = {None: (_V, _V, _V, _V, _C), True: (_E,) * 5, False: (_E,) * 5}

AUTO_TABLE = {
    ("triangles", ()): {
        None: (_V, _V, _X, _V, _C),
        True: (_E, _E, _X, _E, _E),
        False: (_V, _V, _V, _V, _C),
    },
    ("pairs-sum", ()): _APPROX_ONLY,
    ("pairs-sum", (("sum_backend", "tree"),)): _APPROX_ONLY,
    ("pairs-union", (("kappa", 2),)): _APPROX_ONLY,
    ("cliques", ()): _APPROX_ONLY,
    ("paths", ()): _APPROX_ONLY,
    ("stars", ()): _APPROX_ONLY,
}


def _dataset_under(metric):
    if metric != "function":
        return random_tps(n=30, seed=5, metric=metric)
    tps = random_tps(n=30, seed=5)
    return TemporalPointSet(
        tps.points, tps.starts, tps.ends,
        metric=lambda x, y: float(np.abs(x - y).max()),
    )


class TestAutoResolution:
    KINDS_AND_EXTRAS = [
        ("triangles", {}),
        ("pairs-sum", {}),
        ("pairs-union", {"kappa": 2}),
        ("cliques", {}),
    ]

    def test_resolution_is_deterministic_per_fingerprint(self):
        # Same dataset content (same fingerprint), fresh registry
        # instances, repeated calls: identical choice every time.
        a = random_tps(n=45, seed=7)
        b = random_tps(n=45, seed=7)
        assert a.fingerprint() == b.fingerprint()
        for kind, extras in self.KINDS_AND_EXTRAS:
            spec = QuerySpec(kind=kind, taus=(2.0, 4.0), **extras)
            names = {
                default_registry().resolve(spec, a).name,
                default_registry().resolve(spec, b).name,
                fresh_registry().resolve(spec, a).name,
                fresh_registry().resolve(spec, b).name,
            }
            assert len(names) == 1, (kind, names)

    def test_auto_plan_key_equals_resolved_explicit_plan_key(self):
        tps = random_tps(n=40, seed=3)
        for kind, extras in self.KINDS_AND_EXTRAS:
            auto_spec = QuerySpec(kind=kind, taus=3.0, **extras)
            resolved = default_registry().resolve(auto_spec, tps).name
            explicit = QuerySpec(kind=kind, taus=3.0, backend=resolved, **extras)
            assert (
                plan_query(0, auto_spec, tps).key
                == plan_query(0, explicit, tps).key
            )

    def test_auto_respects_metric_capability(self):
        # Opaque function metrics cannot grid: auto must fall back to
        # the cover tree rather than crash at build time.
        tps = random_tps(n=25, seed=2)
        opaque = TemporalPointSet(
            tps.points, tps.starts, tps.ends,
            metric=lambda x, y: float(np.abs(x - y).max()),
        )
        resolution = default_registry().resolve(
            QuerySpec(kind="pairs-sum", taus=2.0), opaque
        )
        assert resolution.name == "cover-tree"
        assert resolution.candidates == ("cover-tree",)

    def test_linf_triangles_promote_to_exact_and_exact_false_opts_out(self):
        tps = random_tps(n=25, seed=2, metric="linf")
        registry = default_registry()
        promoted = registry.resolve(QuerySpec(kind="triangles", taus=2.0), tps)
        assert promoted.name == "linf-exact"
        assert "exact" in promoted.reason
        opted_out = registry.resolve(
            QuerySpec(kind="triangles", taus=2.0, exact=False), tps
        )
        assert opted_out.name in ("cover-tree", "grid", "vector")

    def test_explicit_backend_with_wrong_metric_names_alternatives(self):
        tps = random_tps(n=25, seed=2)
        opaque = TemporalPointSet(
            tps.points, tps.starts, tps.ends,
            metric=lambda x, y: float(np.abs(x - y).max()),
        )
        with pytest.raises(ValidationError, match="cover-tree"):
            default_registry().resolve(
                QuerySpec(kind="triangles", taus=2.0, backend="grid"), opaque
            )

    def test_auto_follows_the_capability_order(self):
        # Every cell of AUTO_TABLE is what auto chose before this fixed
        # order replaced per-shape scoring; a custom backend registered
        # after the built-ins is always a candidate (listed last), never
        # chosen.
        registry = fresh_registry()
        registry.register(replace(registry.get("cover-tree"), name="custom-any"))
        for (kind, extras), row in AUTO_TABLE.items():
            for exact, winners in row.items():
                for metric, winner in zip(AUTO_METRICS, winners):
                    cell = (kind, extras, exact, metric)
                    try:
                        spec = QuerySpec(
                            kind=kind, taus=(2.0, 3.0), exact=exact,
                            **dict(extras),
                        )
                        resolution = registry.resolve(spec, _dataset_under(metric))
                    except ValidationError:
                        assert winner == "error", cell
                        continue
                    assert resolution.name == winner, cell
                    if exact is True:
                        assert resolution.candidates == ("linf-exact",), cell
                        continue
                    approx = (
                        ("cover-tree",) if metric == "function"
                        else ("vector", "grid", "cover-tree")
                    )
                    lead = ("linf-exact",) if winner == "linf-exact" else ()
                    assert resolution.candidates == (
                        lead + approx + ("custom-any",)
                    ), cell


# ----------------------------------------------------------------------
# Cache-key bit-stability for pre-existing backend names
# ----------------------------------------------------------------------
class TestKeyStability:
    """Keys for explicit backend names must match the historical planner
    exactly — caches (and cross-process cache-key logs) stay valid."""

    def test_explicit_name_keys_are_bit_stable(self):
        tps = random_tps(n=30, seed=9)
        fp = tps.fingerprint()
        expected = [
            (
                QuerySpec(kind="triangles", taus=3.0, backend="cover-tree"),
                IndexKey("triangles", fp, 0.5, "cover-tree", ()),
            ),
            (
                QuerySpec(kind="triangles", taus=3.0, epsilon=0.25, backend="grid"),
                IndexKey("triangles", fp, 0.25, "grid", ()),
            ),
            (
                QuerySpec(kind="pairs-sum", taus=3.0, backend="cover-tree"),
                IndexKey("pairs-sum", fp, 0.5, "cover-tree", ("profile",)),
            ),
            (
                QuerySpec(
                    kind="pairs-sum", taus=3.0, backend="grid", sum_backend="tree"
                ),
                IndexKey("pairs-sum", fp, 0.5, "grid", ("tree",)),
            ),
            (
                QuerySpec(kind="pairs-union", taus=3.0, kappa=2, backend="grid"),
                IndexKey("pairs-union", fp, 0.5, "grid", ()),
            ),
            (
                QuerySpec(kind="cliques", taus=3.0, backend="cover-tree"),
                IndexKey("patterns", fp, 0.5, "cover-tree", ()),
            ),
            (
                QuerySpec(kind="paths", taus=3.0, m=4, backend="grid"),
                IndexKey("patterns", fp, 0.5, "grid", ()),
            ),
            (
                QuerySpec(kind="stars", taus=3.0, backend="cover-tree"),
                IndexKey("patterns", fp, 0.5, "cover-tree", ()),
            ),
        ]
        for spec, key in expected:
            assert plan_query(0, spec, tps).key == key, spec

    def test_vector_keys_follow_the_spatial_identity_scheme(self):
        # The NEW vector backend mints keys through the same
        # (family, fp, ε, name, extras) scheme as the other spatial
        # backends — pinned here so vector cache identities are as
        # stable as the pre-existing ones.
        tps = random_tps(n=30, seed=9)
        fp = tps.fingerprint()
        expected = [
            (
                QuerySpec(kind="triangles", taus=3.0, backend="vector"),
                IndexKey("triangles", fp, 0.5, "vector", ()),
            ),
            (
                QuerySpec(kind="pairs-sum", taus=3.0, backend="vector"),
                IndexKey("pairs-sum", fp, 0.5, "vector", ("profile",)),
            ),
            (
                # The vector SUM index ignores sum_backend, so "tree"
                # shares the "profile" key (and the one build).
                QuerySpec(
                    kind="pairs-sum", taus=3.0, backend="vector",
                    sum_backend="tree",
                ),
                IndexKey("pairs-sum", fp, 0.5, "vector", ("profile",)),
            ),
            (
                QuerySpec(kind="pairs-union", taus=3.0, kappa=2, backend="vector"),
                IndexKey("pairs-union", fp, 0.5, "vector", ()),
            ),
            (
                QuerySpec(kind="cliques", taus=3.0, backend="vector"),
                IndexKey("patterns", fp, 0.5, "vector", ()),
            ),
            (
                QuerySpec(kind="stars", taus=3.0, epsilon=0.25, backend="vector"),
                IndexKey("patterns", fp, 0.25, "vector", ()),
            ),
        ]
        for spec, key in expected:
            assert plan_query(0, spec, tps).key == key, spec

    def test_pattern_dsl_stage_keys_are_bit_stable(self):
        # A compiled pattern's stages mint the SAME keys the legacy
        # planner mints for the equivalent explicit-kind specs — that
        # identity is what lets DSL plans share cached sub-indexes with
        # every pre-existing query, so it is pinned bit-for-bit here.
        tps = random_tps(n=30, seed=9)
        fp = tps.fingerprint()
        spec = QuerySpec(
            kind="pattern-dsl",
            taus=3.0,
            backend="grid",
            pattern="seq(triangles(), pairs(agg=sum), gap=[0, 5])",
        )
        plan = plan_query(0, spec, tps)
        assert plan.key == IndexKey("pattern-dsl", fp, 0.5, "dsl", ())
        assert [s.key for s in plan.stages] == [
            IndexKey("triangles", fp, 0.5, "grid", ()),
            IndexKey("pairs-sum", fp, 0.5, "grid", ("profile",)),
        ]
        # Duplicate leaves fold into one stage (one shared sub-index).
        dup = QuerySpec(
            kind="pattern-dsl",
            taus=3.0,
            backend="grid",
            pattern="seq(pairs(agg=sum), pairs(agg=sum))",
        )
        assert [s.key for s in plan_query(0, dup, tps).stages] == [
            IndexKey("pairs-sum", fp, 0.5, "grid", ("profile",)),
        ]

    def test_linf_exact_key_is_bit_stable_and_epsilon_free(self):
        tps = random_tps(n=30, seed=9, metric="linf")
        fp = tps.fingerprint()
        expected = IndexKey("linf-triangles", fp, 0.0, "linf-exact", ())
        for spec in (
            QuerySpec(kind="triangles", taus=3.0, backend="linf-exact"),
            QuerySpec(kind="triangles", taus=3.0, epsilon=0.2, backend="linf-exact"),
            QuerySpec(kind="triangles", taus=3.0, exact=True),
            QuerySpec(kind="triangles", taus=3.0),  # auto-promotion
        ):
            assert plan_query(0, spec, tps).key == expected, spec

    def test_plan_key_matches_index_cache_key_hook(self):
        # Every explicit backend name builds the index its plan key
        # names, for every kind; together they build each (backend,
        # family) pair. ``auto`` runs the same check in test_engine.
        lp = random_tps(n=30, seed=9)
        linf = random_tps(n=30, seed=9, metric="linf")
        params = {"pairs-sum": {"sum_backend": "tree"}, "pairs-union": {"kappa": 2}}
        cases = [
            (lp, QuerySpec(kind=kind, taus=2.0, epsilon=0.25, backend=backend,
                           **params.get(kind, {})))
            for backend in ("cover-tree", "grid", "vector")
            for kind in KINDS
        ] + [
            (linf, QuerySpec(kind="triangles", taus=2.0, epsilon=0.25,
                             backend="linf-exact"))
        ]
        built = {check_plan_builds_its_key(tps, spec) for tps, spec in cases}
        assert built == {
            (backend, family)
            for backend, families in index_classes().items()
            for family in families
        }

    def test_vector_sum_backends_share_one_build(self):
        # Regression: "profile" and "tree" on vector used to mint two
        # keys and build two identical indexes.
        tps = random_tps(n=60, seed=3)
        batch = QueryEngine().run_batch(
            tps,
            [
                QuerySpec(kind="pairs-sum", taus=2.0, backend="vector"),
                QuerySpec(kind="pairs-sum", taus=2.0, backend="vector",
                          sum_backend="tree"),
            ],
        )
        assert batch.distinct_indexes == 1
        assert batch.cache_stats["builds"] == 1
        profile, tree = batch.results
        assert [(r.key, r.score) for r in profile.records] == [
            (r.key, r.score) for r in tree.records
        ]


# ----------------------------------------------------------------------
# Satellite 3: grid vs cover-tree parity (identical record sets).
#
# Backend parity is NOT true for arbitrary inputs: a pair at distance
# d ∈ (1, 1+ε] is an ε-extra one decomposition may report and the other
# may not.  On a 0.5-lattice under l1/linf every pairwise distance is a
# multiple of 0.5, so with ε = 0.4 the ambiguous band (1, 1.4] is
# empty: both backends must report exactly the τ-durable set, hence
# identical records.  (Canonical balls have radius ≤ ε/4 = 0.1, so a
# ball never mixes near (≤1) and far (≥1.5) partners, and ball-level
# linkage coincides with exact unit-distance adjacency.)
# ----------------------------------------------------------------------
PARITY_EPS = 0.4

#: κ larger than any generated dataset: the UNION greedy covers every
#: witness, making its score independent of greedy tie-breaking order
#: (which legitimately differs between decompositions).
PARITY_KAPPA = 64


@st.composite
def lattice_tps(draw):
    n = draw(st.integers(min_value=8, max_value=22))
    metric = draw(st.sampled_from(["l1", "linf"]))
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)),
            min_size=n, max_size=n,
        )
    )
    starts = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    lengths = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
    pts = np.asarray(cells, dtype=float) * 0.5
    s = np.asarray(starts, dtype=float)
    return TemporalPointSet(pts, s, s + np.asarray(lengths, float), metric=metric)


def _sorted_keys(records):
    return sorted(r.key for r in records)


#: Every approximate spatial backend must agree on lattice inputs —
#: including the SoA ``vector`` backend, whose batched kernels are
#: required to reproduce the object-graph record sets exactly.
PARITY_BACKENDS = ("cover-tree", "grid", "vector")


class TestBackendParity:
    @settings(max_examples=25, deadline=None)
    @given(tps=lattice_tps(), tau=st.sampled_from([1.0, 2.0, 3.0]))
    def test_all_four_query_families_agree(self, tps, tau):
        # Triangles.
        tri = {
            b: DurableTriangleIndex(tps, PARITY_EPS, backend=b).query(tau)
            for b in PARITY_BACKENDS
        }
        for b in PARITY_BACKENDS[1:]:
            assert _sorted_keys(tri[b]) == _sorted_keys(tri["cover-tree"]), b

        # SUM pairs: same pairs AND same witness sums (integer windows,
        # so float summation order cannot perturb them).
        sums = {
            b: {
                r.key: r.score
                for r in SumPairIndex(tps, PARITY_EPS, backend=b).query(tau)
            }
            for b in PARITY_BACKENDS
        }
        for b in PARITY_BACKENDS[1:]:
            assert sums[b].keys() == sums["cover-tree"].keys(), b
            for key, score in sums["cover-tree"].items():
                assert sums[b][key] == pytest.approx(score), (b, key)

        # UNION pairs (κ covers all witnesses; see PARITY_KAPPA).
        union = {
            b: UnionPairIndex(tps, PARITY_EPS, backend=b).query(tau, PARITY_KAPPA)
            for b in PARITY_BACKENDS
        }
        for b in PARITY_BACKENDS[1:]:
            assert _sorted_keys(union[b]) == _sorted_keys(union["cover-tree"]), b

        # Patterns: cliques, paths and stars off one shared index each.
        for iterate in ("iter_cliques", "iter_paths", "iter_stars"):
            pats = {
                b: list(
                    getattr(PatternIndex(tps, PARITY_EPS, backend=b), iterate)(
                        3, tau
                    )
                )
                for b in PARITY_BACKENDS
            }
            for b in PARITY_BACKENDS[1:]:
                assert _sorted_keys(pats[b]) == _sorted_keys(
                    pats["cover-tree"]
                ), (iterate, b)

    def test_fixed_example_parity_including_engine_path(self):
        # A deterministic anchor for the property above, driven through
        # the engine so descriptor builders (not raw classes) are used.
        rng = np.random.default_rng(11)
        pts = rng.integers(0, 8, size=(30, 2)).astype(float) * 0.5
        starts = rng.integers(0, 9, size=30).astype(float)
        ends = starts + rng.integers(0, 7, size=30).astype(float)
        tps = TemporalPointSet(pts, starts, ends, metric="linf")
        engine = QueryEngine()
        results = {
            b: engine.run(
                tps,
                QuerySpec(
                    kind="triangles", taus=2.0, epsilon=PARITY_EPS,
                    backend=b, exact=False,
                ),
            ).records
            for b in PARITY_BACKENDS
        }
        for b in PARITY_BACKENDS[1:]:
            assert _sorted_keys(results[b]) == _sorted_keys(
                results["cover-tree"]
            ), b
        assert len(results["grid"]) > 0  # the example is non-degenerate


# ----------------------------------------------------------------------
# The vector index classes against the grid reference, as lists.
#
# Both use the same canonical cells, so on ANY input (no band-free
# lattice needed) they must return the same records in the same order,
# with ``==`` scores and lifespans: greedy tie order, witness summation
# order and the pattern recursion order all show up in these lists.
# ----------------------------------------------------------------------
class TestVectorListParity:
    @settings(max_examples=40, deadline=None)
    @given(
        tps=clustered_tps(),
        tau=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
        epsilon=st.sampled_from([0.5, 1.0]),
    )
    def test_vector_indexes_equal_grid_as_lists(self, tps, tau, epsilon):
        from repro.backends.vector import (
            VectorPatternIndex,
            VectorSumPairIndex,
            VectorUnionPairIndex,
        )

        assert VectorSumPairIndex(tps, epsilon).query(tau) == SumPairIndex(
            tps, epsilon, backend="grid"
        ).query(tau)

        vec_union = VectorUnionPairIndex(tps, epsilon)
        grid_union = UnionPairIndex(tps, epsilon, backend="grid")
        for kappa in (1, 2, 3, 5):
            assert vec_union.query(tau, kappa) == grid_union.query(
                tau, kappa
            ), kappa

        vec_pat = VectorPatternIndex(tps, epsilon)
        grid_pat = PatternIndex(tps, epsilon, backend="grid")
        for iterate in ("iter_cliques", "iter_paths", "iter_stars"):
            for m in (2, 3, 4):
                assert list(getattr(vec_pat, iterate)(m, tau)) == list(
                    getattr(grid_pat, iterate)(m, tau)
                ), (iterate, m)


def _attrs(obj):
    if hasattr(obj, "__dict__"):
        return dict(vars(obj))
    slots = [s for cls in type(obj).__mro__ for s in getattr(cls, "__slots__", ())]
    return {s: getattr(obj, s) for s in slots if hasattr(obj, s)}


def _state(obj):
    """Identity of every attribute and sub-attribute of ``obj``, plus
    the size of every dict among them (a memo grows in place)."""

    def entry(value):
        return id(value), len(value) if isinstance(value, dict) else None

    state = {}
    for name, value in _attrs(obj).items():
        state[name] = entry(value)
        if not isinstance(value, (np.ndarray, dict, str, int, float)):
            for sub, inner in _attrs(value).items():
                state[f"{name}.{sub}"] = entry(inner)
    return state


class TestVectorQueriesAreReadOnly:
    """The engine shares one index across concurrent queries, so a
    query must leave the index (and its ball structure) untouched."""

    def test_served_families_write_nothing(self):
        from repro.backends.vector import (
            VectorPatternIndex,
            VectorSumPairIndex,
            VectorTriangleIndex,
            VectorUnionPairIndex,
        )

        tps = random_tps(n=150, seed=5)
        families = {
            "triangles": (VectorTriangleIndex, lambda ix, t: ix.query(t)),
            "pairs-sum": (VectorSumPairIndex, lambda ix, t: ix.query(t)),
            "pairs-union": (VectorUnionPairIndex, lambda ix, t: ix.query(t, 3)),
            "cliques": (
                VectorPatternIndex, lambda ix, t: list(ix.iter_cliques(3, t))
            ),
        }
        taus = [2.0 + 0.05 * i for i in range(20)]
        for family, (cls, run) in families.items():
            index = cls(tps, 0.5)
            before = _state(index)
            answers = [run(index, tau) for tau in taus]
            assert any(answers), family  # the queries did real work
            assert _state(index) == before, family

    def test_paths_and_stars_keep_nothing_per_tau(self):
        # Regression: a per-(τ, radius) context memo on the index grew
        # by one entry per distinct τ for the life of the cached index.
        from repro.backends.vector import VectorPatternIndex

        index = VectorPatternIndex(random_tps(n=40, seed=2), 0.5)
        before = _state(index)
        reported = 0
        for i in range(25):
            tau = 2.0 + 0.013 * i
            reported += len(list(index.iter_paths(3, tau)))
            reported += len(list(index.iter_stars(3, tau)))
        assert reported
        assert _state(index) == before
        assert not any(isinstance(v, dict) for v in vars(index).values())


# ----------------------------------------------------------------------
# The vector indexes as plain array indexes: their public surface, the
# triangle count, and one shared layout per dataset version.
# ----------------------------------------------------------------------
def _vector_classes():
    from repro.backends import vector

    return (
        vector.VectorTriangleIndex,
        vector.VectorSumPairIndex,
        vector.VectorUnionPairIndex,
        vector.VectorPatternIndex,
    )


def _appended(tps):
    """The next version of ``tps``: two events beside its first point."""
    p, s, e = tps.points[0], tps.starts[0], tps.ends[0]
    return tps.with_events([p + 0.05, p - 0.05], [s, s], [e, e])


class TestVectorIndexSurface:
    def test_every_public_method_is_pinned_and_works(self):
        (
            VectorTriangleIndex,
            VectorSumPairIndex,
            VectorUnionPairIndex,
            VectorPatternIndex,
        ) = _vector_classes()
        tps = random_tps(n=120, seed=5)
        merged = _appended(tps)
        tau = 2.0
        common = {
            "maintained": lambda ix: ix.maintained(merged),
            "reruns": lambda ix: ix.maintained(merged).reruns(tau),
        }

        def carry(ix, params, block):
            # The block at τ carried to the next version.
            return ix.maintained(merged).carry(block, tau, params, ix)

        surfaces = {
            VectorTriangleIndex: {
                "query": lambda ix: ix.query(tau),
                "query_block": lambda ix: ix.query_block(tau),
                "narrow": lambda ix: ix.narrow(ix.query_block(1.0), tau),
                "carry": lambda ix: carry(ix, (None, None), ix.query_block(tau)),
                "count": lambda ix: ix.count(tau),
            },
            VectorSumPairIndex: {
                "query": lambda ix: ix.query(tau),
                "query_block": lambda ix: ix.query_block(tau),
                "narrow": lambda ix: ix.narrow(ix.query_block(1.0), tau),
                "carry": lambda ix: carry(ix, (None, None), ix.query_block(tau)),
            },
            VectorUnionPairIndex: {
                "query": lambda ix: ix.query(tau, 3),
                "query_block": lambda ix: ix.query_block(tau, 3),
                "narrow": lambda ix: ix.narrow(ix.query_block(1.0, 3), tau),
                "carry": lambda ix: carry(ix, (3, None), ix.query_block(tau, 3)),
            },
            VectorPatternIndex: {
                "iter_cliques": lambda ix: list(ix.iter_cliques(3, tau)),
                "clique_block": lambda ix: ix.clique_block(3, tau),
                "narrow": lambda ix: ix.narrow(ix.clique_block(3, 1.0), tau),
                "carry": lambda ix: carry(ix, (None, 3), ix.clique_block(3, tau)),
                "iter_paths": lambda ix: list(ix.iter_paths(3, tau)),
                "iter_stars": lambda ix: list(ix.iter_stars(3, tau)),
                "star_summaries": lambda ix: ix.star_summaries(3, tau),
            },
        }
        for cls, queries in surfaces.items():
            calls = {**common, **queries}
            public = {
                name
                for name in dir(cls)
                if not name.startswith("_") and callable(getattr(cls, name))
            }
            assert public == set(calls), cls.__name__
            index = cls(tps, 0.5)
            got = {name: call(index) for name, call in calls.items()}
            assert type(got["maintained"]) is cls
            assert got["maintained"].tps is merged
            for name in queries:
                assert got[name], (cls.__name__, name)  # real work done
            with pytest.raises(ValidationError, match="need more than"):
                index.maintained(tps)
            # ``carry`` takes only the index it was maintained from.
            with pytest.raises(ValidationError, match="maintained from"):
                index.carry(got["carry"], tau, (3, 3), got["maintained"])


class TestVectorTriangleCount:
    @settings(max_examples=30, deadline=None)
    @given(
        tps=clustered_tps(),
        tau=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
        epsilon=st.sampled_from([0.5, 1.0]),
    )
    def test_count_equals_the_reported_records(self, tps, tau, epsilon):
        from repro.backends.vector import VectorTriangleIndex

        index = VectorTriangleIndex(tps, epsilon)
        count = index.count(tau)
        assert count == len(index.query(tau))
        assert count == DurableTriangleIndex(tps, epsilon, backend="grid").count(
            tau
        )

    def test_count_builds_no_records(self, monkeypatch):
        from repro import blocks
        from repro.backends.vector import VectorTriangleIndex

        index = VectorTriangleIndex(random_tps(n=150, seed=5), 0.5)
        taus = (1.0, 2.0, 4.0)
        expected = [len(index.query(tau)) for tau in taus]
        assert all(expected)

        def no_records(**fields):
            raise AssertionError("count() built a record")

        # Triangle records are built from a block's columns.
        monkeypatch.setattr(blocks, "TriangleRecord", no_records)
        assert [index.count(tau) for tau in taus] == expected


def _wide_tps(dim, seed, metric):
    """40 clusters of 15 points within ±1 of a centre uniform in ±1e9."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(-1e9, 1e9, (40, dim))
    points = np.repeat(centres, 15, axis=0) + rng.uniform(-1.0, 1.0, (600, dim))
    starts = rng.integers(0, 10, 600).astype(float)
    ends = starts + rng.integers(0, 21, 600)
    return TemporalPointSet(points, starts, ends, metric=metric)


class TestVectorLayoutPerVersion:
    def test_four_families_share_one_layout_per_version(self, monkeypatch):
        from repro.backends.vector import soa

        # Every layout is built by extending one: the empty layout for a
        # fresh version, the previous version's for a maintained one.
        built = []
        extend = soa.SoALayout.extended

        def counted(self, tps):
            built.append(tps)
            return extend(self, tps)

        monkeypatch.setattr(soa.SoALayout, "extended", counted)
        tps = random_tps(n=80, seed=6)
        indexes = [cls(tps, 0.5) for cls in _vector_classes()]
        assert len(built) == 1
        assert all(index.candidates is indexes[0].candidates for index in indexes)
        merged = _appended(tps)
        maintained = [index.maintained(merged) for index in indexes]
        assert built == [tps, merged]
        assert all(index.layout is maintained[0].layout for index in maintained)
        # One candidate map per version: the merged version has its own,
        # with a row for every merged point.
        fresh = maintained[0].candidates
        assert all(index.candidates is fresh for index in maintained)
        assert fresh is not indexes[0].candidates
        assert len(fresh.indptr) == merged.n + 1

    def test_concurrent_first_builds_share_one_layout(self, monkeypatch):
        # Threads racing to build a fresh version wait for one build of
        # the layout and one of the candidate map, and all get those objects.
        from repro.backends.vector import indexes, soa

        layouts, maps = [], []
        extend, extend_map = soa.SoALayout.extended, indexes._extended_map

        def counted_layout(self, tps):
            layouts.append(tps)
            return extend(self, tps)

        def counted_map(*args):
            maps.append(args)
            return extend_map(*args)

        monkeypatch.setattr(soa.SoALayout, "extended", counted_layout)
        monkeypatch.setattr(indexes, "_extended_map", counted_map)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(5):
                del layouts[:], maps[:]
                tps = random_tps(n=200, seed=seed)
                classes = _vector_classes() * 3
                start = threading.Barrier(len(classes))

                def build(cls):
                    start.wait(timeout=30)
                    return cls(tps, 0.5)

                with ThreadPoolExecutor(max_workers=len(classes)) as pool:
                    futures = [pool.submit(build, cls) for cls in classes]
                    built = [f.result(timeout=60) for f in futures]
                assert (len(layouts), len(maps)) == (1, 1), seed
                assert len({id(index.layout) for index in built}) == 1, seed
                assert len({id(index.candidates) for index in built}) == 1, seed
        finally:
            sys.setswitchinterval(switch)

    def test_layout_is_freed_with_its_version(self):
        tps = random_tps(n=80, seed=6)
        indexes = [cls(tps, 0.5) for cls in _vector_classes()]
        alive = weakref.ref(indexes[0].layout.order_end)
        del indexes, tps
        gc.collect()
        assert alive() is None


# ----------------------------------------------------------------------
# The candidate map: every point's radius-1 candidate cells, built once
# per version and gathered by the four served families' queries.
# ----------------------------------------------------------------------
class TestCandidateMap:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 90),
        dim=st.integers(1, 4),
        metric=st.sampled_from(["l1", "l2", "linf", "l3"]),
        epsilon=st.sampled_from([0.5, 1.0]),
        box=st.sampled_from([1.0, 4.0, 8.0]),
        seed=st.integers(0, 2**16),
    )
    def test_gathered_rows_equal_the_generator(
        self, n, dim, metric, epsilon, box, seed
    ):
        from repro.backends.vector import VectorTriangleIndex
        from repro.backends.vector.indexes import _candidate_pairs

        tps = random_tps(n=n, dim=dim, seed=seed, metric=metric, box=box)
        index = VectorTriangleIndex(tps, epsilon)
        lay = index.layout
        durations = tps.ends - tps.starts
        anchor_sets = [np.empty(0, dtype=np.int64), np.arange(n)] + [
            np.flatnonzero(durations >= tau) for tau in (0.5, 2.0, 4.0, 8.0)
        ]
        for anchors in anchor_sets:
            got = index.candidates.rows(anchors)
            want = _candidate_pairs(lay, tps.metric, anchors, 1.0, index.resolution)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype == np.int64
                assert np.array_equal(g, w), len(anchors)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 90),
        dim=st.integers(1, 6),
        metric=st.sampled_from(["l1", "l2", "linf", "l3"]),
        epsilon=st.sampled_from([0.5, 1.0]),
        box=st.sampled_from([1.0, 2.0, 4.0, 8.0]),
        wide=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_candidates_equal_a_brute_force_scan(
        self, n, dim, metric, epsilon, box, wide, seed
    ):
        from repro.backends.vector import VectorTriangleIndex
        from repro.backends.vector.indexes import _candidate_pairs
        from repro.backends.vector.soa import pairwise_dists
        from repro.structures.decomposition import GEOMETRY_SLACK

        if wide:
            tps = _wide_tps(dim, seed, metric)
        else:
            tps = random_tps(n=n, dim=dim, seed=seed, metric=metric, box=box)
        index = VectorTriangleIndex(tps, epsilon)
        lay = index.layout
        thr = 1.0 + index.resolution + GEOMETRY_SLACK
        rng = np.random.default_rng(seed)
        anchor_sets = [
            np.arange(tps.n),
            np.flatnonzero(rng.random(tps.n) < 0.3),
            np.empty(0, dtype=np.int64),
        ]
        for anchors in anchor_sets:
            want = np.nonzero(
                pairwise_dists(tps.metric, lay.points[anchors], lay.centers) <= thr
            )
            got = _candidate_pairs(lay, tps.metric, anchors, 1.0, index.resolution)
            rows = index.candidates.rows(anchors)
            for g, r, w in zip(got, rows, want):
                assert g.dtype == r.dtype == np.int64
                assert np.array_equal(g, w) and np.array_equal(r, w), len(anchors)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 60),
        dim=st.integers(1, 4),
        epsilon=st.sampled_from([0.5, 1.0]),
        box=st.sampled_from([1.0, 4.0]),
        wide=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_an_extended_search_equals_a_fresh_one(
        self, n, dim, epsilon, box, wide, seed
    ):
        # The map keeps its version's cell search and the next version's
        # map extends it: every array equals a search built at once.
        from repro.backends.vector import VectorTriangleIndex
        from repro.backends.vector.indexes import _cell_search
        from repro.structures.decomposition import GEOMETRY_SLACK

        tps = _wide_tps(dim, seed, "l2") if wide else random_tps(
            n=n, dim=dim, seed=seed, box=box
        )
        index = VectorTriangleIndex(tps, epsilon)
        rng = np.random.default_rng(seed)
        span = np.ptp(tps.points, axis=0) + 4.0
        for _ in range(3):
            k = int(rng.integers(1, 8))
            points = tps.points.min(axis=0) - 2.0 + rng.random((k, dim)) * span
            starts = rng.integers(0, 20, k) / 2
            tps = tps.with_events(points, starts, starts + 3.0)
            index = index.maintained(tps)
            got = index.candidates.search
            want = _cell_search(
                index.layout, 1.0 + index.resolution + GEOMETRY_SLACK
            )
            assert got.reach == want.reach
            pairs = list(zip(got.axes, want.axes)) + [
                ((got.first, got.order, got.codes), (want.first, want.order, want.codes))
            ]
            assert len(got.axes) == len(want.axes) == dim - 1
            for mine, theirs in pairs:
                for a, b in zip(mine, theirs):
                    assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_a_fresh_build_holds_the_map_about_twice(self):
        # The generator keeps each chunk's cells and joins them once, and
        # a fresh build takes them as the map's body: nothing else as
        # long as the map is held.
        import tracemalloc

        from repro.backends.vector import VectorTriangleIndex
        from repro.datasets import workload_from_spec

        tps = workload_from_spec({"workload": "coauthor", "n": 2000, "seed": 0})
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            index = VectorTriangleIndex(tps, 0.5)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        cmap = index.candidates
        held = cmap.indptr.nbytes + cmap.cells.nbytes
        assert held > 1 << 20
        assert peak <= 4 * held, (peak, held)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_wide_sets_answer_like_grid(self, dim):
        # Keys spanning ±1e9 / side on every axis: a mixed-radix code of
        # that span overflows int64.
        from repro.backends.vector import VectorTriangleIndex

        tps = _wide_tps(dim, 0, "l2")
        vec = VectorTriangleIndex(tps, 0.5).query(6.0)
        grid = DurableTriangleIndex(tps, 0.5, backend="grid").query(6.0)
        assert len(grid) > 100
        assert sorted(vec, key=lambda r: r.key) == sorted(grid, key=lambda r: r.key)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_the_search_runs_in_bounded_chunks(self, monkeypatch, dim):
        from repro.backends.vector import VectorTriangleIndex, indexes

        tps = random_tps(n=400, dim=dim, seed=3)
        index = VectorTriangleIndex(tps, 0.5)
        lay, metric, res = index.layout, tps.metric, index.resolution
        anchors = np.arange(tps.n)

        # One rowwise distance pass per chunk of probed cells.
        chunks = []
        dists = indexes.rowwise_dists

        def counted(metric, a, b):
            chunks.append(len(a))
            return dists(metric, a, b)

        def pairs(search_chunk):
            monkeypatch.setattr(indexes, "SEARCH_CHUNK", search_chunk)
            del chunks[:]
            return indexes._candidate_pairs(lay, metric, anchors, 1.0, res)

        monkeypatch.setattr(indexes, "rowwise_dists", counted)
        whole = pairs(1 << 40)
        assert len(chunks) == 1
        chunked = pairs(10_000)
        assert len(chunks) >= 3 and max(chunks) <= 10_000
        for c, w in zip(chunked, whole):
            assert c.dtype == w.dtype and np.array_equal(c, w)

    def test_served_families_generate_candidates_only_while_building(
        self, monkeypatch
    ):
        from repro.backends.vector import indexes

        # The generator itself, which ``_candidate_pairs`` also calls.
        calls = []
        generate = indexes._candidate_rows

        def counted(*args):
            calls.append(args)
            return generate(*args)

        monkeypatch.setattr(indexes, "_candidate_rows", counted)
        tps = random_tps(n=150, seed=5)
        tri, sums, union, pat = [cls(tps, 0.5) for cls in _vector_classes()]
        assert len(calls) == 1
        del calls[:]
        answered = 0
        for i in range(20):
            tau = 2.0 + 0.05 * i
            answered += len(tri.query_block(tau)) + tri.count(tau)
            answered += len(sums.query_block(tau))
            answered += len(union.query_block(tau, 3))
            answered += len(pat.clique_block(3, tau))
        assert answered
        assert calls == []


# ----------------------------------------------------------------------
# Serving integration: per-dataset default backend + served counts
# ----------------------------------------------------------------------
class TestServeIntegration:
    @pytest.fixture()
    def server(self):
        from repro.serve import start_server_thread

        handle = start_server_thread(port=0)
        try:
            yield handle
        finally:
            handle.stop()

    @staticmethod
    def _request(handle, method, path, body=None):
        import http.client

        conn = http.client.HTTPConnection(handle.host, handle.port, timeout=30)
        try:
            conn.request(
                method,
                path,
                body=json.dumps(body) if body is not None else None,
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    @classmethod
    def _served(cls, handle, dataset):
        """``serve_queries_total`` for ``dataset`` by resolved backend."""
        status, data = cls._request(handle, "GET", "/metrics")
        assert status == 200
        families = parse_exposition(data.decode())
        return {
            s.labels["backend"]: s.value
            for s in families["serve_queries_total"].samples
            if s.labels["dataset"] == dataset
        }, families

    def test_default_backend_threads_through_query_and_stats(self, server):
        status, data = self._request(
            server, "POST", "/datasets",
            {
                "name": "pinned",
                "dataset": {"workload": "social", "n": 60, "seed": 2},
                "default_backend": "cover-tree",
            },
        )
        assert status == 201
        assert json.loads(data)["registered"]["default_backend"] == "cover-tree"

        # No backend in the query → the dataset default (cover-tree)
        # applies; an explicit backend overrides it.
        status, data = self._request(
            server, "POST", "/query",
            {
                "dataset": "pinned",
                "include_records": False,
                "queries": [
                    {"kind": "triangles", "tau": 2.0},
                    {"kind": "triangles", "tau": 2.0, "backend": "grid"},
                ],
            },
        )
        assert status == 200
        lines = [json.loads(line) for line in data.decode().splitlines()]
        results = [line for line in lines if line["type"] == "result"]
        assert [r["cache_hit"] for r in results] == [False, False]  # both built
        served, families = self._served(server, "pinned")
        assert served == {"cover-tree": 1, "grid": 1}
        assert counter_value(
            families, "serve_cache_misses_total", {"dataset": "pinned"}
        ) == 2
        status, data = self._request(server, "GET", "/datasets")
        (pinned,) = [
            d for d in json.loads(data)["datasets"] if d["name"] == "pinned"
        ]
        assert pinned["default_backend"] == "cover-tree"

    def test_counters_attribute_cache_hits_and_resolved_auto(self, server):
        status, _ = self._request(
            server, "POST", "/datasets",
            {"name": "auto-ds", "dataset": {"workload": "uniform", "n": 50, "seed": 3}},
        )
        assert status == 201
        body = {
            "dataset": "auto-ds",
            "include_records": False,
            "queries": [
                {"kind": "pairs-sum", "tau": 2.0},
                {"kind": "pairs-sum", "tau": 3.0},
            ],
        }
        status, _ = self._request(server, "POST", "/query", body)
        assert status == 200
        served, families = self._served(server, "auto-ds")
        # auto resolved to one concrete backend ('auto' never appears),
        # shared one build, and the second query was a cache hit.
        assert "auto" not in served
        (name, queries), = served.items()
        assert queries == 2
        where = {"dataset": "auto-ds"}
        assert counter_value(families, "serve_cache_misses_total", where) == 1
        assert counter_value(families, "serve_cache_hits_total", where) == 1

    def test_metric_incompatible_default_backend_is_a_400(self, server):
        # linf-exact cannot serve an l2 dataset: the *registration* must
        # fail, not every later defaulted query.
        status, data = self._request(
            server, "POST", "/datasets",
            {
                "name": "mismatched",
                "dataset": {"workload": "uniform", "n": 30, "metric": "l2"},
                "default_backend": "linf-exact",
            },
        )
        assert status == 400
        assert "linf" in json.loads(data)["error"]

    def test_kind_aware_default_leaves_unserved_kinds_on_auto(self, server):
        # A triangles-only default on an linf dataset pins the triangle
        # queries and leaves pair queries on auto dispatch.
        status, _ = self._request(
            server, "POST", "/datasets",
            {
                "name": "linf-ds",
                "dataset": {"workload": "uniform", "n": 40, "metric": "linf",
                            "seed": 4},
                "default_backend": "linf-exact",
            },
        )
        assert status == 201
        status, _ = self._request(
            server, "POST", "/query",
            {
                "dataset": "linf-ds",
                "include_records": False,
                "queries": [
                    {"kind": "triangles", "tau": 2.0},
                    {"kind": "pairs-sum", "tau": 2.0},
                ],
            },
        )
        assert status == 200
        backends, _ = self._served(server, "linf-ds")
        assert backends["linf-exact"] == 1
        spatial = [n for n in backends if n != "linf-exact"]
        assert len(spatial) == 1 and backends[spatial[0]] == 1

    def test_unknown_default_backend_is_a_400(self, server):
        status, data = self._request(
            server, "POST", "/datasets",
            {
                "name": "broken",
                "dataset": {"workload": "uniform", "n": 30},
                "default_backend": "annoy",
            },
        )
        assert status == 400
        assert "registered backends" in json.loads(data)["error"]

    def test_registry_level_default_backend(self):
        from repro.serve import DatasetRegistry

        registry = DatasetRegistry(default_backend="grid")
        shard = registry.register("d", random_tps(n=20, seed=1))
        assert shard.default_backend == "grid"
        override = registry.register(
            "e", random_tps(n=20, seed=2), default_backend="cover-tree"
        )
        assert override.default_backend == "cover-tree"
        with pytest.raises(ValidationError):
            DatasetRegistry(default_backend="annoy")


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------
def run_cli(*argv):
    out = io.StringIO()
    code = cli_main(list(argv), out=out)
    return code, out.getvalue()


class TestCli:
    def test_backends_lists_descriptors(self):
        code, text = run_cli("backends")
        assert code == 0
        for name in ("cover-tree", "grid", "linf-exact", "vector"):
            assert name in text
        assert "exact" in text and "kinds:" in text

    def test_backends_json(self):
        code, text = run_cli("backends", "--json")
        assert code == 0
        doc = json.loads(text)
        assert {c["name"] for c in doc["backends"]} == {
            "cover-tree", "grid", "linf-exact", "vector",
        }

    def test_backends_explain_resolves_each_kind(self):
        code, text = run_cli(
            "backends", "--explain", "--n", "60", "--metric", "linf"
        )
        assert code == 0
        assert "triangles" in text and "-> linf-exact" in text
        assert "candidates linf-exact, vector, grid, cover-tree" in text
        assert "pairs-sum   -> vector  (first eligible of vector" in text

    def test_one_shot_backend_override_and_resolution_line(self):
        code, text = run_cli(
            "triangles", "--n", "80", "--tau", "4", "--backend", "cover-tree"
        )
        assert code == 0
        assert "backend: cover-tree" in text
        code, text = run_cli("triangles", "--n", "80", "--tau", "4")
        assert code == 0
        assert "backend: vector" in text  # auto → vector on the l2 workload

    def test_batch_backend_override(self, tmp_path):
        qfile = tmp_path / "queries.json"
        qfile.write_text(
            json.dumps(
                [
                    {"kind": "triangles", "tau": 3.0},
                    {"kind": "triangles", "tau": 3.0, "backend": "grid"},
                ]
            )
        )
        out = tmp_path / "results.json"
        code, _ = run_cli(
            "batch", str(qfile), "--n", "60",
            "--backend", "cover-tree", "--output", str(out), "--no-records",
        )
        assert code == 0
        payload = json.loads(out.read_text())
        backends = [q["index"]["backend"] for q in payload["queries"]]
        assert backends == ["cover-tree", "grid"]  # explicit entry wins

    def test_unknown_backend_flag_exits_2(self):
        code, _ = run_cli("triangles", "--n", "40", "--tau", "3",
                          "--backend", "annoy")
        assert code == 2

    def test_batch_unknown_backend_fails_even_with_explicit_queries(self, tmp_path):
        qfile = tmp_path / "queries.json"
        qfile.write_text(json.dumps([{"kind": "triangles", "tau": 3.0,
                                      "backend": "grid"}]))
        code, _ = run_cli("batch", str(qfile), "--n", "40", "--backend", "annoy")
        assert code == 2

    def test_batch_kind_aware_default_backend(self, tmp_path):
        # --backend linf-exact on a mixed linf batch: triangles pinned
        # to the exact solver, pairs fall back to auto dispatch.
        qfile = tmp_path / "queries.json"
        qfile.write_text(json.dumps([
            {"kind": "triangles", "tau": 2.0},
            {"kind": "pairs-sum", "tau": 2.0},
        ]))
        out = tmp_path / "results.json"
        code, _ = run_cli(
            "batch", str(qfile), "--n", "50", "--metric", "linf",
            "--backend", "linf-exact", "--output", str(out), "--no-records",
        )
        assert code == 0
        payload = json.loads(out.read_text())
        backends = [q["index"]["backend"] for q in payload["queries"]]
        assert backends[0] == "linf-exact"
        assert backends[1] in ("cover-tree", "grid", "vector")
