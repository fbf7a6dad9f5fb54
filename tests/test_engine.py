"""Tests for the batched query engine (ISSUE 1 tentpole).

Covers the acceptance criterion — a batch of ≥10 mixed queries over one
dataset builds each distinct index exactly once and matches per-call
``repro.api`` results — plus cache accounting, τ-sweep equivalence,
concurrent-batch determinism, and spec validation and serialisation.

The ISSUE 2 fault-isolation fixes are regression-tested here too: a
poisoned query no longer destroys its batch, waiters on a failed
single-flight build get chained per-thread exception copies (and are
counted as ``failed_waits``, not hits), and ``build_seconds`` survives
LRU eviction of the freshly built entry.
"""

import sys
import threading

import pytest

from repro import (
    QueryEngine,
    QuerySpec,
    ValidationError,
    find_durable_cliques,
    find_durable_triangles,
    find_sum_durable_pairs,
    find_union_durable_pairs,
)
from repro.engine import (
    IndexCache,
    IndexKey,
    QueryPlan,
    execute_plans,
    plan_batch,
    plan_query,
)
from repro.engine.planner import distinct_index_keys

from conftest import check_plan_builds_its_key, random_tps


# ----------------------------------------------------------------------
# QuerySpec
# ----------------------------------------------------------------------
class TestQuerySpec:
    def test_scalar_tau_normalised(self):
        spec = QuerySpec(kind="triangles", taus=5)
        assert spec.taus == (5.0,) and spec.tau == 5.0 and not spec.is_sweep

    def test_sweep(self):
        spec = QuerySpec(kind="triangles", taus=[2, 4, 8])
        assert spec.is_sweep
        with pytest.raises(ValidationError):
            spec.tau

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "nonsense", "taus": 1.0},
            {"kind": "triangles", "taus": ()},
            {"kind": "triangles", "taus": 0.0},
            {"kind": "triangles", "taus": -3.0},
            {"kind": "triangles", "taus": float("inf")},
            {"kind": "triangles", "taus": 1.0, "epsilon": 0.0},
            {"kind": "triangles", "taus": 1.0, "epsilon": 1.5},
            {"kind": "triangles", "taus": 1.0, "backend": "bogus"},
            {"kind": "pairs-union", "taus": 1.0},  # missing kappa
            {"kind": "pairs-union", "taus": 1.0, "kappa": 0},
            {"kind": "triangles", "taus": 1.0, "kappa": 2},
            {"kind": "cliques", "taus": 1.0, "m": 1},
            {"kind": "triangles", "taus": 1.0, "m": 3},
            {"kind": "pairs-sum", "taus": 1.0, "exact": True},
            {"kind": "triangles", "taus": 1.0, "backend": "linf-exact", "exact": False},
            {"kind": "pairs-sum", "taus": 1.0, "sum_backend": "bogus"},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            QuerySpec(**kwargs)

    def test_unknown_kind_error_lists_every_accepted_kind(self):
        expected = (
            "unknown query kind 'bogus'; expected one of triangles, cliques, "
            "paths, stars, pairs-sum, pairs-union, pattern-dsl"
        )
        with pytest.raises(ValidationError) as info:
            QuerySpec(kind="bogus", taus=1.0)
        assert str(info.value) == expected

    def test_pattern_m_defaults_to_three(self):
        assert QuerySpec(kind="cliques", taus=2.0).m == 3

    def test_string_tau_is_a_scalar_not_a_sweep(self):
        # A quoted number in a hand-written batch file must not be
        # iterated character-by-character into a sweep.
        assert QuerySpec(kind="triangles", taus="12").taus == (12.0,)
        assert QuerySpec.from_dict({"kind": "triangles", "tau": "6"}).taus == (6.0,)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "triangles", "taus": "abc"},
            {"kind": "triangles", "taus": [3.0, "x"]},
            {"kind": "triangles", "taus": 3.0, "epsilon": "half"},
            {"kind": "triangles", "taus": None},
        ],
    )
    def test_non_numeric_parameters_raise_validation_error(self, kwargs):
        # Never a bare ValueError/TypeError: the CLI's error contract
        # (message + exit 2) depends on ReproError subclasses.
        with pytest.raises(ValidationError):
            QuerySpec(**kwargs)

    def test_round_trip(self):
        spec = QuerySpec(
            kind="pairs-union", taus=(3.0, 6.0), kappa=2, epsilon=0.25, label="x"
        )
        assert QuerySpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_scalar_tau(self):
        assert QuerySpec.from_dict({"kind": "triangles", "tau": 4}).taus == (4.0,)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValidationError):
            QuerySpec.from_dict({"kind": "triangles", "tau": 4, "tua": 5})

    def test_from_dict_rejects_tau_and_taus(self):
        with pytest.raises(ValidationError):
            QuerySpec.from_dict({"kind": "triangles", "tau": 4, "taus": [4]})

    def test_hashable(self):
        assert len({QuerySpec(kind="triangles", taus=4.0)} | {
            QuerySpec(kind="triangles", taus=4.0)
        }) == 1


# ----------------------------------------------------------------------
# Planner / cache keys
# ----------------------------------------------------------------------
class TestPlanner:
    def test_same_parameters_share_a_key(self, small_tps):
        plans = plan_batch(
            [
                QuerySpec(kind="triangles", taus=3.0),
                QuerySpec(kind="triangles", taus=7.0),
                QuerySpec(kind="triangles", taus=(2.0, 4.0)),
            ],
            small_tps,
        )
        assert len(distinct_index_keys(plans)) == 1

    def test_epsilon_fragments_the_key(self, small_tps):
        plans = plan_batch(
            [
                QuerySpec(kind="triangles", taus=3.0, epsilon=0.5),
                QuerySpec(kind="triangles", taus=3.0, epsilon=0.25),
            ],
            small_tps,
        )
        assert len(distinct_index_keys(plans)) == 2

    def test_auto_shares_with_its_resolved_explicit_backend(self, small_tps):
        # ``auto`` resolves through the registry's cost model to a
        # concrete backend name; a query naming that backend explicitly
        # must land on the same cached index.
        from repro.backends import default_registry

        spec = QuerySpec(kind="triangles", taus=3.0, backend="auto")
        resolved = default_registry().resolve(spec, small_tps).name
        plans = plan_batch(
            [spec, QuerySpec(kind="triangles", taus=3.0, backend=resolved)],
            small_tps,
        )
        assert plans[0].key.backend == resolved
        assert len(distinct_index_keys(plans)) == 1

    def test_pattern_kinds_share_one_index(self, small_tps):
        plans = plan_batch(
            [
                QuerySpec(kind="cliques", taus=3.0),
                QuerySpec(kind="paths", taus=3.0, m=4),
                QuerySpec(kind="stars", taus=3.0),
            ],
            small_tps,
        )
        assert len(distinct_index_keys(plans)) == 1

    def test_linf_auto_promotes_to_exact(self):
        tps = random_tps(n=30, seed=2, metric="linf")
        plan = plan_query(0, QuerySpec(kind="triangles", taus=3.0), tps)
        assert plan.key.family == "linf-triangles"
        # ...and ε no longer fragments the shared exact index.
        other = plan_query(
            0, QuerySpec(kind="triangles", taus=3.0, epsilon=0.25), tps
        )
        assert other.key == plan.key

    def test_exact_false_stays_approximate_on_linf(self):
        tps = random_tps(n=30, seed=2, metric="linf")
        plan = plan_query(
            0, QuerySpec(kind="triangles", taus=3.0, exact=False), tps
        )
        assert plan.key.family == "triangles"

    def test_exact_requires_linf_metric(self, small_tps):
        for spec in (
            QuerySpec(kind="triangles", taus=3.0, backend="linf-exact"),
            QuerySpec(kind="triangles", taus=3.0, exact=True),
        ):
            with pytest.raises(ValidationError):
                plan_query(0, spec, small_tps)

    def test_batch_error_names_the_query(self, small_tps):
        with pytest.raises(ValidationError, match="query #1"):
            plan_batch(
                [
                    QuerySpec(kind="triangles", taus=3.0),
                    QuerySpec(kind="triangles", taus=3.0, backend="linf-exact"),
                ],
                small_tps,
            )

    def test_index_cache_key_hook_matches_plan_key(self, small_tps):
        # ``auto`` resolves to a concrete backend, and the index that
        # resolution builds must still be the one its plan key names.
        linf = random_tps(n=30, seed=2, metric="linf")
        cases = [
            (small_tps, QuerySpec(kind="triangles", taus=3.0, epsilon=0.25)),
            (small_tps, QuerySpec(kind="pairs-sum", taus=3.0, epsilon=0.25)),
            (small_tps, QuerySpec(kind="pairs-union", taus=3.0, epsilon=0.25,
                                  kappa=2)),
            (small_tps, QuerySpec(kind="cliques", taus=3.0, epsilon=0.25)),
            (linf, QuerySpec(kind="triangles", taus=3.0, epsilon=0.25)),
        ]
        for tps, spec in cases:
            check_plan_builds_its_key(tps, spec)

    def test_fingerprint_tracks_content_not_identity(self):
        a, b = random_tps(n=25, seed=3), random_tps(n=25, seed=3)
        c = random_tps(n=25, seed=4)
        assert a.fingerprint() == b.fingerprint() != c.fingerprint()
        linf = random_tps(n=25, seed=3, metric="linf")
        assert linf.fingerprint() != a.fingerprint()


# ----------------------------------------------------------------------
# IndexCache
# ----------------------------------------------------------------------
class TestIndexCache:
    KEY = IndexKey("f", "fp", 0.5, "cover-tree")

    def test_hit_miss_accounting(self):
        cache = IndexCache()
        obj, hit, build_s, source = cache.get_or_build(self.KEY, lambda: object())
        assert not hit and cache.stats.misses == 1 and cache.stats.builds == 1
        assert build_s >= 0.0 and source == "build"
        again, hit, _, source = cache.get_or_build(self.KEY, lambda: object())
        assert hit and again is obj and cache.stats.hits == 1
        assert source == "hit"

    def test_failed_build_is_not_cached(self):
        cache = IndexCache()

        def boom():
            raise RuntimeError("nope")

        with pytest.raises(RuntimeError):
            cache.get_or_build(self.KEY, boom)
        assert self.KEY not in cache
        obj, hit, _, _source = cache.get_or_build(self.KEY, lambda: "ok")
        assert obj == "ok" and not hit

    def test_lru_eviction(self):
        cache = IndexCache(max_entries=2)
        keys = [IndexKey("f", str(i), 0.5, "b") for i in range(3)]
        for k in keys:
            cache.get_or_build(k, lambda: object())
        assert len(cache) == 2
        assert keys[0] not in cache and keys[2] in cache
        assert cache.stats.evictions == 1

    def test_single_flight_under_contention(self):
        cache = IndexCache()
        builds = []
        gate = threading.Event()

        def slow_build():
            gate.wait(timeout=5)
            builds.append(1)
            return object()

        results = [None] * 8

        def worker(i):
            results[i] = cache.get_or_build(self.KEY, slow_build)[0]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        gate.set()
        for t in threads:
            t.join()
        assert len(builds) == 1
        assert all(r is results[0] for r in results)
        assert cache.stats.builds == 1 and cache.stats.hits == 7


# ----------------------------------------------------------------------
# Fault isolation (ISSUE 2 bugfixes)
# ----------------------------------------------------------------------
def _fake_plan(i, key_id, builder=None, runner=None, taus=(1.0,), label=None):
    """A synthetic plan whose builder/runner the test controls."""
    spec = QuerySpec(kind="triangles", taus=taus, label=label or f"q{i}")
    return QueryPlan(
        order=i,
        spec=spec,
        key=IndexKey("fake", f"fp-{key_id}", 0.5, "b"),
        builder=builder if builder is not None else (lambda: object()),
        runner=runner if runner is not None else (lambda index, tau: [])
    )


def _boom():
    raise RuntimeError("poisoned builder")


class TestFaultIsolation:
    def test_batch_with_poisoned_builders_keeps_other_results(self):
        """The ISSUE 2 acceptance criterion: 8 queries, 2 raise, 6 survive."""
        plans = [
            _fake_plan(i, key_id=i, builder=_boom if i in (2, 5) else None)
            for i in range(8)
        ]
        results = execute_plans(
            plans, IndexCache(), max_workers=4, raise_on_error=False
        )
        assert len(results) == 8
        assert [r.spec.label for r in results] == [f"q{i}" for i in range(8)]
        good = [r for r in results if r.ok]
        bad = [r for r in results if not r.ok]
        assert len(good) == 6 and len(bad) == 2
        assert all(r.error is None and r.records_by_tau for r in good)
        for r in bad:
            assert r.spec.label in ("q2", "q5")
            assert "RuntimeError: poisoned builder" in r.error
            assert r.records_by_tau == {} and r.count == 0

    def test_poisoned_runner_is_isolated_too(self):
        def bad_runner(index, tau):
            raise ValueError("runner blew up")

        plans = [
            _fake_plan(0, key_id=0),
            _fake_plan(1, key_id=1, runner=bad_runner),
            _fake_plan(2, key_id=2),
        ]
        results = execute_plans(plans, IndexCache(), raise_on_error=False)
        assert [r.ok for r in results] == [True, False, True]
        assert "ValueError: runner blew up" in results[1].error

    def test_raise_on_error_raises_first_failure_in_submission_order(self):
        plans = [
            _fake_plan(0, key_id=0),
            _fake_plan(1, key_id=1, builder=_boom),
            _fake_plan(2, key_id=2, runner=lambda i, t: 1 / 0),
        ]
        with pytest.raises(RuntimeError, match="poisoned builder"):
            execute_plans(plans, IndexCache(), max_workers=3, raise_on_error=True)

    def test_sequential_isolation_matches_parallel(self):
        plans = [
            _fake_plan(0, key_id=0, builder=_boom),
            _fake_plan(1, key_id=1),
        ]
        results = execute_plans(
            plans, IndexCache(), parallel=False, raise_on_error=False
        )
        assert [r.ok for r in results] == [False, True]

    def test_engine_run_batch_isolates_faults(self, small_tps, monkeypatch):
        """End-to-end through QueryEngine.run_batch with real specs."""
        import repro.engine.engine as engine_mod

        real_plan_batch = engine_mod.plan_batch

        def poisoning_plan_batch(specs, tps):
            plans = real_plan_batch(specs, tps)
            return [
                QueryPlan(p.order, p.spec, p.key, _boom, p.runner)
                if p.spec.label == "poison" else p
                for p in plans
            ]

        monkeypatch.setattr(engine_mod, "plan_batch", poisoning_plan_batch)
        engine = QueryEngine()
        specs = [
            QuerySpec(kind="triangles", taus=3.0),
            # ε=0.99 keeps the poisoned keys off the healthy queries' keys.
            QuerySpec(kind="triangles", taus=3.0, epsilon=0.99, label="poison"),
            QuerySpec(kind="pairs-sum", taus=3.0),
            QuerySpec(kind="pairs-sum", taus=3.0, epsilon=0.99, label="poison"),
            QuerySpec(kind="pairs-union", taus=3.0, kappa=2),
            QuerySpec(kind="cliques", taus=3.0),
            QuerySpec(kind="stars", taus=3.0),
            QuerySpec(kind="triangles", taus=(2.0, 4.0)),
        ]
        batch = engine.run_batch(small_tps, specs)
        assert len(batch) == 8
        assert batch.n_errors == 2 and not batch.ok
        assert [not r.ok for r in batch] == [
            s.label == "poison" for s in specs
        ]
        expected = find_durable_triangles(small_tps, 3.0)
        assert [r.key for r in batch[0].records] == [r.key for r in expected]
        # raise_on_error=True restores the historical contract.
        with pytest.raises(RuntimeError, match="poisoned builder"):
            engine.run_batch(small_tps, specs, raise_on_error=True)

    def test_error_results_serialise(self):
        plans = [_fake_plan(0, key_id=0, builder=_boom)]
        [result] = execute_plans(plans, IndexCache(), raise_on_error=False)
        payload = result.to_dict()
        assert payload["ok"] is False
        assert "poisoned builder" in payload["error"]
        ok_payload = execute_plans(
            [_fake_plan(1, key_id=1)], IndexCache(), raise_on_error=False
        )[0].to_dict()
        assert ok_payload["ok"] is True and ok_payload["error"] is None

    def test_batch_result_reports_error_count(self, small_tps):
        engine = QueryEngine()
        batch = engine.run_batch(small_tps, [QuerySpec(kind="triangles", taus=3.0)])
        assert batch.ok and batch.n_errors == 0
        assert batch.to_dict()["errors"] == 0 and batch.to_dict()["ok"] is True


class TestFailedFlightAccounting:
    KEY = IndexKey("f", "fp", 0.5, "cover-tree")

    def test_waiters_on_failed_build_get_chained_copies(self):
        cache = IndexCache()
        gate = threading.Event()

        class BoomError(Exception):
            pass

        def failing_build():
            gate.wait(timeout=5)
            raise BoomError("kaboom")

        n_waiters = 5
        errors = [None] * (n_waiters + 1)

        def worker(i):
            try:
                cache.get_or_build(self.KEY, failing_build)
            except BaseException as exc:  # noqa: BLE001
                errors[i] = exc

        owner = threading.Thread(target=worker, args=(0,))
        owner.start()
        # Wait until the owner's in-flight entry is visible, then let the
        # waiters pile onto that flight before releasing the gate.
        for _ in range(200):
            if len(cache) == 1:
                break
            threading.Event().wait(0.005)
        waiters = [
            threading.Thread(target=worker, args=(i,))
            for i in range(1, n_waiters + 1)
        ]
        for t in waiters:
            t.start()
        threading.Event().wait(0.3)
        gate.set()
        owner.join()
        for t in waiters:
            t.join()

        assert all(isinstance(e, BoomError) for e in errors)
        originals = [e for e in errors if e.__cause__ is None]
        copies = [e for e in errors if e.__cause__ is not None]
        assert len(originals) == 1 and len(copies) == n_waiters
        # Each waiter raised its own instance, chained to the original.
        assert len({id(e) for e in errors}) == n_waiters + 1
        assert all(e.__cause__ is originals[0] for e in copies)

        # Stats: one miss (the failed flight's owner), no hits, no
        # builds; the waiters are failed_waits, not hits.
        stats = cache.stats
        assert stats.misses == 1
        assert stats.hits == 0
        assert stats.builds == 0
        assert stats.failed_waits == n_waiters
        assert stats.requests == n_waiters + 1

    def test_failed_waits_in_dict_and_since(self):
        cache = IndexCache()
        before = cache.stats.snapshot()
        assert "failed_waits" in cache.stats.as_dict()
        assert cache.stats.snapshot().since(before).failed_waits == 0

    def test_successful_waiters_still_count_as_hits(self):
        # The happy path of the old accounting must be unchanged.
        cache = IndexCache()
        cache.get_or_build(self.KEY, lambda: "idx")
        cache.get_or_build(self.KEY, lambda: "idx")
        assert cache.stats.hits == 1 and cache.stats.failed_waits == 0


class TestBuildSecondsUnderEviction:
    def test_outcome_carries_build_seconds_past_eviction(self):
        import time

        cache = IndexCache(max_entries=1)
        k1 = IndexKey("f", "one", 0.5, "b")
        k2 = IndexKey("f", "two", 0.5, "b")

        def slow_build():
            time.sleep(0.01)
            return "a"

        out1 = cache.get_or_build(k1, slow_build)
        cache.get_or_build(k2, lambda: "b")  # evicts k1
        assert k1 not in cache
        assert out1.build_seconds >= 0.01
        # ...which is exactly the after-the-fact lookup's blind spot:
        assert cache.build_seconds_for(k1) == 0.0

    def test_executor_reports_build_time_despite_eviction(self):
        """A mid-query eviction (guaranteed at max_entries=1) must not
        zero the reported build time."""
        import time

        cache = IndexCache(max_entries=1)
        other_key = IndexKey("fake", "fp-other", 0.5, "b")

        def evicting_runner(index, tau):
            # Building another index evicts this plan's entry before the
            # executor assembles its QueryResult.
            cache.get_or_build(other_key, lambda: "other")
            return []

        plan = _fake_plan(
            0,
            key_id="self",
            builder=lambda: (time.sleep(0.01), "idx")[1],
            runner=evicting_runner,
        )
        [result] = execute_plans(plans=[plan], cache=cache, parallel=False)
        assert plan.key not in cache  # the eviction really happened
        assert result.build_seconds >= 0.01


# ----------------------------------------------------------------------
# QueryEngine end-to-end
# ----------------------------------------------------------------------
def _mixed_specs():
    """≥10 mixed queries over one dataset (4 distinct indexes)."""
    return [
        QuerySpec(kind="triangles", taus=3.0),
        QuerySpec(kind="triangles", taus=5.0),
        QuerySpec(kind="triangles", taus=(2.0, 4.0, 6.0)),
        QuerySpec(kind="pairs-sum", taus=4.0),
        QuerySpec(kind="pairs-sum", taus=6.0),
        QuerySpec(kind="pairs-union", taus=4.0, kappa=2),
        QuerySpec(kind="pairs-union", taus=4.0, kappa=3),
        QuerySpec(kind="cliques", taus=3.0, m=3),
        QuerySpec(kind="cliques", taus=4.0, m=4),
        QuerySpec(kind="stars", taus=4.0, m=3),
        QuerySpec(kind="paths", taus=4.0, m=3),
    ]


class TestQueryEngine:
    def test_batch_builds_each_distinct_index_once_and_matches_api(self, medium_tps):
        """The ISSUE 1 acceptance criterion."""
        specs = _mixed_specs()
        assert len(specs) >= 10
        engine = QueryEngine()
        batch = engine.run_batch(medium_tps, specs)

        # Each distinct index was built exactly once, asserted via stats.
        assert batch.distinct_indexes == 4
        assert engine.stats.builds == 4
        assert engine.stats.misses == 4
        assert engine.stats.hits == len(specs) - 4

        # Results are identical to per-call api.py invocations.
        tps = medium_tps
        expect = {
            0: find_durable_triangles(tps, 3.0),
            1: find_durable_triangles(tps, 5.0),
            3: find_sum_durable_pairs(tps, 4.0),
            4: find_sum_durable_pairs(tps, 6.0),
            5: find_union_durable_pairs(tps, 4.0, kappa=2),
            6: find_union_durable_pairs(tps, 4.0, kappa=3),
            # The core helper builds its PatternIndex directly, so pin it
            # to the backend the engine's registry resolution picked.
            7: find_durable_cliques(tps, 3, 3.0, backend=batch[7].key.backend),
            8: find_durable_cliques(tps, 4, 4.0, backend=batch[8].key.backend),
        }
        for i, records in expect.items():
            assert [r.key for r in batch[i].records] == [r.key for r in records], i
        for tau in (2.0, 4.0, 6.0):
            assert [r.key for r in batch[2].records_by_tau[tau]] == [
                r.key for r in find_durable_triangles(tps, tau)
            ]

    def test_tau_sweep_equivalence(self, small_tps):
        engine = QueryEngine()
        taus = (1.0, 3.0, 5.0, 9.0)
        result = engine.run(small_tps, QuerySpec(kind="triangles", taus=taus))
        for tau in taus:
            per_call = find_durable_triangles(small_tps, tau)
            assert [r.key for r in result.records_by_tau[tau]] == [
                r.key for r in per_call
            ]

    def test_concurrent_batch_is_deterministic(self, medium_tps):
        specs = _mixed_specs()
        runs = []
        for parallel in (True, True, False):
            engine = QueryEngine(max_workers=4)
            batch = engine.run_batch(medium_tps, specs, parallel=parallel)
            runs.append(
                [
                    [(tau, tuple(r.key for r in recs))
                     for tau, recs in res.records_by_tau.items()]
                    for res in batch
                ]
            )
        assert runs[0] == runs[1] == runs[2]

    def test_dict_specs_accepted(self, small_tps):
        engine = QueryEngine()
        batch = engine.run_batch(
            small_tps,
            [{"kind": "triangles", "tau": 3.0}, {"kind": "pairs-sum", "tau": 3.0}],
        )
        assert len(batch) == 2
        assert batch[0].records == [
            r for r in find_durable_triangles(small_tps, 3.0)
        ]

    def test_results_order_matches_submission_order(self, small_tps):
        engine = QueryEngine(max_workers=4)
        specs = _mixed_specs()
        batch = engine.run_batch(small_tps, specs)
        assert [r.spec for r in batch] == specs

    def test_cache_shared_across_batches(self, small_tps):
        engine = QueryEngine()
        engine.run_batch(small_tps, [QuerySpec(kind="triangles", taus=3.0)])
        batch = engine.run_batch(small_tps, [QuerySpec(kind="triangles", taus=6.0)])
        assert batch[0].cache_hit
        assert engine.stats.builds == 1

    def test_batch_cache_stats_are_per_batch(self, small_tps):
        engine = QueryEngine()
        first = engine.run_batch(small_tps, [QuerySpec(kind="triangles", taus=3.0)])
        second = engine.run_batch(small_tps, [QuerySpec(kind="triangles", taus=6.0)])
        assert first.cache_stats["builds"] == 1
        # The second batch built nothing; cumulative figures stay on
        # engine.stats.
        assert second.cache_stats["builds"] == 0
        assert second.cache_stats["hits"] == 1
        assert engine.stats.builds == 1

    def test_concurrent_batches_count_only_their_own_cache_activity(self, small_tps):
        """Two threads share one engine: a batch held open while the
        other runs reports its own two hits, not the other's too."""
        armed, entered, release = (threading.Event() for _ in range(3))

        class HoldingCache(IndexCache):
            """Parks the first acquisition after ``armed`` until ``release``."""

            def get_or_build(self, key, builder):
                outcome = super().get_or_build(key, builder)
                if armed.is_set() and not entered.is_set():
                    entered.set()
                    release.wait(30)
                return outcome

        engine = QueryEngine(cache=HoldingCache())
        specs = [QuerySpec(kind="triangles", taus=3.0), QuerySpec(kind="pairs-sum", taus=3.0)]
        assert engine.run_batch(small_tps, specs).cache_stats["builds"] == 2
        armed.set()
        batches = {}
        held = threading.Thread(
            target=lambda: batches.update(held=engine.run_batch(small_tps, specs))
        )
        held.start()
        try:
            assert entered.wait(30)
            batches["other"] = engine.run_batch(small_tps, specs)
        finally:
            release.set()
            held.join(30)
        assert not held.is_alive()
        for name, batch in batches.items():
            assert batch.cache_stats == {
                "hits": 2, "misses": 0, "builds": 0, "evictions": 0,
                "failed_waits": 0, "migrated": 0, "invalidated": 0,
                "build_seconds": 0.0, "hit_rate": 1.0,
            }, name
        assert engine.stats.hits == 4

    def test_per_batch_cache_stats_add_up_under_contention(self, small_tps):
        """More client threads than cores on one engine: every batch
        reports exactly its own hits, and together they add up to the
        cache's."""
        engine = QueryEngine()
        specs = [QuerySpec(kind="triangles", taus=3.0), QuerySpec(kind="pairs-sum", taus=3.0)]
        engine.run_batch(small_tps, specs)
        before = engine.stats.snapshot()
        batches = []

        def client():
            for _ in range(5):
                batches.append(engine.run_batch(small_tps, specs))

        threads = [threading.Thread(target=client) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(batches) == 40
        assert {(b.cache_stats["hits"], b.cache_stats["misses"]) for b in batches} == {(2, 0)}
        assert engine.stats.since(before).hits == 80

    def test_reset_clears_cache_and_stats(self, small_tps):
        engine = QueryEngine()
        engine.run(small_tps, QuerySpec(kind="triangles", taus=3.0))
        engine.reset()
        assert engine.stats.requests == 0
        result = engine.run(small_tps, QuerySpec(kind="triangles", taus=3.0))
        assert not result.cache_hit

    def test_batch_result_serialises(self, small_tps):
        import json

        engine = QueryEngine()
        batch = engine.run_batch(
            small_tps,
            [
                QuerySpec(kind="triangles", taus=(2.0, 4.0)),
                QuerySpec(kind="pairs-union", taus=3.0, kappa=2),
                QuerySpec(kind="stars", taus=3.0),
            ],
        )
        payload = json.loads(json.dumps(batch.to_dict()))
        assert len(payload["queries"]) == 3
        sweep = payload["queries"][0]["results"]
        assert [e["tau"] for e in sweep] == [2.0, 4.0]
        assert all("records" in e for e in sweep)
        lean = batch.to_dict(include_records=False)
        assert all(
            "records" not in e for q in lean["queries"] for e in q["results"]
        )
