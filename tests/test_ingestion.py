"""Versioned datasets end to end (ISSUE 7 tentpole + satellites).

Covers: epoch-bearing :class:`~repro.types.TemporalPointSet`
fingerprints and the ``with_events`` append path; epoch-aware
:meth:`~repro.engine.cache.IndexCache.advance` (untouched families keep
hitting, affected families rebuild exactly once, stale-epoch waiters
never see a pre-append index); shard-level ``append_events`` semantics
(per-line rejection, rebuild-on-threshold, single-writer epoch bumps);
the append-then-query ≡ fresh-registration identity, hypothesis-tested
across all four query families; the manifest event log and
restart-with-replay of appended state; the serve and router HTTP
endpoints; and the ``repro append`` CLI.
"""

from __future__ import annotations

import gc
import io
import json
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import TemporalPointSet
from repro.cli import main as cli_main
from repro.engine import QuerySpec, plan_batch, plan_query
from repro.engine.cache import IndexCache, IndexKey
from repro.engine.executor import execute_plans
from repro.errors import ValidationError
from repro.router.manifest import PlacementManifest
from repro.serve.registry import MAX_EVENT_ERRORS, DatasetRegistry, DatasetShard
from repro.serve.server import records_line

from conftest import check_route_table, random_tps


def _event_line(tps: TemporalPointSet, i: int) -> str:
    return json.dumps(
        {
            "point": tps.points[i].tolist(),
            "start": float(tps.starts[i]),
            "end": float(tps.ends[i]),
        }
    )


def _ndjson(tps: TemporalPointSet, lo: int, hi: int) -> str:
    return "\n".join(_event_line(tps, i) for i in range(lo, hi))


def _prefix(tps: TemporalPointSet, k: int) -> TemporalPointSet:
    return TemporalPointSet(
        tps.points[:k], tps.starts[:k], tps.ends[:k], metric=tps.metric.name
    )


def _sorted_keys(records) -> list:
    return sorted(r.key for r in records)


def _served_lines(shard, specs) -> list:
    """The ``records`` lines ``shard`` serves ``specs`` as, in order."""
    results = execute_plans(plan_batch(specs, shard.tps), shard.cache, parallel=False)
    assert all(result.ok for result in results), [r.error for r in results]
    return [
        records_line(i, tau, records)
        for i, result in enumerate(results)
        for tau, records in result.records_by_tau.items()
    ]


# ----------------------------------------------------------------------
# TemporalPointSet: epoch + with_events
# ----------------------------------------------------------------------
class TestEpochedPointSet:
    def test_epoch_defaults_to_zero(self):
        assert random_tps(n=8).epoch == 0

    @pytest.mark.parametrize("bad", [-1, 1.5, "2", True, None])
    def test_epoch_validation(self, bad):
        tps = random_tps(n=8)
        with pytest.raises(ValidationError):
            TemporalPointSet(
                tps.points, tps.starts, tps.ends, epoch=bad
            )

    def test_with_events_merges_and_bumps_epoch(self):
        tps = random_tps(n=10)
        merged = tps.with_events(
            [[0.5, 0.5], [1.0, 1.0]], [0.0, 1.0], [5.0, 6.0]
        )
        assert merged.epoch == 1
        assert merged.n == 12
        # Appended points take ids n, n+1, … — the merged arrays are the
        # concatenation, so a fresh build over them is the union.
        np.testing.assert_array_equal(merged.points[:10], tps.points)
        np.testing.assert_array_equal(merged.points[10], [0.5, 0.5])
        assert float(merged.starts[11]) == 1.0
        assert float(merged.ends[11]) == 6.0
        # Chaining keeps counting.
        again = merged.with_events([[2.0, 2.0]], [0.0], [1.0])
        assert again.epoch == 2
        # The original is untouched (copy-on-append).
        assert tps.epoch == 0 and tps.n == 10

    def test_with_events_validation(self):
        tps = random_tps(n=6)
        with pytest.raises(ValidationError):
            tps.with_events(np.empty((0, 2)), [], [])
        with pytest.raises(ValidationError):  # dim mismatch
            tps.with_events([[1.0, 2.0, 3.0]], [0.0], [1.0])
        with pytest.raises(ValidationError):  # length mismatch
            tps.with_events([[1.0, 2.0]], [0.0, 1.0], [1.0])

    def test_epoch_zero_fingerprint_is_unversioned(self):
        # Epoch 0 must hash exactly as the pre-versioning format did:
        # an explicit epoch=0 construction and a default one agree.
        tps = random_tps(n=8)
        explicit = TemporalPointSet(
            tps.points, tps.starts, tps.ends, epoch=0
        )
        assert explicit.fingerprint() == tps.fingerprint()

    def test_epoch_distinguishes_identical_data(self):
        # Same points, different epoch → different identity: a cache
        # must never serve a pre-append index to a post-append query
        # even if the arrays happen to coincide.
        tps = random_tps(n=8)
        merged = tps.with_events([[0.1, 0.1]], [0.0], [1.0])
        rebuilt = TemporalPointSet(
            merged.points, merged.starts, merged.ends
        )
        assert merged.fingerprint() != rebuilt.fingerprint()
        assert "epoch=1" in repr(merged)
        assert "epoch" not in repr(tps)


# ----------------------------------------------------------------------
# IndexCache.advance — satellite 3
# ----------------------------------------------------------------------
def _key(family: str, fp: str) -> IndexKey:
    return IndexKey(family=family, fingerprint=fp, epsilon=0.5, backend="grid")


class TestCacheAdvance:
    def test_same_fingerprint_rejected(self):
        with pytest.raises(ValueError):
            IndexCache().advance("fp", "fp")

    def test_untouched_family_hits_affected_rebuilds_exactly_once(self):
        cache = IndexCache()
        cache.get_or_build(_key("triangles", "old"), lambda: "tri-old")
        cache.get_or_build(_key("pairs-sum", "old"), lambda: "sum-old")

        def maintainer(key, index):
            return "tri-new" if key.family == "triangles" else None

        moved = cache.advance("old", "new", maintainer)
        assert [k.family for k in moved["migrated"]] == ["triangles"]
        assert [k.family for k in moved["invalidated"]] == ["pairs-sum"]
        assert cache.stats.migrated == 1 and cache.stats.invalidated == 1

        # Untouched (maintained) family still hits — no rebuild.
        before = cache.stats.snapshot()
        outcome = cache.get_or_build(
            _key("triangles", "new"), lambda: pytest.fail("must not build")
        )
        assert outcome.hit and outcome.index == "tri-new"
        assert cache.stats.builds == before.builds

        # Affected family rebuilds exactly once under concurrency
        # (single-flight preserved through the invalidation).
        builds = []

        def builder():
            builds.append(1)
            time.sleep(0.05)
            return "sum-new"

        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(
                    cache.get_or_build(_key("pairs-sum", "new"), builder)
                )
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(builds) == 1
        assert all(r.index == "sum-new" for r in results)
        # Nothing remains under the old fingerprint.
        assert cache.peek(_key("triangles", "old")) is None
        assert cache.peek(_key("pairs-sum", "old")) is None

    def test_stale_epoch_waiters_never_receive_preappend_index(self):
        # A build in flight when the epoch bumps stays under its old
        # key: its waiters planned against the old epoch and get the
        # old-epoch index; post-append queries mint new-fingerprint
        # keys, so they can never join that flight or see its result.
        cache = IndexCache()
        release = threading.Event()
        old_key, new_key = _key("triangles", "old"), _key("triangles", "new")

        def slow_build():
            release.wait(5.0)
            return "old-index"

        waiter_result = []
        owner = threading.Thread(
            target=lambda: cache.get_or_build(old_key, slow_build)
        )
        owner.start()
        time.sleep(0.05)  # owner holds the in-flight slot
        waiter = threading.Thread(
            target=lambda: waiter_result.append(
                cache.get_or_build(old_key, lambda: "never")
            )
        )
        waiter.start()

        # Epoch bump while the old build is in flight: nothing ready
        # under the old fingerprint, so nothing migrates or dies.
        moved = cache.advance("old", "new", lambda k, i: i)
        assert moved == {"migrated": [], "invalidated": []}

        # A post-append query builds fresh under the new key.
        outcome = cache.get_or_build(new_key, lambda: "new-index")
        assert not outcome.hit and outcome.index == "new-index"

        release.set()
        owner.join(5.0)
        waiter.join(5.0)
        # The stale-epoch waiter got the old-epoch index (correct for
        # its plan), and the new key still holds the new index.
        assert waiter_result[0].index == "old-index"
        assert cache.peek(new_key) == "new-index"

    def test_racing_new_epoch_build_wins_over_migration(self):
        cache = IndexCache()
        cache.get_or_build(_key("triangles", "old"), lambda: "maintained-src")
        # A query on the new epoch already built before advance() got
        # to this entry: the single-flight winner stands, the migration
        # result is discarded.
        cache.get_or_build(_key("triangles", "new"), lambda: "racer")
        moved = cache.advance("old", "new", lambda k, i: "maintained")
        assert moved["migrated"] == []
        assert len(moved["invalidated"]) == 1
        assert cache.peek(_key("triangles", "new")) == "racer"


# ----------------------------------------------------------------------
# DatasetShard.append_events
# ----------------------------------------------------------------------
class TestShardAppend:
    def test_append_bumps_epoch_and_reports(self):
        shard = DatasetShard("d", random_tps(n=20))
        try:
            report = shard.append_events(
                '{"point": [0.5, 0.5], "start": 0.0, "end": 4.0}\n'
                '{"point": [1.5, 0.5], "start": 1.0, "end": 5.0}\n'
            )
            assert report["epoch"] == 1
            assert report["n"] == 22
            assert report["accepted"] == 2 and report["rejected"] == 0
            assert report["fingerprint"] == shard.tps.fingerprint()
            assert shard.describe()["epoch"] == 1
            metrics = shard.metrics
            assert metrics.events_appended.labels(dataset="d").value == 2
            assert metrics.append_batches.labels(dataset="d").value == 1
        finally:
            shard.close()

    def test_malformed_lines_rejected_individually(self):
        shard = DatasetShard("d", random_tps(n=20))
        try:
            report = shard.append_events(
                "\n".join(
                    [
                        '{"point": [0.5, 0.5], "start": 0.0, "end": 4.0}',
                        "not json",
                        '{"point": [0.5], "start": 0.0, "end": 4.0}',
                        '{"point": [0.5, 0.5], "start": 5.0, "end": 4.0}',
                        '{"point": [0.5, 0.5], "start": 0.0}',
                        '{"point": [0.5, "x"], "start": 0.0, "end": 1.0}',
                        '{"point": [0.5, 0.5], "start": 0.0, "end": 1e999}',
                        "[1, 2, 3]",
                    ]
                )
            )
            assert report["accepted"] == 1
            assert report["rejected"] == 7
            assert len(report["errors"]) == 7
            assert any("line 2" in e for e in report["errors"])
            assert shard.tps.epoch == 1 and shard.tps.n == 21
        finally:
            shard.close()

    def test_all_rejected_batch_does_not_bump_epoch(self):
        shard = DatasetShard("d", random_tps(n=20))
        try:
            fp = shard.tps.fingerprint()
            report = shard.append_events("garbage\nmore garbage\n")
            assert report["accepted"] == 0 and report["rejected"] == 2
            assert report["epoch"] == 0
            assert shard.tps.fingerprint() == fp
        finally:
            shard.close()

    def test_error_report_is_capped(self):
        shard = DatasetShard("d", random_tps(n=20))
        try:
            report = shard.append_events("bad\n" * (MAX_EVENT_ERRORS + 5))
            assert report["rejected"] == MAX_EVENT_ERRORS + 5
            assert len(report["errors"]) == MAX_EVENT_ERRORS
        finally:
            shard.close()

    def test_parsed_sequence_and_bytes_bodies(self):
        shard = DatasetShard("d", random_tps(n=20))
        try:
            shard.append_events(
                [{"point": [0.5, 0.5], "start": 0.0, "end": 2.0}]
            )
            report = shard.append_events(
                b'{"point": [1.0, 1.0], "start": 0.0, "end": 2.0}'
            )
            assert report["epoch"] == 2 and report["n"] == 22
        finally:
            shard.close()

    def _warm(self, shard, specs):
        plans = plan_batch(specs, shard.tps)
        return execute_plans(plans, shard.cache, parallel=False)

    def test_small_append_maintains_triangles_invalidates_rest(self):
        # Only vector indexes are maintained: after an append every grid
        # entry, triangles included, is invalidated, and the next batch
        # builds each of them exactly once.
        shard = DatasetShard("d", random_tps(n=40))
        specs = [
            QuerySpec(kind="triangles", taus=2.0, backend="grid"),
            QuerySpec(kind="pairs-sum", taus=2.0, backend="grid"),
            QuerySpec(kind="pairs-union", taus=2.0, kappa=4, backend="grid"),
        ]
        try:
            self._warm(shard, specs)
            assert shard.cache.stats.builds == 3
            report = shard.append_events(
                '{"point": [0.5, 0.5], "start": 0.0, "end": 4.0}'
            )
            assert report["maintained_families"] == []
            assert report["invalidated_families"] == [
                "pairs-sum", "pairs-union", "triangles",
            ]
            before = shard.cache.stats.snapshot()
            results = self._warm(shard, specs)
            after = shard.cache.stats.since(before)
            assert not any(result.cache_hit for result in results)
            assert after.hits == 0 and after.builds == 3
        finally:
            shard.close()

    def test_small_append_maintains_all_four_vector_families(self):
        # The vector backend implements maintained() for every family —
        # a small append migrates all four entries instead of dropping
        # any, and the next use of each is a cache hit.
        shard = DatasetShard("d", random_tps(n=40))
        specs = [
            QuerySpec(kind="triangles", taus=2.0, backend="vector"),
            QuerySpec(kind="pairs-sum", taus=2.0, backend="vector"),
            QuerySpec(kind="pairs-union", taus=2.0, kappa=4, backend="vector"),
            QuerySpec(kind="cliques", taus=2.0, m=3, backend="vector"),
        ]
        try:
            self._warm(shard, specs)
            assert shard.cache.stats.builds == 4
            report = shard.append_events(
                '{"point": [0.5, 0.5], "start": 0.0, "end": 4.0}'
            )
            assert report["maintained_families"] == [
                "pairs-sum", "pairs-union", "patterns", "triangles",
            ]
            assert report["invalidated_families"] == []
            before = shard.cache.stats.snapshot()
            results = self._warm(shard, specs)
            after = shard.cache.stats.since(before)
            assert all(r.cache_hit for r in results)
            assert after.hits == 4 and after.builds == 0
        finally:
            shard.close()

    _VECTOR_SPECS = (
        QuerySpec(kind="triangles", taus=2.0, backend="vector"),
        QuerySpec(kind="pairs-sum", taus=2.0, backend="vector"),
        QuerySpec(kind="pairs-union", taus=2.0, kappa=4, backend="vector"),
        QuerySpec(kind="cliques", taus=2.0, m=3, backend="vector"),
    )

    def _vector_layout_ref(self, shard):
        """Warm the four vector families; a weak reference into the one
        layout they share."""
        plans = plan_batch(self._VECTOR_SPECS, shard.tps)
        execute_plans(plans, shard.cache, parallel=False)
        layouts = {id(shard.cache.peek(plan.key).layout) for plan in plans}
        assert len(layouts) == 1
        return weakref.ref(shard.cache.peek(plans[0].key).layout.order_end)

    def test_append_frees_the_replaced_versions_layout(self):
        shard = DatasetShard("d", random_tps(n=40))
        try:
            old = self._vector_layout_ref(shard)
            report = shard.append_events(
                '{"point": [0.5, 0.5], "start": 0.0, "end": 4.0}'
            )
            assert report["invalidated_families"] == []
            gc.collect()
            assert old() is None
        finally:
            shard.close()

    def test_delete_frees_the_layout(self):
        registry = DatasetRegistry()
        try:
            layout = self._vector_layout_ref(
                registry.register("d", random_tps(n=40))
            )
            registry.remove("d")
            gc.collect()
            assert layout() is None
        finally:
            registry.close()

    def test_a_large_batch_is_maintained_like_a_fresh_registration(self):
        # A batch three times the size of the set it joins.
        full = random_tps(n=40, seed=2)
        shard = DatasetShard("d", _prefix(full, 10))
        fresh = DatasetShard("fresh", full)
        spec = QuerySpec(kind="triangles", taus=2.0, backend="vector")
        try:
            self._warm(shard, [spec])
            report = shard.append_events(_ndjson(full, 10, 40))
            assert report["maintained_families"] == ["triangles"]
            assert report["invalidated_families"] == []
            assert self._warm(shard, [spec])[0].cache_hit
            assert _record_sets(shard) == _record_sets(fresh)
        finally:
            shard.close()
            fresh.close()

    def test_a_failing_maintenance_leaves_the_append_and_invalidates_the_entry(
        self, monkeypatch, caplog
    ):
        from repro.backends.vector import VectorTriangleIndex

        def broken(self, tps):
            raise RuntimeError("maintenance failed")

        monkeypatch.setattr(VectorTriangleIndex, "maintained", broken)
        full = random_tps(n=40, seed=4)
        shard = DatasetShard("d", _prefix(full, 30))
        fresh = DatasetShard("fresh", full)
        try:
            self._warm(shard, self._VECTOR_SPECS)
            report = shard.append_events(_ndjson(full, 30, 40))
            assert report["accepted"] == 10
            assert report["invalidated_families"] == ["triangles"]
            assert report["maintained_families"] == [
                "pairs-sum", "pairs-union", "patterns",
            ]
            # The failure is reported once, with its traceback.
            failures = [r for r in caplog.records if r.exc_info]
            assert len(failures) == 1
            assert str(failures[0].exc_info[1]) == "maintenance failed"
            before = shard.cache.stats.snapshot()
            spec = self._VECTOR_SPECS[:1]
            assert _served_lines(shard, spec) == _served_lines(fresh, spec)
            assert shard.cache.stats.since(before).builds == 1
        finally:
            shard.close()
            fresh.close()

    def test_concurrent_appends_are_serialised(self):
        shard = DatasetShard("d", random_tps(n=30))
        try:
            reports = []

            def append(i):
                reports.append(
                    shard.append_events(
                        json.dumps(
                            {
                                "point": [0.1 * i, 0.2],
                                "start": 0.0,
                                "end": 2.0,
                            }
                        )
                    )
                )

            threads = [
                threading.Thread(target=append, args=(i,)) for i in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            # Single-writer: every append got its own epoch, and each
            # report's identity is self-consistent (epoch matches the
            # fingerprint/n captured under the same lock).
            assert sorted(r["epoch"] for r in reports) == [1, 2, 3, 4, 5, 6]
            assert sorted(r["n"] for r in reports) == list(range(31, 37))
            assert shard.tps.epoch == 6 and shard.tps.n == 36
        finally:
            shard.close()


# ----------------------------------------------------------------------
# Acceptance: append-then-query ≡ fresh registration of the merged set
# ----------------------------------------------------------------------
ALL_FAMILY_SPECS = [
    QuerySpec(kind="triangles", taus=(1.0, 2.0, 3.0), backend="grid"),
    QuerySpec(kind="triangles", taus=(2.0,), backend="cover-tree"),
    QuerySpec(kind="pairs-sum", taus=(2.0, 4.0), backend="grid"),
    QuerySpec(kind="pairs-union", taus=(2.0,), kappa=64, backend="grid"),
    QuerySpec(kind="cliques", taus=(2.0,), m=3, backend="grid"),
    # The SoA vector backend rides the same IndexCache.advance path —
    # every family must survive chained appends with identical answers.
    QuerySpec(kind="triangles", taus=(1.0, 2.0, 3.0), backend="vector"),
    QuerySpec(kind="pairs-sum", taus=(2.0, 4.0), backend="vector"),
    QuerySpec(kind="pairs-union", taus=(2.0,), kappa=64, backend="vector"),
    QuerySpec(kind="cliques", taus=(2.0,), m=3, backend="vector"),
]


def _record_sets(shard) -> list:
    plans = plan_batch(ALL_FAMILY_SPECS, shard.tps)
    results = execute_plans(plans, shard.cache, parallel=False)
    out = []
    for result in results:
        for tau, records in result.records_by_tau.items():
            out.append((result.spec.kind, tau, _sorted_keys(records)))
    return out


def _pair_scores(shard) -> dict:
    plans = plan_batch(
        [QuerySpec(kind="pairs-sum", taus=(2.0,), backend="grid")], shard.tps
    )
    result = execute_plans(plans, shard.cache, parallel=False)[0]
    return {r.key: r.score for r in result.records_by_tau[2.0]}


class TestAppendQueryIdentity:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(16, 40),
        split_fraction=st.floats(0.3, 0.9),
        batches=st.integers(1, 3),
    )
    def test_all_four_families_identical_to_fresh_registration(
        self, seed, n, split_fraction, batches
    ):
        full = random_tps(n=n, seed=seed)
        k = max(4, int(n * split_fraction))
        appended = DatasetShard("appended", _prefix(full, k))
        fresh = DatasetShard("fresh", full)
        try:
            # Warm every family on the seed so appends exercise the
            # maintenance/invalidation path, not just cold rebuilds.
            _record_sets(appended)
            edges = np.linspace(k, n, batches + 1).astype(int)
            for lo, hi in zip(edges[:-1], edges[1:]):
                if lo == hi:
                    continue
                report = appended.append_events(_ndjson(full, lo, hi))
                assert report["rejected"] == 0, report["errors"]
            assert appended.tps.n == n
            np.testing.assert_array_equal(appended.tps.points, full.points)
            np.testing.assert_array_equal(appended.tps.starts, full.starts)
            np.testing.assert_array_equal(appended.tps.ends, full.ends)

            assert _record_sets(appended) == _record_sets(fresh)
            # SUM scores too, not just membership.
            assert _pair_scores(appended) == pytest.approx(
                _pair_scores(fresh)
            )
        finally:
            appended.close()
            fresh.close()

    def test_every_backend_serves_an_append_like_a_fresh_registration(self):
        # Served bytes, not only record sets: after a batch that opens
        # new grid cells, every backend answers in the order and the
        # encoding of a fresh registration of the merged set.  Vector
        # entries are maintained and carry their frontiers; the others
        # are rebuilt.
        grid_triangles = QuerySpec(kind="triangles", taus=(1.0, 2.0), backend="grid")
        specs = [
            grid_triangles,
            QuerySpec(kind="pairs-sum", taus=(2.0,), backend="grid", sum_backend="profile"),
            QuerySpec(kind="pairs-sum", taus=(2.0,), backend="grid", sum_backend="tree"),
            QuerySpec(kind="pairs-union", taus=(2.0,), kappa=4, backend="grid"),
            QuerySpec(kind="triangles", taus=(2.0,), backend="cover-tree"),
            *TestShardAppend._VECTOR_SPECS,
        ]
        full = random_tps(n=48, seed=3)
        appended = DatasetShard("appended", _prefix(full, 24))
        fresh = DatasetShard("fresh", full)

        def grid_cells():
            index = appended.cache.peek(plan_query(0, grid_triangles, appended.tps).key)
            return len(index.structure.groups)

        try:
            _served_lines(appended, specs)
            cells = grid_cells()
            appended.append_events(_ndjson(full, 24, 48))
            for spec in specs:
                assert _served_lines(appended, [spec]) == _served_lines(fresh, [spec]), spec
            moved = appended.cache.stats
            assert (moved.migrated, moved.invalidated) == (4, 5)
            assert grid_cells() > cells
        finally:
            appended.close()
            fresh.close()

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(24, 48))
    def test_vector_maintained_chain_matches_fresh(self, seed, n):
        # The vector backend's maintained() must stay identical to a
        # cold SoA build arbitrarily deep into an append chain, for all
        # four families (record sets AND SUM scores).
        from repro.backends.vector import (
            VectorPatternIndex,
            VectorSumPairIndex,
            VectorTriangleIndex,
            VectorUnionPairIndex,
        )

        full = random_tps(n=n, seed=seed)
        k = n // 2
        build = {
            "triangles": lambda tps: VectorTriangleIndex(tps, 0.5),
            "pairs-sum": lambda tps: VectorSumPairIndex(tps, 0.5),
            "pairs-union": lambda tps: VectorUnionPairIndex(tps, 0.5),
            "patterns": lambda tps: VectorPatternIndex(tps, 0.5),
        }
        answer = {
            "triangles": lambda ix: _sorted_keys(ix.query(2.0)),
            "pairs-sum": lambda ix: sorted(
                (r.key, r.score) for r in ix.query(2.0)
            ),
            "pairs-union": lambda ix: _sorted_keys(ix.query(2.0, 64)),
            "patterns": lambda ix: _sorted_keys(ix.iter_cliques(3, 2.0)),
        }
        hot = {fam: make(_prefix(full, k)) for fam, make in build.items()}
        current = hot["triangles"].tps
        for hi in sorted({(k + n) // 2, n}):
            if hi <= current.n:
                continue
            current = current.with_events(
                full.points[current.n: hi],
                full.starts[current.n: hi],
                full.ends[current.n: hi],
            )
            for fam, make in build.items():
                hot[fam] = hot[fam].maintained(current)
                assert hot[fam] is not None, fam
                assert answer[fam](hot[fam]) == answer[fam](
                    make(current)
                ), fam


# ----------------------------------------------------------------------
# Manifest event log
# ----------------------------------------------------------------------
class TestManifestEvents:
    PAYLOAD = {"name": "d", "dataset": {"workload": "uniform", "n": 16}}

    def test_record_events_appends_in_order(self):
        manifest = PlacementManifest()
        manifest.record("d", "worker-0", self.PAYLOAD)
        assert manifest.record_events("d", "batch-1\n") is not None
        entry = manifest.record_events("d", "batch-2\n")
        assert entry.events == ("batch-1\n", "batch-2\n")

    def test_record_events_unknown_dataset_returns_none(self):
        assert PlacementManifest().record_events("ghost", "batch") is None

    def test_re_registration_resets_the_log(self):
        manifest = PlacementManifest()
        manifest.record("d", "worker-0", self.PAYLOAD)
        manifest.record_events("d", "batch-1\n")
        manifest.record("d", "worker-0", self.PAYLOAD)
        assert manifest.get("d").events == ()

    def test_record_can_preserve_events_for_moves(self):
        manifest = PlacementManifest()
        manifest.record("d", "worker-0", self.PAYLOAD)
        manifest.record_events("d", "batch-1\n")
        entry = manifest.get("d")
        manifest.record("d", "worker-1", self.PAYLOAD, events=entry.events)
        moved = manifest.get("d")
        assert moved.worker == "worker-1"
        assert moved.events == ("batch-1\n",)

    def test_events_persist_and_reload(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        manifest = PlacementManifest(path)
        manifest.record("d", "worker-0", self.PAYLOAD)
        manifest.record_events("d", '{"point": [1, 2]}\n')
        reloaded = PlacementManifest(path)
        assert reloaded.get("d").events == ('{"point": [1, 2]}\n',)
        # Entries without an events key (pre-versioning manifests)
        # load as empty logs.
        doc = json.loads(open(path).read())
        del doc["datasets"][0]["events"]
        open(path, "w").write(json.dumps(doc))
        legacy = PlacementManifest(path)
        assert legacy.get("d").events == ()

    def test_malformed_events_rejected_at_load(self, tmp_path):
        path = str(tmp_path / "manifest.json")
        open(path, "w").write(
            json.dumps(
                {
                    "datasets": [
                        {
                            "name": "d",
                            "worker": "w",
                            "payload": {},
                            "events": [1, 2],
                        }
                    ]
                }
            )
        )
        with pytest.raises(ValidationError):
            PlacementManifest(path)


# ----------------------------------------------------------------------
# Serve HTTP endpoint
# ----------------------------------------------------------------------
from test_serve import request, request_json, start_server_thread  # noqa: E402


@pytest.fixture(scope="module")
def ingest_server():
    handle = start_server_thread(queue_limit=8)
    status, doc = request_json(
        handle, "POST", "/datasets",
        {"name": "live", "dataset": {"workload": "social", "n": 60, "seed": 5}},
    )
    assert status == 201, doc
    yield handle
    handle.stop()


def raw_request(handle, method, path, body=b""):
    import http.client

    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=30)
    try:
        conn.request(
            method, path, body=body,
            headers={"Content-Type": "application/x-ndjson"},
        )
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _round_trip_dataset_named_events(handle):
    """Register, append to and delete a dataset called ``events``.

    Returns the DELETE counts of ``http_requests_total``, keyed by
    ``(worker label, route, status)``.
    """
    status, body = raw_request(
        handle, "POST", "/datasets",
        json.dumps(
            {"name": "events", "dataset": {"workload": "uniform", "n": 20}}
        ).encode(),
    )
    assert status == 201, body
    status, body = raw_request(
        handle, "POST", "/datasets/events/events",
        b'{"point": [0.5, 0.5], "start": 0.0, "end": 9.0}',
    )
    assert status == 200, body
    assert json.loads(body)["appended"]["accepted"] == 1
    status, body = raw_request(handle, "POST", "/datasets/events")
    assert status == 405, body
    for path in (
        "/datasets/", "/datasets//events", "/datasets/events/x",
        "/datasets/events/events/x",
    ):
        status, body = raw_request(handle, "DELETE", path)
        assert (status, json.loads(body)["error"]) == (
            404, f"no route for {path!r}"
        )
    status, body = raw_request(handle, "DELETE", "/datasets/events")
    assert status == 200, body
    status, body = raw_request(handle, "GET", "/datasets")
    assert json.loads(body)["datasets"] == []
    status, body = raw_request(handle, "GET", "/metrics")
    return {
        (s.labels.get("worker"), s.labels["route"], s.labels["status"]): s.value
        for s in parse_exposition(body.decode())["http_requests_total"].samples
        if s.labels["method"] == "DELETE"
    }


class TestServeEventsEndpoint:
    def test_append_bumps_epoch_and_describes(self, ingest_server):
        status, body = raw_request(
            ingest_server, "POST", "/datasets/live/events",
            b'{"point": [0.5, 0.5], "start": 0.0, "end": 9.0}\nnot json\n',
        )
        assert status == 200
        report = json.loads(body)["appended"]
        assert report["epoch"] >= 1
        assert report["accepted"] == 1 and report["rejected"] == 1
        status, doc = request_json(ingest_server, "GET", "/datasets")
        live = next(d for d in doc["datasets"] if d["name"] == "live")
        assert live["epoch"] == report["epoch"]

    def test_epoch_gauge_exported(self, ingest_server):
        status, _headers, data = request(ingest_server, "GET", "/metrics")
        assert status == 200
        lines = [
            l for l in data.decode().splitlines()
            if l.startswith("serve_dataset_epoch{")
        ]
        assert any('dataset="live"' in l for l in lines)

    def test_wrong_method_is_405(self, ingest_server):
        assert raw_request(
            ingest_server, "GET", "/datasets/live/events"
        )[0] == 405
        assert raw_request(
            ingest_server, "DELETE", "/datasets/live/events"
        )[0] == 405
        check_route_table(ingest_server, "live")

    def test_unknown_dataset_is_404(self, ingest_server):
        status, body = raw_request(
            ingest_server, "POST", "/datasets/ghost/events",
            b'{"point": [0, 0], "start": 0, "end": 1}',
        )
        assert status == 404

    def test_empty_body_is_400(self, ingest_server):
        assert raw_request(
            ingest_server, "POST", "/datasets/live/events", b""
        )[0] == 400

    def test_delete_still_works_alongside_events_route(self, ingest_server):
        status, doc = request_json(
            ingest_server, "POST", "/datasets",
            {"name": "tmp", "dataset": {"workload": "uniform", "n": 16}},
        )
        assert status == 201
        status, _doc = request_json(ingest_server, "DELETE", "/datasets/tmp")
        assert status == 200

    def test_dataset_named_events_round_trips(self):
        handle = start_server_thread()
        try:
            assert _round_trip_dataset_named_events(handle) == {
                (None, "/datasets/{name}", "200"): 1.0,
                (None, "other", "404"): 4.0,
            }
        finally:
            handle.stop()


# ----------------------------------------------------------------------
# Router: forwarded appends + manifest replay after SIGKILL
# ----------------------------------------------------------------------
import os  # noqa: E402
import signal  # noqa: E402

from repro.datasets import workload_from_spec  # noqa: E402
from repro.obs import counter_value, parse_exposition  # noqa: E402
from repro.router import start_router_thread  # noqa: E402
from repro.router.supervisor import worker_request  # noqa: E402

from test_router import (  # noqa: E402
    request as router_request,
    request_json as router_request_json,
    wait_for_recovery,
)

INGEST_SPEC = {"workload": "social", "n": 90, "seed": 5}
EVENTS = [
    {"point": [0.21, 0.34], "start": 0.0, "end": 40.0},
    {"point": [0.23, 0.36], "start": 1.0, "end": 41.0},
    {"point": [0.25, 0.32], "start": 0.5, "end": 39.5},
]
EVENT_BODY = "\n".join(json.dumps(e) for e in EVENTS).encode()


def _router_triangle_keys(handle, dataset, tau=2.0):
    status, data = router_request(
        handle, "POST", "/query",
        {
            "dataset": dataset,
            "queries": [{"kind": "triangles", "tau": tau, "backend": "grid"}],
            "include_records": True,
        },
    )
    assert status == 200, data
    keys = set()
    for line in data.decode().strip().split("\n"):
        doc = json.loads(line)
        if doc["type"] == "records":
            keys.update(tuple(sorted(r["ids"])) for r in doc["records"])
        elif doc["type"] == "result":
            assert doc["ok"], doc
    return keys


def _raw_router(handle, method, path, body=b""):
    import http.client

    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=60)
    try:
        conn.request(
            method, path, body=body,
            headers={"Content-Type": "application/x-ndjson"},
        )
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class TestRouterIngestion:
    def test_append_forwarded_recorded_and_survives_sigkill(self, tmp_path):
        """The acceptance path: an appended batch is forwarded to the
        owning worker, logged in the manifest, and survives a SIGKILL
        of that worker — replay restores the merged point set, so the
        post-recovery answers are identical to the post-append ones."""
        manifest_path = str(tmp_path / "manifest.json")
        handle = start_router_thread(
            workers=2, probe_interval=0.2, manifest_path=manifest_path
        )
        try:
            status, doc = router_request_json(
                handle, "POST", "/datasets",
                {"name": "social", "dataset": INGEST_SPEC},
            )
            assert status == 201, doc

            status, body = _raw_router(
                handle, "POST", "/datasets/social/events", EVENT_BODY
            )
            assert status == 200, body
            doc = json.loads(body)
            report = doc["appended"]
            assert report["epoch"] == 1
            assert report["accepted"] == 3 and report["rejected"] == 0
            assert doc["worker"].startswith("worker-")

            # The re-query reflects the append, and matches a local
            # fresh build over the merged point set exactly.
            merged = workload_from_spec(INGEST_SPEC).with_events(
                [e["point"] for e in EVENTS],
                [e["start"] for e in EVENTS],
                [e["end"] for e in EVENTS],
            )
            expected = DatasetShard("expected", merged)
            try:
                plans = plan_batch(
                    [QuerySpec(kind="triangles", taus=2.0, backend="grid")],
                    merged,
                )
                result = execute_plans(plans, expected.cache, parallel=False)[0]
                want = {tuple(sorted(r.key)) for r in result.records}
            finally:
                expected.close()
            assert _router_triangle_keys(handle, "social") == want

            # The manifest durably logs the batch verbatim.
            saved = json.loads(open(manifest_path).read())
            entry = next(
                d for d in saved["datasets"] if d["name"] == "social"
            )
            assert entry["events"] == [EVENT_BODY.decode()]

            # SIGKILL the owning worker; the supervisor re-registers the
            # seed and replays the event log.
            status, doc = router_request_json(handle, "GET", "/stats")
            owner = doc["router"]["placement"]["datasets"]["social"]
            os.kill(doc["workers"][owner]["pid"], signal.SIGKILL)
            wait_for_recovery(handle, "social")

            assert _router_triangle_keys(handle, "social") == want
            status, doc = router_request_json(handle, "GET", "/datasets")
            social = next(
                d for d in doc["datasets"] if d["name"] == "social"
            )
            assert social["event_batches"] == 1

            # The recovered worker's shard carries the replayed epoch.
            status, doc = router_request_json(handle, "GET", "/stats")
            owner = doc["router"]["placement"]["datasets"]["social"]
            host, port = doc["workers"][owner]["address"].rsplit(":", 1)
            status, body = worker_request(host, int(port), "GET", "/datasets")
            (shard,) = json.loads(body)["datasets"]
            assert (shard["name"], shard["epoch"]) == ("social", 1)
            assert shard["n"] == merged.n

            status, data = router_request(handle, "GET", "/metrics")
            text = data.decode()
            families = parse_exposition(text)
            assert "router_forwarded_appends_total 1" in text
            assert counter_value(
                families, "router_replayed_event_batches_total"
            ) >= 1
            assert counter_value(
                families, "serve_dataset_epoch",
                {"dataset": "social", "worker": owner},
            ) == 1
        finally:
            handle.stop()

    def test_dataset_named_events_round_trips(self):
        handle = start_router_thread(workers=1, probe_interval=0.3)
        try:
            (slot,) = (status.slot for status in handle.app.pool.statuses())
            assert _round_trip_dataset_named_events(handle) == {
                (None, "/datasets/{name}", "200"): 1.0,
                (None, "other", "404"): 4.0,
                # The worker saw only the forwarded delete.
                (slot, "/datasets/{name}", "200"): 1.0,
            }
        finally:
            handle.stop()

    def test_append_error_paths_and_rejected_batches_not_logged(
        self, tmp_path
    ):
        manifest_path = str(tmp_path / "manifest.json")
        handle = start_router_thread(
            workers=1, probe_interval=0.3, manifest_path=manifest_path
        )
        try:
            status, _body = _raw_router(
                handle, "POST", "/datasets/ghost/events", b'{"point": []}'
            )
            assert status == 404
            status, _body = _raw_router(
                handle, "GET", "/datasets/ghost/events"
            )
            assert status == 405
            status, doc = router_request_json(
                handle, "POST", "/datasets",
                {"name": "d", "dataset": {"workload": "uniform", "n": 20}},
            )
            assert status == 201, doc
            status, _body = _raw_router(
                handle, "POST", "/datasets/d/events", b""
            )
            assert status == 400
            # A batch with zero accepted events must not be replayed
            # after a failure — it is not recorded.
            status, body = _raw_router(
                handle, "POST", "/datasets/d/events", b"junk\nmore junk"
            )
            assert status == 200
            assert json.loads(body)["appended"]["accepted"] == 0
            saved = json.loads(open(manifest_path).read())
            entry = next(d for d in saved["datasets"] if d["name"] == "d")
            assert entry.get("events", []) == []
        finally:
            handle.stop()

    def test_mixed_batch_cli_append_and_maintained_requery(self, tmp_path):
        """One worker behind the router: a mixed batch reports per-line
        verdicts, ``repro append`` works through the router too, the
        re-query is answered by the maintained index, and the fleet
        scrape exports the epoch and the append counters."""
        handle = start_router_thread(workers=1, probe_interval=0.3)
        try:
            status, doc = router_request_json(
                handle, "POST", "/datasets",
                {"name": "forum", "dataset": INGEST_SPEC},
            )
            assert status == 201, doc

            def triangle_result():
                status, data = router_request(
                    handle, "POST", "/query",
                    {
                        "dataset": "forum",
                        "queries": [{"kind": "triangles", "tau": 2.0}],
                        "include_records": False,
                    },
                )
                assert status == 200, data
                lines = [json.loads(l) for l in data.decode().split("\n") if l]
                result = next(l for l in lines if l["type"] == "result")
                assert result["ok"], result
                return result

            pre = triangle_result()
            mixed = b"\n".join(
                [json.dumps(e).encode() for e in EVENTS[:2]] + [b"not an event"]
            )
            status, body = _raw_router(
                handle, "POST", "/datasets/forum/events", mixed
            )
            assert status == 200, body
            report = json.loads(body)["appended"]
            assert (report["epoch"], report["accepted"], report["rejected"]) == (
                1, 2, 1,
            )
            path = tmp_path / "one.ndjson"
            path.write_text(json.dumps(EVENTS[2]) + "\n")
            out = io.StringIO()
            rc = cli_main(
                [
                    "append", "forum", str(path),
                    "--host", handle.host, "--port", str(handle.port),
                ],
                out=out,
            )
            assert rc == 0 and "accepted 1" in out.getvalue()

            # Three co-located long-lived points: strictly more triangles,
            # answered by the maintained index rather than a rebuild.
            post = triangle_result()
            assert post["counts"]["2.0"] > pre["counts"]["2.0"]
            assert post["cache_hit"] is True

            status, data = router_request(handle, "GET", "/metrics")
            families = parse_exposition(data.decode())
            slot = {"dataset": "forum", "worker": "worker-0"}
            assert counter_value(families, "serve_dataset_epoch", slot) == 2.0
            assert counter_value(
                families, "serve_events_appended_total", slot
            ) == 3.0
            assert counter_value(
                families, "router_forwarded_appends_total"
            ) == 2.0
        finally:
            handle.stop()


# ----------------------------------------------------------------------
# CLI: repro append
# ----------------------------------------------------------------------
class TestAppendCli:
    def test_append_from_file(self, ingest_server, tmp_path):
        path = tmp_path / "events.ndjson"
        path.write_text(
            '{"point": [0.5, 0.5], "start": 0.0, "end": 9.0}\n'
            '{"point": [0.25, 0.75], "start": 1.0, "end": 4.0}\n'
        )
        out = io.StringIO()
        rc = cli_main(
            [
                "append", "live", str(path),
                "--host", ingest_server.host,
                "--port", str(ingest_server.port),
            ],
            out=out,
        )
        assert rc == 0
        text = out.getvalue()
        assert "accepted 2" in text and "epoch" in text

    def test_append_unknown_dataset_fails(self, ingest_server, tmp_path):
        path = tmp_path / "events.ndjson"
        path.write_text('{"point": [0.5, 0.5], "start": 0.0, "end": 9.0}\n')
        out = io.StringIO()
        rc = cli_main(
            [
                "append", "ghost", str(path),
                "--host", ingest_server.host,
                "--port", str(ingest_server.port),
            ],
            out=out,
        )
        assert rc == 1

    def test_append_no_server_is_a_clean_error(self, tmp_path):
        path = tmp_path / "events.ndjson"
        path.write_text('{"point": [0.5, 0.5], "start": 0.0, "end": 9.0}\n')
        out = io.StringIO()
        rc = cli_main(
            ["append", "x", str(path), "--port", "1"], out=out
        )
        assert rc == 2  # ValidationError exit path
