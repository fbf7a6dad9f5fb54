"""τ frontiers: a τ′ ≥ τ₀ answered by narrowing the block computed at τ₀.

* Every served vector family's ``narrow`` of its τ₀ block equals its
  direct τ′ answer, as record lists and as ``records_line`` bytes
  (property test).  Lifespans lie on a 0.1 lattice, where ``S_p + τ``
  rounds; the sets have ties in starts and ends, duplicate points and
  pairs in the (1, 1+ε] band, in dims 1–4 under l1/l2/linf/l3.  A
  multi-τ spec answers the same through the engine whether its τs come
  ascending, descending or shuffled.
* The narrowing tests are the kernels' own float expressions: a
  triangle and a clique whose durability rounds below τ are still
  reported.  Narrowing writes nothing to the index or the kept block's
  columns.
* Lifetime: a frontier lives in its cache entry and is freed with it (an
  append, LRU eviction, a dataset's removal); an entry keeps one,
  however many κ or m are asked of it; an over-cap block is answered but
  not kept; racing first queries keep the lower τ.
* The narrow over the τ-test operands a block keeps equals the kernels'
  tests on values gathered from the layout, row by row (the oracle kept
  here), as rows and as ``records_line`` bytes (property test), also
  where ``E − S`` overflows to ∞, and on the maintained index for a
  block a carry keeps, whose operands came from the old layout.
* A frontier kept by a counts-only query encodes, for a later records
  query narrowed from it, only the rows that query reports.  Threads
  encoding overlapping answers of one kept block at once each get the
  direct bytes, and a narrowed view counts and encodes without
  selecting a column.
* Carried across appends: after each batch of an append chain sent
  through ``DatasetShard.append_events``, every maintained entry's
  frontier equals the direct block of a fresh build of the merged set,
  as columns and as ``records_line`` bytes, with the texts encoded
  before the append kept (property test), and so does every τ′ ≥ τ₀
  served from it, however large the batch.  An over-cap carried block
  and a failing ``carry`` leave the entry without a frontier; carried
  frontiers are counted in ``/metrics``.
* Each family's ``carry``, called along a chain of events on the edges
  of its rerun tests (a start tied with an old start or at an old end,
  duplicates, lifespans outliving τ₀, starts before every old one),
  equals a fresh build's block as columns, dtypes and bytes; one whose
  append qualifies no anchor returns its block without a kernel run,
  and one that splices packs the kept rows' texts into one chunk.
"""

import dataclasses
import gc
import random
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import QueryEngine, QuerySpec, TemporalPointSet
from repro.blocks import PairBlock, RecordBlock
from repro.backends.vector import (
    VectorPatternIndex,
    VectorSumPairIndex,
    VectorTriangleIndex,
    VectorUnionPairIndex,
)
from repro.backends.vector.indexes import _anchor_ok, _clique_anchors, _partner_ok
from repro.core.aggregate import UnionPairIndex
from repro.engine import IndexCache, execute_plans, plan_batch, plan_query
from repro.engine import frontier
from repro.obs import counter_value, parse_exposition
from repro.serve.registry import DatasetRegistry, DatasetShard
from repro.serve.server import records_line

from conftest import random_tps
from test_wire import _wide_tps


@st.composite
def lattice_tps(draw):
    """Points around a few bases: on one (a duplicate), beside one, or
    one to two units from one along an axis, so that pairs fall in the
    (1, 1+ε] band; lifespans on a 0.1 lattice with many ties."""
    dim = draw(st.integers(1, 4))
    metric = draw(st.sampled_from(["l1", "l2", "linf", "l3"]))
    coord = st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False)
    bases = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=4))
    offset = st.one_of(
        st.just(0.0),
        st.floats(0.0, 0.1),
        st.floats(1.0, 2.0, exclude_min=True),
    )
    picks = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(bases) - 1),
                st.integers(0, dim - 1),
                offset,
                st.integers(0, 20),
                st.integers(0, 40),
            ),
            min_size=6,
            max_size=36,
        )
    )
    points, starts, ends = [], [], []
    for base, axis, shift, start, length in picks:
        point = list(bases[base])
        point[axis] += shift
        points.append(point)
        starts.append(start / 10)
        ends.append((start + length) / 10)
    return TemporalPointSet(np.asarray(points), starts, ends, metric=metric)


#: Ascending τs on the same lattice.
lattice_taus = st.lists(
    st.integers(1, 30), min_size=2, max_size=4, unique=True
).map(lambda ts: sorted(t / 10 for t in ts))


def _families(tps, epsilon):
    """``(spec fields, index, direct block at τ)`` per served family."""
    union = VectorUnionPairIndex(tps, epsilon)
    cliques = VectorPatternIndex(tps, epsilon)
    yield {"kind": "triangles"}, VectorTriangleIndex(tps, epsilon), (
        lambda ix, tau: ix.query_block(tau)
    )
    yield {"kind": "pairs-sum"}, VectorSumPairIndex(tps, epsilon), (
        lambda ix, tau: ix.query_block(tau)
    )
    for kappa in (1, 3):
        yield {"kind": "pairs-union", "kappa": kappa}, union, (
            lambda ix, tau, kappa=kappa: ix.query_block(tau, kappa)
        )
    for m in (2, 3, 4):
        yield {"kind": "cliques", "m": m}, cliques, (
            lambda ix, tau, m=m: ix.clique_block(m, tau)
        )


class TestNarrowEqualsDirect:
    @settings(max_examples=50, deadline=None)
    @given(
        tps=lattice_tps(),
        taus=lattice_taus,
        epsilon=st.sampled_from([0.5, 1.0]),
        data=st.data(),
    )
    def test_every_family_narrows_to_its_direct_answer(self, tps, taus, epsilon, data):
        shuffled = data.draw(st.permutations(taus))
        for fields, index, direct in _families(tps, epsilon):
            want = {tau: direct(index, tau) for tau in taus}
            lines = {tau: records_line(0, tau, block) for tau, block in want.items()}
            for i, tau0 in enumerate(taus):
                base = direct(index, tau0)
                for tau in taus[i:]:
                    got = index.narrow(base, tau)
                    assert type(got) is type(want[tau]), fields
                    assert got.records() == want[tau].records(), (fields, tau0, tau)
                    # Joined from the base's record texts, encoded once.
                    assert records_line(0, tau, got) == lines[tau], (fields, tau0, tau)
            for order in (taus, taus[::-1], shuffled):
                result = QueryEngine().run(
                    tps, QuerySpec(taus=order, epsilon=epsilon, backend="vector", **fields)
                )
                assert list(result.records_by_tau) == list(order)
                for tau, block in result.records_by_tau.items():
                    assert records_line(0, tau, block) == lines[tau], (fields, order)

    def test_narrow_writes_nothing(self):
        # Concurrent queries narrow one kept block on one shared index.
        tps = random_tps(n=150, seed=5)
        for fields, index, direct in _families(tps, 0.5):
            base = direct(index, 2.0)
            attrs = {name: id(value) for name, value in vars(index).items()}
            columns = [column.copy() for column in base._columns()]
            narrowed = [index.narrow(base, 2.0 + 0.1 * i) for i in range(10)]
            assert any(len(block) for block in narrowed), fields
            assert {name: id(value) for name, value in vars(index).items()} == attrs
            for kept, before in zip(base._columns(), columns):
                assert np.array_equal(kept, before), fields

    def test_narrowing_keeps_the_kernels_rounding(self):
        # Anchor 2 (S = 0.2, latest by (start, id); point 1 ties its
        # start) and partners ending at 0.7: at τ = 0.5 both pass
        # ``E_q ≥ S_p + τ`` (0.2 + 0.5 == 0.7), yet the durability
        # 0.7 − 0.2 rounds to 0.49999999999999994, so neither a
        # durability filter nor point 1 taken as the anchor keeps it.
        points = np.array([[0.0, 0.0], [0.01, 0.0], [0.0, 0.01]])
        tps = TemporalPointSet(points, [0.0, 0.2, 0.2], [0.7, 0.7, 5.0])
        triangles = VectorTriangleIndex(tps, 0.5)
        cliques = VectorPatternIndex(tps, 0.5)
        for index, direct in (
            (triangles, triangles.query_block),
            (cliques, lambda tau: cliques.clique_block(3, tau)),
        ):
            want = direct(0.5)
            assert len(want) == 1 and want.records()[0].durability < 0.5
            narrowed = index.narrow(direct(0.1), 0.5)
            assert narrowed.records() == want.records()
            assert records_line(0, 0.5, narrowed) == records_line(0, 0.5, want)


# ----------------------------------------------------------------------
# The operand narrow: the kernels' τ tests over operands a block keeps
# ----------------------------------------------------------------------
def _gathered(index, block, tau):
    """The rows of ``block`` that ``index`` keeps at ``tau``, by the
    kernels' τ tests on values gathered from the layout, row by row:
    the oracle of the narrow over cached operands."""
    lay = index.layout
    if isinstance(index, VectorTriangleIndex):
        p, q, s = block.ids.T
        ok = _anchor_ok(lay, p, tau) & _partner_ok(lay, p, q, tau) & _partner_ok(lay, p, s, tau)
        return np.flatnonzero(ok)
    if isinstance(index, VectorPatternIndex):
        members = block.ids
        p, col = _clique_anchors(lay, members)
        ok = _partner_ok(lay, p[:, None], members, tau)
        ok[np.arange(len(members)), col] = _anchor_ok(lay, p, tau)
        return np.flatnonzero(ok.all(axis=1))
    p, q = block.p, block.q
    factor = UnionPairIndex.GREEDY_FACTOR if isinstance(index, VectorUnionPairIndex) else 1.0
    ok = _anchor_ok(lay, p, tau) & _partner_ok(lay, p, q, tau) & (block.score >= factor * tau)
    cell = lay.cell_of[q].tolist()
    rows, run, broken = [], None, False
    for i, (anchor, passed) in enumerate(zip(p.tolist(), ok.tolist())):
        # Each run of equal (p, cell of q) keeps its rows before its
        # first failing one.
        if (anchor, cell[i]) != run:
            run, broken = (anchor, cell[i]), False
        broken |= not passed
        if not broken:
            rows.append(i)
    return np.asarray(rows, dtype=np.int64)


def _check_operand_narrow(index, block, taus):
    for tau in taus:
        rows = _gathered(index, block, tau)
        want = type(block)(*(column[rows] for column in block._columns()))
        got = index.narrow(block, tau)
        for mine, theirs in zip(got._columns(), want._columns()):
            assert np.array_equal(mine, theirs), (type(index).__name__, tau)
        assert records_line(0, tau, got) == records_line(0, tau, want), tau


class TestOperandNarrow:
    @settings(max_examples=50, deadline=None)
    @given(tps=lattice_tps(), taus=lattice_taus, epsilon=st.sampled_from([0.5, 1.0]))
    def test_the_operand_narrow_equals_the_gathered_tests(self, tps, taus, epsilon):
        for fields, index, direct in _families(tps, epsilon):
            _check_operand_narrow(index, direct(index, taus[0]), taus)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_spans_that_overflow_to_infinity(self):
        # E − S = 1e308 − (−1e308) overflows: the span operand is ∞.
        for fields, index, direct in _families(_wide_tps(), 0.5):
            block = direct(index, 1.0)
            assert len(block), fields
            _check_operand_narrow(index, block, [1.0, 2.0, 5.0, 1e308])

    def test_a_block_a_carry_keeps_narrows_on_the_maintained_index(self):
        # Short points that start after every old end, beside old points
        # and in a new cell below every old key (so every old cell is
        # renumbered): no family reruns an anchor, and the block keeps
        # the operands its first narrow computed on the old layout.
        tps = random_tps(n=150, seed=5)
        tau, higher = 2.0, 3.0
        latest = float(tps.ends.max())
        points = np.vstack((tps.points[:3] + 0.01, tps.points.min(axis=0) - 10.0))
        merged = tps.with_events(points, [latest + 1.0] * 4, [latest + 1.5] * 4)
        for fields, index, direct in _families(tps, 0.5):
            params = (fields.get("kappa"), fields.get("m"))
            block = direct(index, tau)
            index.narrow(block, higher)
            kept = block._operands
            assert kept is not None, fields
            successor = index.maintained(merged)
            assert len(successor.candidates.touched) > 4, fields
            assert successor.carry(block, tau, params, index) is block, fields
            got = successor.narrow(block, higher)
            assert block._operands is kept, fields
            want = direct(type(index)(_fresh(merged), 0.5), higher)
            assert got.records() == want.records(), fields
            assert records_line(0, higher, got) == records_line(0, higher, want), fields


def test_racing_encoders_of_one_kept_block_each_get_the_direct_bytes():
    # Threads that narrow one kept block to overlapping answers and
    # encode them at once: each line is the direct answer's.
    tps = random_tps(n=150, seed=5)
    taus = [2.0, 2.2, 2.4, 2.6, 2.8, 3.0, 3.5, 4.0]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for fields, index, direct in _families(tps, 0.5):
            want = {tau: records_line(0, tau, direct(index, tau)) for tau in taus}
            for trial in range(3):
                block = direct(index, taus[0])
                order = random.Random(trial).sample(taus, len(taus))
                start = threading.Barrier(len(order))
                got = {}

                def run(tau):
                    start.wait(timeout=30)
                    got[tau] = records_line(0, tau, index.narrow(block, tau))

                threads = [threading.Thread(target=run, args=(tau,)) for tau in order]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive(), (fields, trial)
                assert got == want, (fields, trial)
                assert block._texts.encoded.all(), (fields, trial)
    finally:
        sys.setswitchinterval(switch)


def test_a_narrowed_view_counts_and_encodes_without_selecting_a_column(monkeypatch):
    tps = random_tps(n=150, seed=5)
    for fields, index, direct in _families(tps, 0.5):
        block = direct(index, 2.0)
        records_line(0, 2.0, block.take())  # every row's text kept
        view = index.narrow(block, 3.0)
        want = records_line(0, 3.0, direct(index, 3.0))
        with monkeypatch.context() as patch:
            patch.setattr(
                RecordBlock, "_columns", lambda self: pytest.fail("a column was read")
            )
            assert 0 < len(view) < len(block), fields
            assert records_line(0, 3.0, view) == want, fields
        assert view._cols is None, fields


# ----------------------------------------------------------------------
# Lifetime: kept in the cache entry, freed with it, bounded
# ----------------------------------------------------------------------
VECTOR_SPECS = (
    QuerySpec(kind="triangles", taus=2.0, backend="vector"),
    QuerySpec(kind="pairs-sum", taus=2.0, backend="vector"),
    QuerySpec(kind="pairs-union", taus=2.0, kappa=3, backend="vector"),
    QuerySpec(kind="cliques", taus=2.0, m=3, backend="vector"),
)


def _params(spec):
    return spec.kappa, spec.m


def _frontier(cache, plan):
    return cache.frontier(plan.key, cache.peek(plan.key))


def _warm_frontiers(cache, tps, specs=VECTOR_SPECS):
    """Run ``specs`` once; weak references to the frontiers kept."""
    plans = plan_batch(specs, tps)
    results = execute_plans(plans, cache, parallel=False)
    assert all(len(result.records_by_tau[2.0]) for result in results)
    kept = [_frontier(cache, plan) for plan in plans]
    assert all(f.get(_params(spec))[0] == 2.0 for f, spec in zip(kept, specs))
    return [weakref.ref(f) for f in kept]


class TestFrontierLifetime:
    def test_append_frees_the_old_entries_frontiers(self):
        shard = DatasetShard("d", random_tps(n=60, seed=2))
        try:
            old = _warm_frontiers(shard.cache, shard.tps)
            report = shard.append_events(
                '{"point": [0.5, 0.5], "start": 0.0, "end": 4.0}'
            )
            assert report["invalidated_families"] == []
            gc.collect()
            assert [ref() for ref in old] == [None] * len(old)
            # Each maintained entry carries one at the old τ₀ and params,
            # byte-equal to the direct block, and the merged set answers
            # as a fresh index does.
            for plan in plan_batch(VECTOR_SPECS, shard.tps):
                index = shard.cache.peek(plan.key)
                tau, carried = shard.cache.frontier(plan.key, index).get(_params(plan.spec))
                assert tau == 2.0
                fresh = plan.runner(plan.builder(), 2.0)
                assert records_line(0, 2.0, carried.take()) == records_line(0, 2.0, fresh)
                (result,) = execute_plans([plan], shard.cache)
                assert records_line(0, 2.0, result.records_by_tau[2.0]) == records_line(
                    0, 2.0, fresh
                )
        finally:
            shard.close()

    def test_eviction_and_removal_free_the_frontiers(self):
        cache = IndexCache(max_entries=1)
        tps = random_tps(n=60, seed=2)
        (evicted,) = _warm_frontiers(cache, tps, VECTOR_SPECS[:1])
        (kept,) = _warm_frontiers(cache, tps, VECTOR_SPECS[1:2])
        gc.collect()
        assert evicted() is None and kept() is not None

        registry = DatasetRegistry()
        try:
            shard = registry.register("d", random_tps(n=60, seed=2))
            refs = _warm_frontiers(shard.cache, shard.tps)
            del shard
            registry.remove("d")
            gc.collect()
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            registry.close()

    def test_an_over_cap_block_is_answered_but_not_kept(self, monkeypatch):
        monkeypatch.setattr(frontier, "FRONTIER_CAP", 5)
        tps = random_tps(n=60, seed=2)
        spec = VECTOR_SPECS[0]
        plan = plan_query(0, spec, tps)
        index = plan.builder()
        cache = IndexCache()
        big, small = 2.0, 6.0
        assert len(plan.runner(index, big)) > 5 >= len(plan.runner(index, small)) > 0
        for tau in (big, big + 0.5):
            (result,) = execute_plans([plan_query(0, QuerySpec(
                kind="triangles", taus=tau, backend="vector"), tps)], cache)
            assert records_line(0, tau, result.records_by_tau[tau]) == records_line(
                0, tau, plan.runner(index, tau)
            )
            kept = _frontier(cache, plan)
            assert kept.get(_params(spec)) is None
        execute_plans([plan_query(0, QuerySpec(
            kind="triangles", taus=small, backend="vector"), tps)], cache)
        assert kept.get(_params(spec))[0] == small

    def test_racing_first_queries_keep_the_lower_tau(self):
        # More threads than cores, each a first query at its own τ, on
        # one built index: whatever the interleaving, the lowest stays.
        tps = random_tps(n=150, seed=5)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(8):
                taus = random.Random(trial).sample([1.5, 2.0, 2.5, 3.0, 3.5, 4.0], 4)
                engine = QueryEngine()
                spec = VECTOR_SPECS[trial % len(VECTOR_SPECS)]
                index = engine.get_index(tps, spec)  # race on the frontier only
                start = threading.Barrier(len(taus))
                answers = {}

                def run(tau):
                    start.wait(timeout=30)
                    result = engine.run(tps, spec, taus=(tau,))
                    answers[tau] = records_line(0, tau, result.records_by_tau[tau])

                threads = [threading.Thread(target=run, args=(tau,)) for tau in taus]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive(), trial
                plan = plan_query(0, spec, tps)
                kept = engine.cache.frontier(plan.key, index)
                assert kept.get(_params(spec))[0] == min(taus), trial
                for tau in taus:
                    assert answers[tau] == records_line(
                        0, tau, plan.runner(index, tau)
                    ), (trial, tau)
        finally:
            sys.setswitchinterval(switch)

    def test_an_entry_keeps_one_frontier_however_many_kappas(self):
        # UNION keys its index without κ, so every κ shares one entry.
        # Each κ's low-τ answer replaces the last: one block stays, and
        # an earlier κ asked again runs its kernel.
        tps = random_tps(n=150, seed=5)
        engine = QueryEngine()
        kappas = range(1, 13)

        def union(kappa, tau=1.0):
            spec = QuerySpec(kind="pairs-union", taus=tau, kappa=kappa, backend="vector")
            result = engine.run(tps, spec)
            return spec, result.records_by_tau[tau]

        def live_pair_blocks():
            gc.collect()
            return sum(isinstance(obj, PairBlock) for obj in gc.get_objects())

        before = live_pair_blocks()
        for kappa in kappas:
            spec, block = union(kappa)
            assert len(block), kappa
            del block
        assert live_pair_blocks() - before <= 1
        plan = plan_query(0, spec, tps)
        kept = _frontier(engine.cache, plan)
        assert kept.get(_params(spec))[0] == 1.0
        first, _ = union(kappas[0], 1.5)
        assert kept.get(_params(spec)) is None
        assert kept.get(_params(first))[0] == 1.5


def test_counts_only_frontier_encodes_only_the_rows_asked_for():
    # A counts-only query keeps a frontier whose records are never
    # encoded; a records query narrowed from it encodes its own rows.
    tps = random_tps(n=150, seed=5)
    engine = QueryEngine()
    for spec in VECTOR_SPECS:
        low, high = 1.0, 4.0
        assert len(engine.run(tps, spec, taus=(low,)).records_by_tau[low])
        plan = plan_query(0, spec, tps)
        index = engine.cache.peek(plan.key)
        _, kept = _frontier(engine.cache, plan).get(_params(spec))
        assert kept._texts is None
        answer = engine.run(tps, spec, taus=(high,)).records_by_tau[high]
        assert 0 < len(answer) < len(kept), spec.kind
        assert records_line(0, high, answer) == records_line(
            0, high, plan.runner(index, high)
        )
        encoded = kept._texts.encoded
        assert int(encoded.sum()) == len(answer), spec.kind
        # A lower τ encodes only the rows it adds.
        mid = 3.0
        wider = engine.run(tps, spec, taus=(mid,)).records_by_tau[mid]
        assert records_line(0, mid, wider) == records_line(0, mid, plan.runner(index, mid))
        assert int(encoded.sum()) == len(wider) < len(kept), spec.kind


class TestFrontierSlot:
    def test_lower_keeps_the_lowest_tau_of_the_latest_params(self):
        slot = frontier.Frontier()
        index = VectorTriangleIndex(random_tps(n=40), 0.5)
        blocks = {tau: index.query_block(tau) for tau in (1.0, 2.0, 3.0)}
        for tau in (2.0, 3.0, 1.0, 2.0):
            slot.lower("a", tau, blocks[tau])
        assert slot.get("a") == (1.0, blocks[1.0])
        assert slot.get("b") is None
        # Other params replace the slot whatever their τ.
        slot.lower("b", 3.0, blocks[3.0])
        assert slot.get("a") is None and slot.get("b") == (3.0, blocks[3.0])


@pytest.mark.parametrize("taus", [(3.0, 1.0, 2.0), (1.0, 1.0, 2.0)])
def test_sweep_answers_in_spec_order_and_counts_narrowed_taus(taus):
    tps = random_tps(n=80, seed=1)
    spec = QuerySpec(kind="triangles", taus=taus, backend="vector")
    plan = plan_query(0, spec, tps)
    index = plan.builder()
    slot = frontier.Frontier()
    answers, narrowed = frontier.sweep(plan, index, slot)
    assert list(answers) == list(dict.fromkeys(taus))
    assert narrowed == len(set(taus)) - 1
    assert slot.get(_params(spec))[0] == min(taus)
    again, narrowed = frontier.sweep(plan, index, slot)
    assert narrowed == len(set(taus))
    for tau in taus:
        want = records_line(0, tau, plan.runner(index, tau))
        assert records_line(0, tau, answers[tau]) == want
        assert records_line(0, tau, again[tau]) == want
    # Without a frontier, or for a plan that does not narrow, every τ
    # runs the kernel.
    assert frontier.sweep(plan, index, None)[1] == 0
    for other in (
        QuerySpec(kind="triangles", taus=taus, backend="grid"),
        QuerySpec(kind="paths", taus=taus, m=3, backend="vector"),
        QuerySpec(kind="stars", taus=taus, m=3, backend="vector"),
    ):
        other_plan = plan_query(0, other, tps)
        assert other_plan.narrow is None
        slot = frontier.Frontier()
        assert frontier.sweep(other_plan, other_plan.builder(), slot)[1] == 0
        assert slot.get(_params(other)) is None


# ----------------------------------------------------------------------
# Carried across appends: exact, and only where it fits
# ----------------------------------------------------------------------
@st.composite
def append_chains(draw, tps):
    """1–3 event batches for ``tps``, each of 1–20 events and at most
    half the set: duplicates of a point (earlier appends' too),
    points beside one, one to two units from one along an axis, or
    anywhere in a wider box (new cells); lifespans on the 0.1 lattice,
    long enough that appended points anchor and partner."""
    points = tps.points.tolist()
    chain = []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, min(20, int(0.5 * len(points)))))
        batch = []
        for _ in range(size):
            point = list(points[draw(st.integers(0, len(points) - 1))])
            axis = draw(st.integers(0, tps.dim - 1))
            kind = draw(st.sampled_from(["duplicate", "beside", "band", "new cell"]))
            if kind == "beside":
                point[axis] += draw(st.floats(0.0, 0.1))
            elif kind == "band":
                point[axis] += draw(st.sampled_from([-1, 1])) * draw(
                    st.floats(1.0, 2.0, exclude_min=True)
                )
            elif kind == "new cell":
                point = [draw(st.floats(-4.0, 6.0)) for _ in range(tps.dim)]
            start = draw(st.integers(0, 20))
            length = draw(st.integers(5, 40))
            batch.append({"point": point, "start": start / 10, "end": (start + length) / 10})
            points.append(point)
        chain.append(batch)
    return chain


@st.composite
def edge_chains(draw, tps):
    """1–3 event batches for ``tps`` whose events sit on the edges of
    the carry's tests against an old point ``p``: a start tied with
    ``S_p``, a start at ``E_p`` or one step before it, an end at ``S_p``
    or one step after it, a duplicate of ``p`` (point and lifespan), a
    lifespan that outlives every τ drawn, or a start before every old
    point's; each but the duplicate at ``p``'s point, beside it, or one
    to two units away along an axis.  Lifespans on the 0.1 lattice."""
    chain = []
    for _ in range(draw(st.integers(1, 3))):
        batch = []
        for _ in range(draw(st.integers(1, 12))):
            p = draw(st.integers(0, tps.n - 1))
            point = tps.points[p].tolist()
            axis = draw(st.integers(0, tps.dim - 1))
            where = draw(st.sampled_from(["on", "beside", "band"]))
            if where == "beside":
                point[axis] += draw(st.floats(0.0, 0.1))
            elif where == "band":
                point[axis] += draw(st.sampled_from([-1, 1])) * draw(
                    st.floats(1.0, 2.0, exclude_min=True)
                )
            start, end = round(tps.starts[p] * 10), round(tps.ends[p] * 10)
            length = draw(st.integers(0, 40))
            kind = draw(st.sampled_from(
                ["tie start", "at end", "end at start", "duplicate", "outlive", "early"]
            ))
            step = draw(st.integers(0, 1))
            if kind == "tie start":
                end = start + length
            elif kind == "at end":
                start = end - step
                end = start + length
            elif kind == "end at start":
                end = start + step
                start = end - length
            elif kind == "outlive":
                start = draw(st.integers(0, 20))
                end = start + draw(st.integers(31, 40))
            elif kind == "early":
                start = round(tps.starts.min() * 10) - draw(st.integers(1, 10))
                end = start + length
            else:  # a duplicate
                point = tps.points[p].tolist()
            batch.append({"point": point, "start": start / 10, "end": end / 10})
        chain.append(batch)
    return chain


def _fresh(tps):
    """The same points as a new dataset object, so nothing memoised on
    ``tps`` (layout, candidate map) is reused."""
    return TemporalPointSet(tps.points, tps.starts, tps.ends, metric=tps.metric)


def _serve(shard, spec, tau):
    """``spec`` at ``tau`` through ``shard``'s cache, as a shard serves it."""
    spec = dataclasses.replace(spec, taus=(tau,))
    (result,) = execute_plans([plan_query(0, spec, shard.tps)], shard.cache)
    assert result.ok, result.error
    return result.records_by_tau[tau]


def _carried(shard, spec):
    """``(τ₀, block)`` of the frontier in ``spec``'s entry on ``shard``."""
    plan = plan_query(0, spec, shard.tps)
    slot = shard.cache.frontier(plan.key, shard.cache.peek(plan.key))
    return slot.get(_params(spec))


def _assert_same_columns(got, want, label):
    assert type(got) is type(want), label
    for mine, theirs in zip(got._columns(), want._columns()):
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs), label


class TestCarryEqualsDirect:
    @settings(max_examples=40, deadline=None)
    @given(
        tps=lattice_tps(),
        taus=lattice_taus,
        epsilon=st.sampled_from([0.5, 1.0]),
        kappa=st.sampled_from([1, 3]),
        m=st.sampled_from([2, 3, 4]),
        data=st.data(),
    )
    def test_carried_frontiers_equal_a_fresh_build(self, tps, taus, epsilon, kappa, m, data):
        chain = data.draw(append_chains(tps))
        specs = [
            QuerySpec(kind=kind, taus=1.0, epsilon=epsilon, backend="vector", **extra)
            for kind, extra in (
                ("triangles", {}),
                ("pairs-sum", {}),
                ("pairs-union", {"kappa": kappa}),
                ("cliques", {"m": m}),
            )
        ]
        tau0 = taus[0]
        shard = DatasetShard("d", tps)
        try:
            # A counts-only query keeps each frontier at τ₀; a records
            # query above it encodes that answer's rows only.
            for spec in specs:
                _serve(shard, spec, tau0)
                records_line(0, taus[-1], _serve(shard, spec, taus[-1]))
            for step, batch in enumerate(chain):
                report = shard.append_events(batch)
                assert report["accepted"] == len(batch)
                assert report["invalidated_families"] == []
                fresh_tps = _fresh(shard.tps)
                for spec in specs:
                    label = (spec.kind, spec.kappa, spec.m, step)
                    tau, carried = _carried(shard, spec)
                    assert tau == tau0, label
                    plan = plan_query(0, spec, fresh_tps)
                    index = plan.builder()
                    want = plan.runner(index, tau0)
                    _assert_same_columns(carried, want, label)
                    # The texts carried over are the direct ones.
                    store = carried._texts
                    filled = np.zeros(0, bool) if store is None else store.encoded
                    want_texts = want._record_texts()
                    for i in np.flatnonzero(filled).tolist():
                        text = bytes(store.chunks[store.chunk[i]][store.lo[i] : store.hi[i]])
                        assert text == want_texts[i].encode(), label
                    # Every τ′ above τ₀ served narrows the carried block,
                    # encoding its own rows.
                    for tau in taus[1:]:
                        assert records_line(0, tau, _serve(shard, spec, tau)) == (
                            records_line(0, tau, plan.runner(index, tau))
                        ), (label, tau)
                    if step == len(chain) - 1:
                        line = records_line(0, tau0, want)
                        assert records_line(0, tau0, carried.take()) == line, label
                        assert records_line(0, tau0, _serve(shard, spec, tau0)) == line
        finally:
            shard.close()

    @settings(max_examples=40, deadline=None)
    @given(
        tps=lattice_tps(),
        taus=lattice_taus,
        epsilon=st.sampled_from([0.5, 1.0]),
        data=st.data(),
    )
    def test_every_carry_equals_a_fresh_build_on_edge_events(
        self, tps, taus, epsilon, data
    ):
        # Each family's carry, called directly along the chain, against
        # a fresh build's block after every batch: columns, dtypes and
        # bytes.  Only the anchors it reruns may change, and those are
        # among the touched ones.
        chain = data.draw(edge_chains(tps))
        tau0 = taus[0]
        for fields, index, direct in _families(tps, epsilon):
            params = (fields.get("kappa"), fields.get("m"))
            block = direct(index, tau0)
            records_line(0, taus[-1], index.narrow(block, taus[-1]))  # some texts kept
            merged = tps
            for step, batch in enumerate(chain):
                label = (fields, step)
                merged = merged.with_events(
                    [event["point"] for event in batch],
                    [event["start"] for event in batch],
                    [event["end"] for event in batch],
                )
                successor = index.maintained(merged)
                rerun = successor.reruns(tau0)
                assert np.isin(rerun, successor.candidates.touched).all(), label
                carried = successor.carry(block, tau0, params, index)
                want = direct(type(index)(_fresh(merged), epsilon), tau0)
                _assert_same_columns(carried, want, label)
                assert carried.json_array() == want.json_array(), label
                if not len(rerun):
                    assert carried is block, label
                index, block = successor, carried

    def test_a_carry_that_qualifies_no_anchor_runs_no_kernel(self, monkeypatch):
        # Points that start after every old point are no old anchor's
        # partner, and too short for τ they anchor nothing: triangles
        # and cliques keep their block, texts included, with no kernel.
        tps = random_tps(n=150, seed=5)
        tau = 2.0
        latest = float(tps.starts.max())
        merged = tps.with_events(
            tps.points[:3] + 0.01, [latest + 1.0] * 3, [latest + 1.5] * 3
        )
        for cls, params, direct in (
            (VectorTriangleIndex, (None, None), lambda ix: ix.query_block(tau)),
            (VectorPatternIndex, (None, 3), lambda ix: ix.clique_block(3, tau)),
        ):
            index = cls(tps, 0.5)
            block = direct(index)
            line = records_line(0, tau, block.take())
            successor = index.maintained(merged)
            assert len(successor.candidates.touched) > 3, cls.__name__
            with monkeypatch.context() as patch:
                patch.setattr(cls, "_kernel", lambda *args: pytest.fail("kernel ran"))
                assert len(successor.reruns(tau)) == 0
                assert successor.carry(block, tau, params, index) is block
            assert block._texts is not None and block._texts.encoded.all()
            want = direct(cls(_fresh(merged), 0.5))
            _assert_same_columns(block, want, cls.__name__)
            assert records_line(0, tau, want) == line

    @pytest.mark.parametrize("seed", [3, 11])
    def test_every_family_carries_a_five_event_append(self, seed):
        # Blocks of a few thousand rows, many per anchor: the merge must
        # keep each anchor's rows in the kernel's order.
        tps = random_tps(n=400, seed=seed)
        rng = np.random.default_rng(seed)
        near = tps.points[rng.integers(0, tps.n, 5)]
        starts = rng.uniform(0.0, 5.0, 5)
        merged = tps.with_events(
            near + rng.uniform(-1.5, 1.5, near.shape), starts, starts + rng.uniform(3, 9, 5)
        )
        for fields, index, direct in _families(tps, 0.5):
            params = (fields.get("kappa"), fields.get("m"))
            tau = 2.0
            block = direct(index, tau)
            records_line(0, 4.0, index.narrow(block, 4.0))  # some texts kept
            records_line(0, 3.0, index.narrow(block, 3.0))  # more, in a second chunk
            assert len(block._texts.chunks) == 2, fields
            successor = index.maintained(merged)
            carried = successor.carry(block, tau, params, index)
            want = direct(type(index)(_fresh(merged), 0.5), tau)
            assert len(want) > len(block) > 1000, fields
            _assert_same_columns(carried, want, fields)
            # The splice packs the kept rows' texts into one chunk.
            assert len(carried._texts.chunks) == 1, fields
            assert records_line(0, tau, carried.take()) == records_line(0, tau, want)


def _warm_shard():
    registry = DatasetRegistry()
    shard = registry.register("d", random_tps(n=60, seed=2))
    _warm_frontiers(shard.cache, shard.tps)
    return registry, shard


def _carried_metric(registry):
    families = parse_exposition(registry.metrics.registry.render())
    return counter_value(families, "serve_cache_frontiers_carried_total", {"dataset": "d"})


EVENT = {"point": [0.5, 0.5], "start": 0.0, "end": 4.0}


class TestCarryLifetime:
    def test_carried_frontiers_are_counted_in_metrics(self):
        registry, shard = _warm_shard()
        try:
            assert _carried_metric(registry) == 0
            shard.append_events([EVENT])
            assert _carried_metric(registry) == 4 == shard.cache.stats.carried
            # A batch larger than half the set is maintained and carried too.
            report = shard.append_events([EVENT] * (shard.tps.n // 2 + 1))
            assert len(report["maintained_families"]) == 4
            assert _carried_metric(registry) == 8
        finally:
            registry.close()

    def test_a_large_batch_carries_every_frontier(self):
        registry, shard = _warm_shard()
        try:
            report = shard.append_events([EVENT] * (shard.tps.n // 2 + 1))
            assert report["invalidated_families"] == []
            assert shard.cache.stats.carried == len(VECTOR_SPECS)
            for spec in VECTOR_SPECS:
                assert _carried(shard, spec)[0] == 2.0, spec.kind
                plan = plan_query(0, spec, _fresh(shard.tps))
                assert records_line(0, 3.0, _serve(shard, spec, 3.0)) == records_line(
                    0, 3.0, plan.runner(plan.builder(), 3.0)
                )
        finally:
            registry.close()

    def test_an_over_cap_carried_block_is_not_kept(self, monkeypatch):
        registry, shard = _warm_shard()
        try:
            monkeypatch.setattr(frontier, "FRONTIER_CAP", 5)
            report = shard.append_events([EVENT])
            assert report["invalidated_families"] == []
            assert shard.cache.stats.carried == 0
            for spec in VECTOR_SPECS:
                assert _carried(shard, spec) is None, spec.kind
                plan = plan_query(0, spec, _fresh(shard.tps))
                assert records_line(0, 2.0, _serve(shard, spec, 2.0)) == records_line(
                    0, 2.0, plan.runner(plan.builder(), 2.0)
                )
        finally:
            registry.close()

    def test_a_failing_carry_leaves_the_append_and_an_empty_entry(
        self, monkeypatch, caplog
    ):
        def broken(self, block, tau, params, since):
            raise RuntimeError("carry failed")

        registry, shard = _warm_shard()
        try:
            for cls in (
                VectorTriangleIndex, VectorSumPairIndex, VectorUnionPairIndex,
                VectorPatternIndex,
            ):
                monkeypatch.setattr(cls, "carry", broken)
            report = shard.append_events([EVENT])
            assert report["accepted"] == 1
            assert len(report["maintained_families"]) == len(VECTOR_SPECS)
            assert shard.cache.stats.carried == 0
            # Each failure is reported with its traceback.
            failures = [r for r in caplog.records if r.exc_info]
            assert len(failures) == len(VECTOR_SPECS)
            assert all(str(r.exc_info[1]) == "carry failed" for r in failures)
            for spec in VECTOR_SPECS:
                plan = plan_query(0, spec, shard.tps)
                assert shard.cache.peek(plan.key) is not None
                assert _carried(shard, spec) is None, spec.kind
        finally:
            registry.close()
