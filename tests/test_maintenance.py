"""The ``vector`` backend's maintained structures equal a fresh build's.

``_VectorIndex.maintained`` derives the next version's layout, candidate
map, packed coverage profiles and start keys from the previous
version's by merge and gather (DESIGN.md note 13).  Queries read those
arrays, so each one must hold the values and dtypes a fresh build of
the merged set holds, and the old version's arrays must be neither
written nor kept alive.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TemporalPointSet
from repro.backends.vector import (
    VectorPatternIndex,
    VectorSumPairIndex,
    VectorTriangleIndex,
)
from repro.backends.vector.indexes import (
    _candidate_pairs,
    _lattice_windows,
    _segmented_cumsum,
)
from repro.serve.registry import DatasetShard
from repro.structures.decomposition import GEOMETRY_SLACK

from conftest import random_tps

#: SUM carries the profiles and the pattern index the start keys; both
#: carry the layout and the candidate map.
FAMILIES = (VectorSumPairIndex, VectorPatternIndex)

LAYOUT_ARRAYS = (
    "points", "starts", "ends", "cell_keys", "cell_of", "centers",
    "counts", "offsets", "order_id", "order_end",
)
PROFILE_ARRAYS = ("offsets", "times", "integral", "slopes", "ranks", "keys")


def _arrays(index):
    """Every array a query reads, by name."""
    lay, cmap = index.layout, index.candidates
    out = {f"layout.{name}": getattr(lay, name) for name in LAYOUT_ARRAYS}
    out["layout.n_cells"] = np.asarray(lay.n_cells)
    out["map.indptr"], out["map.cells"] = cmap.indptr, cmap.cells
    if isinstance(index, VectorSumPairIndex):
        for name in PROFILE_ARRAYS:
            out[f"profiles.{name}"] = getattr(index._profiles, name)
    if isinstance(index, VectorPatternIndex):
        out["start_keys.keys"], out["start_keys.ranks"] = index._start_keys
    return out


def _assert_equal(got, want, label):
    assert got.keys() == want.keys(), label
    for name in want:
        mine, theirs = got[name], want[name]
        assert mine.dtype == theirs.dtype, (label, name, mine.dtype, theirs.dtype)
        assert mine.shape == theirs.shape, (label, name)
        assert np.array_equal(mine, theirs), (label, name)


def _fresh(tps):
    """The same points as a new dataset object, so nothing memoised on
    ``tps`` is reused."""
    return TemporalPointSet(tps.points, tps.starts, tps.ends, metric=tps.metric)


def _whole_set_build(index):
    """Every array of ``index`` as a build over the whole set computes
    it, by sorting and searching every point: the reference a fresh
    build, the extension of empty structures, must match."""
    lay, n = index.layout, index.tps.n
    points = np.ascontiguousarray(index.tps.points, dtype=np.float64)
    starts, ends = index.tps.starts, index.tps.ends
    keys, cell_of = np.unique(
        np.floor(points / lay.side).astype(np.int64), axis=0, return_inverse=True
    )
    cell_of = cell_of.reshape(-1)
    counts = np.bincount(cell_of, minlength=len(keys))
    ids = np.arange(n)
    out = {
        "layout.points": points,
        "layout.starts": starts,
        "layout.ends": ends,
        "layout.cell_keys": keys,
        "layout.cell_of": cell_of,
        "layout.centers": (keys.astype(np.float64) + 0.5) * lay.side,
        "layout.counts": counts,
        "layout.offsets": np.append(0, np.cumsum(counts)),
        "layout.order_id": np.argsort(cell_of, kind="stable"),
        "layout.order_end": np.lexsort((ids, -ends, cell_of)),
        "layout.n_cells": np.asarray(len(keys)),
    }
    ai, ci = _candidate_pairs(lay, index.tps.metric, ids, 1.0, index.resolution)
    out["map.indptr"] = np.append(0, np.cumsum(np.bincount(ai, minlength=n)))
    out["map.cells"] = ci
    if isinstance(index, VectorSumPairIndex):
        cells = np.concatenate((cell_of, cell_of))
        events = np.concatenate((starts, ends))
        deltas = np.concatenate((np.ones(n, np.int64), -np.ones(n, np.int64)))
        order = np.lexsort((deltas, events, cells))
        cells, ts = cells[order], events[order]
        cover = np.cumsum(deltas[order])
        first = np.append(True, (cells[1:] != cells[:-1]) | (ts[1:] > ts[:-1]))
        last = np.append(first[1:], True)
        row_cell, times = cells[first], ts[first]
        slopes = cover[last].astype(np.float64)
        offsets = np.searchsorted(row_cell, np.arange(len(keys) + 1))
        steps = np.zeros(len(times))
        steps[1:] = slopes[:-1] * np.diff(times)
        steps[offsets[:-1]] = 0.0
        ranks = np.unique(times)
        out.update({
            "profiles.offsets": offsets,
            "profiles.times": times,
            "profiles.integral": _segmented_cumsum(steps, offsets),
            "profiles.slopes": slopes,
            "profiles.ranks": ranks,
            "profiles.keys": row_cell * len(ranks) + np.searchsorted(ranks, times),
        })
    if isinstance(index, VectorPatternIndex):
        rank = np.empty(n, dtype=np.int64)
        rank[np.lexsort((ids, starts))] = ids
        out["start_keys.keys"] = np.sort(cell_of * n + rank)
        out["start_keys.ranks"] = rank
    return out


def _touched(index, since):
    """The appended ids and every id whose candidate row holds a cell
    that gained one of them, from the index's own arrays."""
    lay, cmap = index.layout, index.candidates
    gained = np.zeros(lay.n_cells, dtype=bool)
    gained[lay.cell_of[since:]] = True
    hit = np.repeat(np.arange(lay.n), np.diff(cmap.indptr))[gained[cmap.cells]]
    return np.union1d(hit, np.arange(since, lay.n))


@st.composite
def datasets(draw):
    dim = draw(st.integers(1, 4))
    metric = draw(st.sampled_from(["l1", "l2", "linf", "l3"]))
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**16))
    box = draw(st.sampled_from([1.0, 3.0, 6.0]))
    return random_tps(n=n, dim=dim, seed=seed, metric=metric, box=box)


@st.composite
def batches(draw, tps, side):
    """One event batch: each event duplicates a point, lands in a point's
    cell, opens a new cell, or falls below the minimum key on an axis."""
    events = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["duplicate", "same cell", "new cell", "below"]))
        base = tps.points[draw(st.integers(0, tps.n - 1))].copy()
        if kind == "same cell":
            base = (np.floor(base / side) + 0.5) * side
        elif kind == "new cell":
            base = np.asarray(
                [draw(st.floats(-3.0, 9.0, allow_nan=False)) for _ in range(tps.dim)]
            )
        elif kind == "below":
            axis = draw(st.integers(0, tps.dim - 1))
            base[axis] = tps.points[:, axis].min() - draw(st.floats(0.5, 3.0))
        start = draw(st.integers(0, 20)) / 2
        events.append((base, start, start + draw(st.integers(0, 12)) / 2))
    points, starts, ends = zip(*events)
    return np.asarray(points), np.asarray(starts), np.asarray(ends)


class TestMaintainedArraysEqualAFreshBuild:
    @settings(max_examples=60, deadline=None)
    @given(tps=datasets(), epsilon=st.sampled_from([0.5, 1.0]))
    def test_a_fresh_build_equals_the_whole_set_build(self, tps, epsilon):
        for cls in FAMILIES:
            index = cls(tps, epsilon)
            _assert_equal(_arrays(index), _whole_set_build(index), cls.__name__)

    @settings(max_examples=120, deadline=None)
    @given(
        tps=datasets(),
        epsilon=st.sampled_from([0.5, 1.0]),
        steps=st.integers(1, 3),
        data=st.data(),
    )
    def test_every_array_equals_a_fresh_builds(self, tps, epsilon, steps, data):
        indexes = [cls(tps, epsilon) for cls in FAMILIES]
        for step in range(steps):
            since = tps.n
            tps = tps.with_events(*data.draw(batches(tps, indexes[0].layout.side)))
            indexes = [index.maintained(tps) for index in indexes]
            fresh = [cls(_fresh(tps), epsilon) for cls in FAMILIES]
            for mine, theirs in zip(indexes, fresh):
                label = (type(mine).__name__, step)
                _assert_equal(_arrays(mine), _arrays(theirs), label)
            cmap = indexes[0].candidates
            assert cmap.since == since
            assert np.array_equal(cmap.touched, _touched(fresh[0], since))

    def test_a_chain_across_the_lattice_dense_flip(self):
        # Dim 3, ε=1: the lattice search runs once the cells outnumber
        # the (2·reach + 1)² = 121 key windows, so a chain that opens
        # new cells takes the fresh build from the dense path to it.
        tps = random_tps(n=90, dim=3, seed=4, box=6.0)
        epsilon = 1.0
        indexes = [cls(tps, epsilon) for cls in FAMILIES]
        rng = np.random.default_rng(4)
        paths = []
        for _ in range(3):
            points = rng.uniform(-2.0, 8.0, (20, 3))
            starts = rng.integers(0, 20, 20) / 2
            tps = tps.with_events(points, starts, starts + rng.integers(0, 12, 20) / 2)
            indexes = [index.maintained(tps) for index in indexes]
            fresh = [cls(_fresh(tps), epsilon) for cls in FAMILIES]
            for mine, theirs in zip(indexes, fresh):
                _assert_equal(_arrays(mine), _arrays(theirs), type(mine).__name__)
            lay = fresh[0].layout
            thr = 1.0 + fresh[0].resolution + GEOMETRY_SLACK
            paths.append(_lattice_windows(lay, tps.metric, np.arange(1), thr) is None)
        assert paths[0] and not paths[-1], paths

    def test_the_old_arrays_are_never_written(self):
        tps = random_tps(n=120, seed=7)
        indexes = [
            cls(tps, 0.5)
            for cls in (VectorTriangleIndex, VectorSumPairIndex, VectorPatternIndex)
        ]
        before = [
            {name: array.copy() for name, array in _arrays(index).items()}
            for index in indexes
        ]
        merged = tps.with_events(tps.points[:3] + 0.01, tps.starts[:3], tps.ends[:3])
        maintained = [index.maintained(merged) for index in indexes]
        for index, saved, successor in zip(indexes, before, maintained):
            _assert_equal(_arrays(index), saved, type(index).__name__)
            # ... nor shared with the successor, not even as a view.
            shared = [
                (mine, theirs)
                for mine, a in _arrays(successor).items()
                for theirs, b in _arrays(index).items()
                if np.shares_memory(a, b)
            ]
            assert not shared, (type(index).__name__, shared)


class TestOldVersionIsFreed:
    def test_an_append_frees_the_old_layout_map_and_profiles(self):
        shard = DatasetShard("d", random_tps(n=200, seed=3))
        try:
            from repro.engine import QuerySpec, execute_plans
            from repro.engine.planner import plan_query

            specs = [
                QuerySpec(kind="triangles", taus=2.0, backend="vector"),
                QuerySpec(kind="pairs-sum", taus=2.0, backend="vector"),
                QuerySpec(kind="pairs-union", taus=2.0, kappa=3, backend="vector"),
                QuerySpec(kind="cliques", taus=2.0, m=3, backend="vector"),
            ]
            plans = [plan_query(i, spec, shard.tps) for i, spec in enumerate(specs)]
            assert all(result.ok for result in execute_plans(plans, shard.cache))
            indexes = [shard.cache.peek(plan.key) for plan in plans]
            sums = next(i for i in indexes if isinstance(i, VectorSumPairIndex))
            cliques = next(i for i in indexes if isinstance(i, VectorPatternIndex))
            alive = [
                weakref.ref(indexes[0].layout.cell_of),
                weakref.ref(indexes[0].layout.order_end),
                weakref.ref(indexes[0].candidates.cells),
                weakref.ref(sums._profiles.times),
                weakref.ref(sums._profiles.keys),
                weakref.ref(cliques._start_keys[0]),
            ]
            del indexes, sums, cliques, plans
            report = shard.append_events(
                [{"point": [1.0, 1.0], "start": 0.0, "end": 5.0}]
            )
            assert len(report["maintained_families"]) == 4
            gc.collect()
            assert [ref() is None for ref in alive] == [True] * len(alive)
        finally:
            shard.close()

