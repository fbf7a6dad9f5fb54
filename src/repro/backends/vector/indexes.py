"""Vectorised query-family indexes for the ``vector`` backend.

Each class holds its point set, ``epsilon`` and the one
:class:`~repro.backends.vector.soa.SoALayout` of that dataset version
(:func:`~repro.backends.vector.soa.layout_for`), exposes the legacy
solvers' query surface, and answers queries with batched numpy kernels
over the layout:

* Candidates are looked up, not searched.  The cells an anchor's
  radius-1 ball query visits depend on the anchor's position only, so
  every point's cells are computed once per ``(dataset version, ε)``
  into a :class:`~repro.backends.vector.soa.CandidateMap`, memoised on
  the version with its layout and shared by the four served families;
  a query gathers the rows of its τ-eligible anchors (DESIGN.md note
  10).  The generator (:func:`_candidate_pairs`) runs one exact search
  of the occupied cells (:class:`_CellSearch`): cells are bucketed by
  their last ``dim − 1`` key coordinates over ``reach``, so the
  ``±reach`` box around an anchor's key meets at most three buckets
  per bucketed axis, each read as one contiguous range of first
  coordinates; the superset is refined by one batched rowwise
  center-distance pass per bounded chunk.  Paths and stars call it per
  query, at their own radii.
* Every kernel walks the same chunks of partners, the ones
  :func:`_expanded` yields from its eligible anchors' candidate pairs.
* :class:`VectorTriangleIndex` — partner expansion through the CSR cell
  layout, one boolean mask for the temporal/lexicographic predicate,
  ragged ``i<j`` pair generation batched across *all* anchors, and one
  rowwise linked-ball test per pair chunk; ``count`` sums run sizes
  instead.
* :class:`VectorSumPairIndex` — Algorithm 4.  Every cell's coverage
  profile is packed into CSR arrays at build time
  (:class:`PackedProfiles`), and all ``Σ_u |I_u ∩ I_p ∩ I_q|`` requests
  of a sweep — one per (witness cell, pair) — are scored with one
  ``searchsorted`` on an exact integer key.
* :class:`VectorUnionPairIndex` — Algorithm 8.  The κ-round greedy
  max-coverage runs for a whole chunk of pairs at once
  (:func:`_greedy_cover`): each round scores every (uncovered segment ×
  witness member) entry and picks each segment's witness by
  ``MaxOverlapIndex``'s tie rule.
* :class:`VectorPatternIndex` — Appendix D.  Cliques are level-wise
  joins over the anchors' partner arrays with ball-link tests, put in
  the recursion's order by one sort; paths and stars run the recursion
  inherited from :class:`~repro.core.patterns.PatternIndex` (the one
  legacy base class left) over one batched context map per call.

The four served families answer with a :class:`~repro.blocks.RecordBlock`
(``query_block``, ``clique_block``): ids and lifespans or scores as
columns, with no per-record loop in the kernel.  ``query`` and
``iter_cliques`` are the same kernels, materialised to record objects.
SUM, UNION and cliques return the ``grid`` backend's records bit for
bit and in the same order, triangles the same records (the canonical
cells coincide; DESIGN.md note 8 gives the exactness arguments,
``tests/test_backends.py`` compares the lists).
All per-cell and per-point state — the layout, the candidate map, the
packed coverage profiles and the start keys — is built with the index,
so a cache hit leaves no structure work and a query writes nothing to
the index.

``maintained()`` extends that state to the merged set by merge and
gather instead of rebuilding it (DESIGN.md note 13): the layout gains
the appended points' cells, the candidate map runs the generator for
the appended points only and inserts each new cell into the old rows
within its reach (the map keeps its cell search, which the next
version extends), and the profiles recompute the cells that gained a
point only; every array equals a fresh build's.  A fresh build is the
same routine extending empty structures.  The four families of one
version share the extended layout and map.  ``carry`` brings a τ
frontier's block across that append: the kernel reruns only over the
anchors an appended point in their candidate cells can change, by each
family's own test (``reruns``), their runs in the block are replaced,
and every other anchor's rows are kept (DESIGN.md note 12).
"""

from __future__ import annotations

import copy
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from ...core.aggregate import UnionPairIndex
from ...core.patterns import PatternIndex
from ...errors import BackendError, ValidationError
from ...structures.decomposition import GEOMETRY_SLACK
from ...blocks import CliqueBlock, PairBlock, RecordBlock, TriangleBlock
from ...types import PairRecord, PatternRecord, TemporalPointSet, TriangleRecord
from .soa import (
    BLOCK_ELEMS,
    CandidateMap,
    SoALayout,
    layout_for,
    locate,
    memoised,
    pairwise_dists,
    ragged_arange,
    rowwise_dists,
)

__all__ = [
    "VectorTriangleIndex",
    "VectorSumPairIndex",
    "VectorUnionPairIndex",
    "VectorPatternIndex",
    "PackedProfiles",
]


def _check_tau(tau: float) -> None:
    if tau <= 0:
        raise ValidationError(f"durability parameter must be positive, got {tau!r}")


#: Per-chunk ``(ids, floats, floats)`` columns of a block.
_Columns = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _columns(parts: List[_Columns], id_width: int = 0) -> _Columns:
    """The chunks' columns concatenated; empty ones of the same dtypes
    when there are none: ids ``0 × id_width`` and two float columns, or
    with ``id_width`` 0 a pair block's ``p`` and ``q`` ids and scores."""
    if parts:
        return tuple(np.concatenate(column) for column in zip(*parts))
    if not id_width:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0)
    return np.empty((0, id_width), dtype=np.int64), np.empty(0), np.empty(0)


# The kernels' two τ tests.  ``narrow`` applies them to a block's rows
# to answer a higher τ, over operands the block keeps (``_passing``).
def _anchor_ok(lay: SoALayout, p, tau: float) -> np.ndarray:
    """Anchor eligibility, ``E_p − S_p ≥ τ``."""
    return lay.ends[p] - lay.starts[p] >= tau


def _partner_ok(lay: SoALayout, p, q, tau: float) -> np.ndarray:
    """The partner τ-stab, ``E_q ≥ S_p + τ``."""
    return lay.ends[q] >= lay.starts[p] + tau


def _passing(operands: tuple, tau: float) -> np.ndarray:
    """Both τ tests of each row of a block, from its operands: the
    anchor's span ``E_p − S_p``, its start ``S_p`` and the earliest end
    ``E_q`` of the row's partners, the same float expressions on the
    same values as the kernel's (DESIGN.md note 11).  ``min`` commutes
    with ``≥``: every partner passes exactly when the earliest does."""
    span, start, end = operands[:3]
    return (span >= tau) & (end >= start + tau)


def _eligible_anchor_array(lay: SoALayout, tau: float) -> np.ndarray:
    return np.flatnonzero(_anchor_ok(lay, slice(None), tau))


def _link_threshold(resolution: float) -> float:
    """``linked()``'s unit-threshold cutoff, same float association as
    the legacy ``threshold + a.radius_bound + b.radius_bound + slack``."""
    return ((1.0 + resolution) + resolution) + GEOMETRY_SLACK


# ----------------------------------------------------------------------
# Candidate generation
# ----------------------------------------------------------------------
#: Entries (probed buckets, or the cells read from them) in one chunk of
#: the occupied-cell search, which keeps a chunk's temporaries to a few
#: hundred KB.  The candidate map runs the search over every point of
#: each new version; chunks of ``BLOCK_ELEMS`` entries fragmented the
#: heap, so that peak RSS grew with every append.
SEARCH_CHUNK = 1 << 14


def _slices(weights: np.ndarray, cap: int) -> Iterator[Tuple[int, int]]:
    """Consecutive ``[i0, i1)`` ranges whose weights sum to at most
    ``cap`` (a single heavier item gets a range of its own)."""
    cum = np.cumsum(weights)
    i0 = 0
    while i0 < len(weights):
        base = cum[i0 - 1] if i0 else 0
        i1 = max(int(np.searchsorted(cum, base + cap, side="right")), i0 + 1)
        yield i0, i1
        i0 = i1


def _dense_ranks(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``x``, ascending, and each ``x``'s index
    among them.  ``np.unique`` would do, but its hash path imports
    ``numpy.ma`` (half a megabyte) on first use."""
    order = np.argsort(x)
    x = x[order]
    new = np.ones(len(x), dtype=bool)
    new[1:] = x[1:] != x[:-1]
    rank = np.empty(len(x), dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    return x[new], rank


def _merged(values: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``values`` (ascending, distinct) with the distinct values of
    ``x`` they lack inserted."""
    x = _dense_ranks(x)[0]
    at, there = locate(values, x)
    return np.insert(values, at[~there], x[~there])


class _CellSearch:
    """The occupied cells of a layout, indexed for ``±reach`` key boxes.

    Each cell goes in the bucket of its last ``dim − 1`` key coordinates
    floor-divided by ``reach``, so the box of ``±reach`` around any key
    meets at most three buckets per bucketed axis, at most
    ``3^(dim−1)`` in all.  A bucket keeps its cells in the layout's
    order, which sorts them by their first key coordinate, so each
    probed bucket reads one contiguous range.  Codes are exact ranks:
    each bucketed axis's dense ranks among its occupied values are
    chained into the dense ranks of the occupied prefixes, and a cell's
    index ranks its first coordinate, so no code exceeds ``n_cells²``
    whatever span the keys cover (DESIGN.md note 10).

    Like the layout, a search is an extension: a new one indexes no
    cell, and :meth:`extended` indexes a later version's cells.
    """

    def __init__(self, lay: SoALayout, thr: float) -> None:
        """The search, over no cells yet, for the cells within ``thr``
        of a point of ``lay``: a centre within ``thr`` of a point in
        cell ``k`` has ``|key − k| ≤ floor(thr/side) + 1`` on every
        axis, with half a side of margin, since every ℓ_α distance
        (α ≥ 1) is at least the ℓ∞ one."""
        self.reach = int(np.floor(thr / lay.side)) + 1
        empty = np.empty(0, dtype=np.int64)
        #: Per bucketed axis: its occupied values, and the occupied codes
        #: ``prefix rank × len(values) + value rank`` of the axes so far.
        self.axes: List[Tuple[np.ndarray, np.ndarray]] = [(empty, empty)] * (lay.dim - 1)
        self.first = self.order = self.codes = empty

    def extended(self, keys: np.ndarray, renumber: np.ndarray) -> "_CellSearch":
        """The search over ``keys``, a layout's cell keys, given that
        this one indexes the cells that ``renumber`` maps to their
        indices there; the others are new (:meth:`SoALayout.growth`).

        Inserting values only shifts ranks: an old value, prefix or cell
        keeps its order among the old ones, so each old code is
        re-ranked by a gather and the new cells' codes, the only ones
        sorted, are inserted.  The arrays equal a search built over
        ``keys`` at once (DESIGN.md note 13).
        """
        out = _CellSearch.__new__(_CellSearch)
        out.reach = reach = self.reach
        added = np.delete(np.arange(len(keys)), renumber)
        # Each old prefix's rank now, and each new cell's prefix rank;
        # before the first bucketed axis all cells share one prefix.
        old_prefix = np.zeros(1, dtype=np.int64)
        new_prefix = np.zeros(len(added), dtype=np.int64)
        out.axes = []
        for j, (values, codes) in enumerate(self.axes, start=1):
            value = keys[added, j] // reach
            merged = _merged(values, value)
            prefix, rank = np.divmod(codes, max(len(values), 1))
            width = len(merged)
            kept = old_prefix[prefix] * width + np.searchsorted(merged, values)[rank]
            own = new_prefix * width + np.searchsorted(merged, value)
            codes = _merged(kept, own)
            old_prefix = np.searchsorted(codes, kept)
            new_prefix = np.searchsorted(codes, own)
            out.axes.append((merged, codes))
        n = len(keys)
        bucket, cell = np.divmod(self.codes, max(len(renumber), 1))
        kept = old_prefix[bucket] * n + renumber[cell]
        own = new_prefix * n + added
        by_code = np.argsort(own)
        at = np.searchsorted(kept, own[by_code])
        out.codes = np.insert(kept, at, own[by_code])
        out.order = np.insert(renumber[self.order], at, added[by_code])
        out.first = np.ascontiguousarray(keys[:, 0])
        return out

    def near(self, query: np.ndarray) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """``(i, c)`` pairs covering every occupied cell ``c`` whose key
        lies within ``±reach`` of ``query[i]`` on every axis: the cells
        of the probed buckets within ``±reach`` on the first axis, a
        superset that the caller refines.

        The probes descend axis by axis and keep the occupied prefixes
        only, so their number follows the occupied buckets near a key.
        Chunks hold whole rows, ascending, and at most ``SEARCH_CHUNK``
        entries unless one row has more; a row's cells come bucket by
        bucket, not ascending.
        """
        reach, width = self.reach, len(self.first)
        step = np.array([-1, 0, 1], dtype=np.int64)
        block = max(1, SEARCH_CHUNK // 3 ** len(self.axes))
        for r0 in range(0, len(query), block):
            q = query[r0 : r0 + block]
            row = np.arange(len(q))
            bucket = np.zeros(len(q), dtype=np.int64)
            for j, (values, codes) in enumerate(self.axes):
                row = np.repeat(row, 3)
                value = q[row, j + 1] // reach + np.tile(step, len(bucket))
                at, there = locate(values, value)
                bucket, known = locate(codes, np.repeat(bucket, 3) * len(values) + at)
                found = np.flatnonzero(there & known)
                row, bucket = row[found], bucket[found]
            lo = np.searchsorted(self.first, q[row, 0] - reach)
            hi = np.searchsorted(self.first, q[row, 0] + reach, side="right")
            start = np.searchsorted(self.codes, bucket * width + lo)
            count = np.searchsorted(self.codes, bucket * width + hi) - start
            # Each row's first probe, and the entries before each row.
            probe = np.searchsorted(row, np.arange(len(q) + 1))
            before = np.concatenate(([0], np.cumsum(count)))[probe]
            for i0, i1 in _slices(np.diff(before), SEARCH_CHUNK):
                p0, p1 = probe[i0], probe[i1]
                yield (
                    np.repeat(row[p0:p1] + r0, count[p0:p1]),
                    self.order[ragged_arange(start[p0:p1], count[p0:p1])],
                )


def _cell_search(lay: SoALayout, thr: float) -> _CellSearch:
    """The search over every cell of ``lay`` at ``thr``."""
    return _CellSearch(lay, thr).extended(lay.cell_keys, np.empty(0, dtype=np.int64))


def _candidate_rows(
    lay: SoALayout, metric, anchors: np.ndarray, thr: float, search: _CellSearch
) -> Tuple[np.ndarray, np.ndarray]:
    """The generator: every cell whose center lies within ``thr`` of an
    anchor's point, found by ``search`` (the layout's search at
    ``thr``), as CSR rows — each anchor's cell count and the cells,
    anchor by anchor, ascending within each."""
    counts = np.zeros(len(anchors), dtype=np.int64)
    parts: List[np.ndarray] = []
    if not len(anchors) or not lay.n_cells:
        return counts, np.empty(0, dtype=np.int64)
    points = lay.points[anchors]
    for ai, ci in search.near(lay.cell_keys[lay.cell_of[anchors]]):
        keep = rowwise_dists(metric, lay.centers[ci], points[ai]) <= thr
        ai, ci = ai[keep], ci[keep]
        if len(ai):
            # A chunk holds whole rows: count them in place.
            order = np.argsort(ai * lay.n_cells + ci)
            lo, hi = ai.min(), ai.max() + 1
            counts[lo:hi] = np.bincount(ai - lo, minlength=hi - lo)
            parts.append(ci[order])
    return counts, np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


def _candidate_pairs(
    lay: SoALayout,
    metric,
    anchors: np.ndarray,
    radius: float,
    resolution: float,
    search: Optional[_CellSearch] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """All ``(anchor index, cell index)`` pairs passing the candidate
    test (center within ``radius + resolution + slack``), ascending in
    ``(anchor, cell)`` — the legacy ``candidate_groups`` sweep for a
    whole anchor batch.  ``search`` is the layout's search at this
    threshold (:func:`_cell_search`), built here when not given."""
    thr = radius + resolution + GEOMETRY_SLACK
    if search is None:
        search = _cell_search(lay, thr)
    counts, cells = _candidate_rows(lay, metric, anchors, thr, search)
    return np.repeat(np.arange(len(anchors), dtype=np.int64), counts), cells


def _members(lay: SoALayout, cells: np.ndarray) -> np.ndarray:
    """The ids of the points in ``cells``, cell by cell, ids ascending."""
    return lay.order_id[ragged_arange(lay.offsets[cells], lay.counts[cells])]


#: The map of no points, which a map built from scratch extends.
_NO_MAP = CandidateMap(np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int64))


def _rows_holding(
    lay: SoALayout,
    metric,
    search: _CellSearch,
    cells: np.ndarray,
    newer: np.ndarray,
    thr: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """The pairs ``(i, c)`` of an old point ``i`` and one of ``cells``
    whose row holds ``c``, ascending in ``(i, c)``; ``newer`` counts
    each cell's appended members, which close its id order.

    A row holds a cell whose center lies within ``thr`` of its point,
    and such a point's cell lies within ``±reach`` keys of the cell, so
    the points ``search`` finds there are tested with the generator's
    own distance arithmetic, and the pairs equal its rows'.
    """
    keys, query = lay.cell_keys, lay.cell_keys[cells]
    points: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
    held: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
    for qi, ci in search.near(query):
        inside = (np.abs(keys[ci] - query[qi]) <= search.reach).all(axis=1)
        qi, ci = qi[inside], ci[inside]
        older = lay.counts[ci] - newer[ci]
        point = lay.order_id[ragged_arange(lay.offsets[ci], older)]
        cell = cells[np.repeat(qi, older)]
        near = rowwise_dists(metric, lay.centers[cell], lay.points[point]) <= thr
        points.append(point[near])
        held.append(cell[near])
    point, cell = np.concatenate(points), np.concatenate(held)
    order = np.argsort(point * lay.n_cells + cell)
    return point[order], cell[order]


def _extended_map(
    old: CandidateMap, lay: SoALayout, metric, resolution: float
) -> CandidateMap:
    """The map over ``lay``, given ``old``, the map over its first
    ``m`` points (DESIGN.md note 13).

    A row depends on its point and on the set of occupied cells only.
    So the generator runs for the appended points only; every other
    row is kept, renumbered, and gains the new cells within reach of
    its point, which are inserted in order.  The cell search is
    ``old``'s, extended by the new cells, and also finds the old rows
    that hold a cell that gained a point, and so ``gains``.  A fresh
    build extends the empty map: its rows are the generator's.
    """
    m = len(old.indptr) - 1
    thr = 1.0 + resolution + GEOMETRY_SLACK
    gained, new, renumber = lay.growth(m)
    search = (old.search or _CellSearch(lay, thr)).extended(lay.cell_keys, renumber)
    appended = np.arange(m, lay.n)
    counts, rows = _candidate_rows(lay, metric, appended, thr, search)
    if not m:
        indptr = np.zeros(lay.n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CandidateMap(indptr, rows, search, 0, lay.n)
    newer = np.bincount(lay.cell_of[m:], minlength=lay.n_cells)
    point, cell = _rows_holding(lay, metric, search, gained, newer, thr)
    # The new cells go into the kept rows: each at the count of its
    # row's cells below it, found by one search over the row-major
    # keys of the rows that gain one.
    body = renumber[old.cells]
    is_new = np.zeros(lay.n_cells, dtype=bool)
    is_new[gained[new]] = True
    ins = np.flatnonzero(is_new[cell])
    gaining, slot = _dense_ranks(point[ins])
    lengths = np.diff(old.indptr)
    span = lengths[gaining]
    keys = np.repeat(np.arange(len(gaining)), span) * lay.n_cells + body[
        ragged_arange(old.indptr[gaining], span)
    ]
    below = np.searchsorted(keys, slot * lay.n_cells + cell[ins])
    at = old.indptr[point[ins]] + below - (np.cumsum(span) - span)[slot]
    cells = np.insert(
        body,
        np.concatenate((at, np.full(len(rows), len(body)))),
        np.concatenate((cell[ins], rows)),
    )
    lengths += np.bincount(point[ins], minlength=m)
    indptr = np.zeros(lay.n + 1, dtype=np.int64)
    np.cumsum(np.concatenate((lengths, counts)), out=indptr[1:])
    # Every appended point of each held cell: its last members.
    tail = newer[cell]
    gains = (
        np.repeat(point, tail),
        lay.order_id[ragged_arange(lay.offsets[cell + 1] - tail, tail)],
    )
    touched = np.concatenate((_dense_ranks(point)[0], appended))
    return CandidateMap(indptr, cells, search, m, len(appended), gains, touched)


def _anchor_chunks(
    lay: SoALayout, ai: np.ndarray, ci: np.ndarray, cap: int = 4 * BLOCK_ELEMS
) -> Iterator[Tuple[int, int]]:
    """Split the candidate-pair arrays into chunks of bounded expansion.

    Yields ``(e0, e1)`` ranges whose summed cell populations stay near
    ``cap``; chunk boundaries never split one anchor's entries, so the
    per-anchor run/segment logic downstream stays intact.
    """
    if not len(ai):
        return
    weights = lay.counts[ci]
    cum = np.cumsum(weights)
    if int(cum[-1]) <= cap:
        yield 0, len(ai)
        return
    e0 = 0
    while e0 < len(ai):
        t = int(np.searchsorted(cum, (cum[e0 - 1] if e0 else 0) + cap))
        t = min(max(t, e0), len(ai) - 1)
        t = int(np.searchsorted(ai, ai[t], side="right"))
        t = max(t, e0 + 1)
        yield e0, t
        e0 = t


class _Chunk(NamedTuple):
    """Candidate pairs expanded into partners (:func:`_expanded`)."""

    #: The ``(anchor position, cell)`` pairs, whole anchors, ascending.
    ai: np.ndarray
    ci: np.ndarray
    #: Per partner: its anchor's id and its own.
    p: np.ndarray
    q: np.ndarray
    #: The contiguous runs of equal ``(anchor, cell)``: where each
    #: starts, its partner count, and its pair (an index into ``ai``).
    run_start: np.ndarray
    run_m: np.ndarray
    run_src: np.ndarray


def _expanded(
    lay: SoALayout, anchors: np.ndarray, ai: np.ndarray, ci: np.ndarray, tau: float
) -> Iterator[_Chunk]:
    """Every ``durableBallQ`` partner of ``anchors`` through their
    candidate pairs ``(ai, ci)``, in chunks of bounded expansion
    (:func:`_anchor_chunks`); chunks without a partner are skipped.

    Each chunk's pairs expand through the CSR cell layout, and one mask
    applies the τ-stab and anchor-precedence predicate.  Partners inside
    a run come in ``(end desc, id asc)`` order (the legacy
    ``iter_desc_by_end`` order).
    """
    for e0, e1 in _anchor_chunks(lay, ai, ci):
        a, c = ai[e0:e1], ci[e0:e1]
        cnt = lay.counts[c]
        q = lay.order_end[ragged_arange(lay.offsets[c], cnt)]
        p = np.repeat(anchors[a], cnt)
        keep = _partner_ok(lay, p, q, tau) & (
            (lay.starts[q] < lay.starts[p]) | ((lay.starts[q] == lay.starts[p]) & (q < p))
        )
        if not keep.any():
            continue
        src = np.repeat(np.arange(len(a)), cnt)[keep]
        bounds = np.concatenate(([0], np.flatnonzero(np.diff(src)) + 1, [len(src)]))
        run_start = bounds[:-1]
        yield _Chunk(
            a, c, p[keep], q[keep], run_start, np.diff(bounds), src[run_start]
        )


def _witness_pools(
    lay: SoALayout, metric, chunk: _Chunk, link_thr: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Witness cells per run, batched: ``{gi ∈ cand(p) : linked(gi, j)}``.

    One ragged expansion of each run's full candidate-cell segment and
    one rowwise center-distance pass.  Returns ``(wit_run, wit_cell)``
    with pools in ascending cell order per run — the legacy witness
    sweep order.
    """
    ai, ci, run_src = chunk.ai, chunk.ci, chunk.run_src
    a_bounds = np.concatenate(([0], np.flatnonzero(np.diff(ai)) + 1, [len(ai)]))
    seg = np.searchsorted(a_bounds, run_src, side="right") - 1
    wlen = a_bounds[seg + 1] - a_bounds[seg]
    wpos = ragged_arange(a_bounds[seg], wlen)
    wrun = np.repeat(np.arange(len(run_src)), wlen)
    wcell = ci[wpos]
    dd = rowwise_dists(
        metric, lay.centers[ci[run_src][wrun]], lay.centers[wcell]
    )
    wm = dd <= link_thr
    return wrun[wm], wcell[wm]


def _segment_pairs(key: np.ndarray) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Every ``(i, j)`` with ``i < j`` inside one run of equal ``key``
    values, ascending, in chunks of about ``BLOCK_ELEMS`` pairs.

    Each value of ``key`` must fill one contiguous run.
    """
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(key)) + 1, [len(key)]))
    lens = np.diff(bounds)
    after = (
        np.repeat(lens, lens)
        - 1
        - (np.arange(len(key)) - np.repeat(bounds[:-1], lens))
    )
    cum = np.cumsum(after)
    e = 0
    while e < len(key):
        t = int(np.searchsorted(cum, (cum[e - 1] if e else 0) + BLOCK_ELEMS)) + 1
        t = min(max(t, e + 1), len(key))
        elems = np.arange(e, t)
        cc = after[e:t]
        e = t
        # For element i with cc[i] later same-run elements, pair it with
        # each of them: iu repeats i, ju counts up.
        iu = np.repeat(elems, cc)
        if len(iu):
            yield iu, ragged_arange(elems + 1, cc)


# ----------------------------------------------------------------------
# Shared index state
# ----------------------------------------------------------------------
class _VectorIndex:
    """What every family holds: the point set, ε, its layout and the
    radius-1 candidate map over it."""

    def __init__(self, tps: TemporalPointSet, epsilon: float = 0.5) -> None:
        if not 0 < epsilon <= 1:
            raise ValidationError(f"epsilon must lie in (0, 1], got {epsilon!r}")
        if not tps.metric.supports_grid:
            raise BackendError(
                f"the vector backend requires an lp metric, got {tps.metric.name!r}"
            )
        self._build(tps, float(epsilon), None)

    def _build(
        self, tps: TemporalPointSet, epsilon: float, base: Optional["_VectorIndex"]
    ) -> None:
        """Set up over ``tps``: from scratch, or, given ``base``, the
        same family's index over the first points of ``tps``, by
        extending its structures (which are never written)."""
        self.tps = tps
        self.epsilon = epsilon
        res = self.resolution
        side = tps.metric.cell_side_for_diameter(2.0 * res, tps.dim)
        lay = self.layout = layout_for(tps, side, None if base is None else base.layout)
        # One radius-1 map per (version, ε), which the four families share.
        old = _NO_MAP if base is None else base.candidates
        self.candidates = memoised(
            tps, ("map", res), lambda: _extended_map(old, lay, tps.metric, res)
        )

    @property
    def maintenance(self) -> Dict[str, int]:
        """What an append cost this version's candidate map, which the
        families of one ε share: ``rerun_rows``, the rows the generator
        computed (every row for a fresh build), and
        ``touched_anchors``, the anchors whose rows the append can
        change, of which :meth:`carry` reruns :meth:`reruns`."""
        cmap = self.candidates
        return {"rerun_rows": cmap.rerun, "touched_anchors": len(cmap.touched)}

    @property
    def resolution(self) -> float:
        """Cell radius bound: ``durableBallQ(p, τ, ε/2)`` uses cells of
        diameter ``≤ ε/2``."""
        return self.epsilon / 4.0

    def _partners(
        self, tau: float, anchors: Optional[np.ndarray] = None
    ) -> Iterator[_Chunk]:
        """The partners of the τ-eligible anchors, of ``anchors``
        (ascending ids) when given and of every point otherwise, through
        their candidate pairs gathered from the map (:func:`_expanded`)."""
        if anchors is None:
            eligible = _eligible_anchor_array(self.layout, tau)
        else:
            eligible = anchors[_anchor_ok(self.layout, anchors, tau)]
        return _expanded(self.layout, eligible, *self.candidates.rows(eligible), tau)

    def _kernel(
        self, tau: float, params: tuple, anchors: Optional[np.ndarray] = None
    ) -> RecordBlock:
        """The family's kernel at τ and ``params = (κ, m)``, over the
        eligible ``anchors`` only when given (``_partners``)."""
        raise NotImplementedError

    def _anchors(self, block: RecordBlock) -> np.ndarray:
        """Each row's anchor: the point whose partners the row came from."""
        raise NotImplementedError

    def _can_change(self, p: np.ndarray, u: np.ndarray, tau: float) -> np.ndarray:
        """Whether the appended point ``u``, in a cell of ``p``'s row,
        can change anchor ``p``'s rows at τ: for triangles and cliques,
        when it is one of ``p``'s partners (``u`` follows ``p`` in id,
        so it precedes ``p`` only by an earlier start)."""
        lay = self.layout
        return (lay.starts[u] < lay.starts[p]) & _partner_ok(lay, p, u, tau)

    def reruns(self, tau: float) -> np.ndarray:
        """The anchors whose rows at τ the append that made this version
        can change, ascending: the τ-eligible appended points, and the
        τ-eligible old anchors with an appended point in one of their
        candidate cells (``CandidateMap.gains``) that can change them
        (DESIGN.md note 12)."""
        lay, cmap = self.layout, self.candidates
        p, u = cmap.gains
        hit = p[_anchor_ok(lay, p, tau) & self._can_change(p, u, tau)]
        appended = np.arange(cmap.since, lay.n)
        return np.concatenate(
            (_dense_ranks(hit)[0], appended[_anchor_ok(lay, appended, tau)])
        )

    def carry(
        self, block: RecordBlock, tau: float, params: tuple, since: "_VectorIndex"
    ) -> RecordBlock:
        """This version's block at τ and ``params = (κ, m)``, given
        ``block``, the same family's block at τ and ``params`` on
        ``since``, the index this one was :meth:`maintained` from.

        Only the anchors :meth:`reruns` lists run the kernel, and their
        rows replace theirs in ``block``; every other anchor's rows,
        and the texts ``block`` has encoded for them, carry over.  With
        none to rerun, ``block`` itself is this version's block
        (DESIGN.md note 12).
        """
        _check_tau(tau)
        if (
            type(since) is not type(self)
            or since.epsilon != self.epsilon
            or since.tps.n != self.candidates.since
        ):
            raise ValidationError("carry needs the index this one was maintained from")
        rerun = self.reruns(tau)
        if not len(rerun):
            return block
        fresh = self._kernel(tau, params, rerun)
        # Rows come grouped by ascending anchor: each rerun anchor's run
        # in ``block`` gives way to its run in ``fresh``.
        kept = self._anchors(block)
        return block.splice(
            np.searchsorted(kept, rerun),
            np.searchsorted(kept, rerun, side="right"),
            fresh,
            np.append(np.searchsorted(self._anchors(fresh), rerun), len(fresh)),
        )

    def maintained(self, tps: TemporalPointSet) -> "_VectorIndex":
        """The index over ``tps``, this dataset plus appended points.

        Its layout, candidate map and per-family arrays extend this
        index's by merge and gather, and equal a fresh build's of
        ``tps`` (DESIGN.md note 13); the families of one version share
        its layout and candidate map, so an append derives one of each.
        ``self`` is never mutated.
        """
        if tps.n <= self.tps.n:
            raise ValidationError(
                f"extension target has {tps.n} points, need more than {self.tps.n}"
            )
        index = object.__new__(type(self))
        index._build(tps, self.epsilon, self)
        return index


# ----------------------------------------------------------------------
# Triangles
# ----------------------------------------------------------------------
class VectorTriangleIndex(_VectorIndex):
    """Algorithm 1 over SoA kernels (record-identical to ``grid``)."""

    def query(self, tau: float) -> List[TriangleRecord]:
        return self.query_block(tau).records()

    def query_block(self, tau: float) -> TriangleBlock:
        """The τ-durable triangles as columns: ``(anchor, q, s)`` ids
        with ``q < s``, lifespan starts and ends."""
        _check_tau(tau)
        return self._kernel(tau, (None, None))

    def _kernel(self, tau, params, anchors=None) -> TriangleBlock:
        lay = self.layout
        metric = self.tps.metric
        starts, ends, cell_of, centers = lay.starts, lay.ends, lay.cell_of, lay.centers
        link_thr = _link_threshold(self.resolution)
        parts: List[_Columns] = []
        for chunk in self._partners(tau, anchors):
            p, q = chunk.p, chunk.q
            # One anchor's partners span several (anchor, cell) runs but
            # are contiguous; pair them i<j within each anchor segment,
            # batched across ALL anchors.
            for iu, ju in _segment_pairs(p):
                a_ids, b_ids, anchors_pq = q[iu], q[ju], p[iu]
                # Linked-ball test on cell centers (same-cell pairs have
                # distance zero and always pass).
                dd = rowwise_dists(
                    metric, centers[cell_of[a_ids]], centers[cell_of[b_ids]]
                )
                ok = dd <= link_thr
                a_ids, b_ids, anchors_pq = a_ids[ok], b_ids[ok], anchors_pq[ok]
                parts.append((
                    np.column_stack(
                        (anchors_pq, np.minimum(a_ids, b_ids), np.maximum(a_ids, b_ids))
                    ),
                    starts[anchors_pq],
                    np.minimum(ends[anchors_pq], np.minimum(ends[a_ids], ends[b_ids])),
                ))
        return TriangleBlock(*_columns(parts, 3))

    def _anchors(self, block: TriangleBlock) -> np.ndarray:
        return block.ids[:, 0]

    def narrow(self, block: TriangleBlock, tau: float) -> TriangleBlock:
        """``query_block(tau)``, from this index's block at a τ₀ ≤ τ: the
        rows whose anchor and both partners still pass at τ."""
        _check_tau(tau)
        return block.take(np.flatnonzero(_passing(block.operands(self._tau_operands), tau)))

    def _tau_operands(self, block: TriangleBlock) -> tuple:
        lay = self.layout
        p, q, s = block.ids.T
        return (
            lay.ends[p] - lay.starts[p], lay.starts[p], np.minimum(lay.ends[q], lay.ends[s])
        )

    def count(self, tau: float) -> int:
        """How many records ``query(tau)`` reports, without building them.

        The run-size sum of :mod:`repro.core.counting`: an anchor whose
        (anchor, cell) runs hold ``c_1 … c_k`` partners reports
        ``Σ_j C(c_j, 2) + Σ_{i<j linked} c_i · c_j`` triangles.
        """
        _check_tau(tau)
        lay = self.layout
        metric = self.tps.metric
        link_thr = _link_threshold(self.resolution)
        total = 0
        for chunk in self._partners(tau):
            run_m, run_src = chunk.run_m, chunk.run_src
            total += int((run_m * (run_m - 1) // 2).sum())
            run_cell = chunk.ci[run_src]
            for i, j in _segment_pairs(chunk.ai[run_src]):
                linked = (
                    rowwise_dists(
                        metric, lay.centers[run_cell[i]], lay.centers[run_cell[j]]
                    )
                    <= link_thr
                )
                total += int((run_m[i] * run_m[j])[linked].sum())
        return total


# ----------------------------------------------------------------------
# SUM pairs
# ----------------------------------------------------------------------
def _segmented_cumsum(x: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Running sums restarting at every ``offsets`` boundary.

    Accumulates left to right within each segment, exactly as
    ``np.cumsum`` would on the segment alone (one vectorised step per
    position, so the loop runs as long as the longest segment).
    """
    out = x.copy()
    starts, lens = offsets[:-1], np.diff(offsets)
    for k in range(1, int(lens.max(initial=0))):
        idx = starts[lens > k] + k
        out[idx] += out[idx - 1]
    return out


def _profile_rows(
    lay: SoALayout, cells: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The coverage-profile rows of ``cells`` (ascending, none empty):
    each cell's row count, then every row's time, slope and integral,
    cell by cell.  Each is a sum over the cell's own events only."""
    counts = lay.counts[cells]
    members = _members(lay, cells)
    owner = np.repeat(cells, counts)
    k = len(members)
    cell = np.concatenate((owner, owner))
    events = np.concatenate((lay.starts[members], lay.ends[members]))
    deltas = np.concatenate((np.ones(k, np.int64), -np.ones(k, np.int64)))
    order = np.lexsort((deltas, events, cell))
    cell, ts = cell[order], events[order]
    # Each cell's deltas sum to zero, so one running sum over the cells
    # in turn is every cell's own covering count.
    cover = np.cumsum(deltas[order])
    first = np.ones(2 * k, dtype=bool)  # first event at its (cell, time)
    first[1:] = (cell[1:] != cell[:-1]) | (ts[1:] > ts[:-1])
    last = np.append(first[1:], True)
    times = ts[first]
    slopes = cover[last].astype(np.float64)
    rows = np.bincount(cell[first], minlength=lay.n_cells)[cells]
    offsets = np.zeros(len(cells) + 1, dtype=np.int64)
    np.cumsum(rows, out=offsets[1:])
    steps = np.zeros(len(times))
    steps[1:] = slopes[:-1] * np.diff(times)
    steps[offsets[:-1]] = 0.0
    return rows, times, slopes, _segmented_cumsum(steps, offsets)


class PackedProfiles:
    """Every cell's coverage profile, packed into CSR arrays.

    Cell ``g`` owns rows ``offsets[g]:offsets[g + 1]``: its distinct
    endpoint times ascending, the integrated coverage ``F`` at each, and
    the covering count up to the next time (0 after the last).  The
    arithmetic replicates :class:`~repro.temporal.sum_index.CoverageProfile`
    term by term — events by time with ends first on ties, one
    sequential running sum per cell — so every value is bit-identical.

    ``keys`` is ``cell × len(ranks) + rank``, where ``ranks`` holds all
    profile times sorted and distinct: strictly increasing integers, so
    one ``searchsorted`` locates a time in every requested cell at once.

    Like the layout, profiles are extensions: :meth:`empty` covers no
    cell and :meth:`extended` covers a later version's layout.
    """

    __slots__ = ("offsets", "times", "integral", "slopes", "ranks", "keys")

    @classmethod
    def empty(cls) -> "PackedProfiles":
        """The profiles of no cells."""
        prof = cls.__new__(cls)
        prof.offsets = np.zeros(1, dtype=np.int64)
        prof.times = prof.integral = prof.slopes = prof.ranks = np.empty(0)
        prof.keys = np.empty(0, dtype=np.int64)
        return prof

    def extended(self, lay: SoALayout, since: int) -> "PackedProfiles":
        """The profiles over ``lay``, given that these are the profiles
        of its first ``since`` points (DESIGN.md note 13).

        The rows of every cell that gained a point are recomputed; the
        other cells keep theirs, renumbered, and their keys shift by
        the ranks of the appended times below theirs.  Nothing here is
        written or shared.
        """
        gained, new, renumber = lay.growth(since)
        rows, times, slopes, integral = _profile_rows(lay, gained)
        # Each gained cell's index among these cells, or, for a new
        # one, the next cell's; ``lo:hi`` are its rows here.
        old = gained - (np.cumsum(new) - new)
        lo = self.offsets[old]
        hi = lo.copy()
        hi[~new] = self.offsets[old[~new] + 1]
        drop = ragged_arange(lo, hi - lo)
        at = np.repeat(lo - (np.cumsum(hi - lo) - (hi - lo)), rows)
        prof = PackedProfiles.__new__(PackedProfiles)
        prof.times = np.insert(np.delete(self.times, drop), at, times)
        prof.slopes = np.insert(np.delete(self.slopes, drop), at, slopes)
        prof.integral = np.insert(np.delete(self.integral, drop), at, integral)
        counts = np.zeros(lay.n_cells, dtype=np.int64)
        counts[renumber] = np.diff(self.offsets)
        counts[gained] = rows
        prof.offsets = np.zeros(lay.n_cells + 1, dtype=np.int64)
        np.cumsum(counts, out=prof.offsets[1:])
        # The appended endpoint times not yet ranked, merged in.
        ts = _dense_ranks(np.concatenate((lay.starts[since:], lay.ends[since:])))[0]
        pos, known = locate(self.ranks, ts)
        prof.ranks = np.insert(self.ranks, pos[~known], ts[~known])
        width, old_width = len(prof.ranks), len(self.ranks)
        shift = np.cumsum(np.bincount(pos[~known], minlength=old_width + 1))
        row_cell = np.repeat(np.arange(len(self.offsets) - 1), np.diff(self.offsets))
        rank = self.keys - row_cell * old_width
        keys = renumber[row_cell] * width + rank + shift[rank]
        prof.keys = np.insert(
            np.delete(keys, drop),
            at,
            np.repeat(gained, rows) * width + np.searchsorted(prof.ranks, times),
        )
        return prof

    def values(
        self, cells: np.ndarray, ts: np.ndarray, rank_right: np.ndarray
    ) -> np.ndarray:
        """``F_cell(t)`` per request, given ``searchsorted(ranks, t, "right")``.

        A cell's times ``≤ t`` are exactly those of rank ``< rank_right``,
        so the integer search lands where a per-cell float search would.
        """
        lo = self.offsets[cells]
        hi = self.offsets[cells + 1] - 1
        j = np.searchsorted(self.keys, cells * len(self.ranks) + rank_right) - 1
        j = np.minimum(np.maximum(j, lo), hi)
        out = self.integral[j] + self.slopes[j] * (ts - self.times[j])
        out = np.where(ts <= self.times[lo], 0.0, out)
        return np.where(ts >= self.times[hi], self.integral[hi], out)


class VectorSumPairIndex(_VectorIndex):
    """Algorithm 4 with batched partner *and* witness scoring.

    Witness sums always come from the packed coverage profiles (the two
    legacy SUM structures are output-identical by design), so the cache
    identity carries ``"profile"`` whatever the query asked for.
    """

    def _build(self, tps, epsilon, base) -> None:
        super()._build(tps, epsilon, base)
        if base is None:
            self._profiles = PackedProfiles.empty().extended(self.layout, 0)
        else:
            self._profiles = base._profiles.extended(self.layout, base.tps.n)

    # ------------------------------------------------------------------
    def query(self, tau: float) -> List[PairRecord]:
        return self.query_block(tau).records()

    def query_block(self, tau: float) -> PairBlock:
        """The SUM-durable pairs as ``p``, ``q``, ``score`` columns."""
        _check_tau(tau)
        return self._kernel(tau, (None, None))

    def _kernel(self, tau, params, anchors=None) -> PairBlock:
        lay = self.layout
        metric = self.tps.metric
        res = self.resolution
        link_thr = _link_threshold(res)
        prof = self._profiles
        out: List[_Columns] = []
        for chunk in self._partners(tau, anchors):
            pp, qq, run_start, run_m = chunk.p, chunk.q, chunk.run_start, chunk.run_m
            n_pairs = len(pp)
            sp_pair = lay.starts[pp]
            his = np.minimum(lay.ends[pp], lay.ends[qq])
            window = his - sp_pair
            run_cell = chunk.ci[chunk.run_src]
            wit_run, wit_cell = _witness_pools(lay, metric, chunk, link_thr)
            # One request per (witness cell, pair).  Requests run
            # witness-major within each run, so every pair meets its
            # witness cells in ascending order and ``np.bincount``
            # (sequential in input order) adds them up exactly like the
            # legacy scalar loop.
            req_m = run_m[wit_run]
            req_pair = ragged_arange(run_start[wit_run], req_m)
            req_cell = np.repeat(wit_cell, req_m)
            hi_rank = np.searchsorted(prof.ranks, his, side="right")
            lo_rank = np.searchsorted(prof.ranks, sp_pair, side="right")
            contrib = prof.values(
                req_cell, his[req_pair], hi_rank[req_pair]
            ) - prof.values(req_cell, sp_pair[req_pair], lo_rank[req_pair])
            total = np.bincount(req_pair, weights=contrib, minlength=n_pairs)
            # Discount the self-contributions of q (always counted) and
            # of p when its own cell is in the witness pool.
            total = total - window
            p_counted = (
                rowwise_dists(
                    metric,
                    lay.centers[run_cell],
                    lay.centers[lay.cell_of[pp[run_start]]],
                )
                <= link_thr
            )
            total = np.where(np.repeat(p_counted, run_m), total - window, total)
            keep = _until_first_failure(total >= tau, np.repeat(run_start, run_m))
            out.append((pp[keep], qq[keep], total[keep]))
        return PairBlock(*_columns(out))

    def _anchors(self, block: PairBlock) -> np.ndarray:
        return block.p

    def _can_change(self, p, u, tau) -> np.ndarray:
        # A point that starts at or after E_p leaves every F_g(t) with
        # t ≤ E_p, so every score of p, bit-identical (DESIGN.md note 12).
        return self.layout.starts[u] < self.layout.ends[p]

    def narrow(self, block: PairBlock, tau: float) -> PairBlock:
        """``query_block(tau)``, from this index's block at a τ₀ ≤ τ."""
        _check_tau(tau)
        return _narrow_pairs(self.layout, block, tau, block.score >= tau)


def _until_first_failure(ok: np.ndarray, head: np.ndarray) -> np.ndarray:
    """Positions reported by Algorithm 4/8's early break, given each
    position's run's first position ``head``.

    Partners are in shrinking-window order within a run, and the first
    failing partner ends the run: keep each run's prefix before it, the
    positions whose last failure at or before them lies before their run.
    """
    failed = np.where(ok, -1, np.arange(len(ok)))
    return np.flatnonzero(np.maximum.accumulate(failed) < head)


def _narrow_pairs(
    lay: SoALayout, block: PairBlock, tau: float, score_ok: np.ndarray
) -> PairBlock:
    """A SUM or UNION block narrowed to τ: the early break re-run on
    the block's runs, a run being a maximal stretch of equal ``(p, cell
    of q)``.  A run's partners at τ are a prefix of its partners at the
    block's τ₀, so each run keeps a prefix of its rows."""
    operands = block.operands(lambda block: _pair_operands(lay, block))
    ok = _passing(operands, tau) & score_ok
    return block.take(_until_first_failure(ok, operands[3]))


def _pair_operands(lay: SoALayout, block: PairBlock) -> tuple:
    """A pair block's τ-test operands (:func:`_passing`), then each
    row's run's first row."""
    p, q = block.p, block.q
    cell = lay.cell_of[q]
    new = np.ones(len(p), dtype=bool)
    new[1:] = (p[1:] != p[:-1]) | (cell[1:] != cell[:-1])
    head = np.flatnonzero(new)[np.cumsum(new) - 1]
    return lay.ends[p] - lay.starts[p], lay.starts[p], lay.ends[q], head


# ----------------------------------------------------------------------
# UNION pairs
# ----------------------------------------------------------------------
def _best_witnesses(
    lay: SoALayout,
    pool: np.ndarray,
    pool_cell: np.ndarray,
    off: np.ndarray,
    cnt: np.ndarray,
    excl: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``ComputeMaxUnionD`` for a batch of segments ``[a_s, b_s]``.

    Segment ``s`` draws on ``pool[off_s : off_s + cnt_s]`` (its witness
    cells' members, cells ascending, ids ascending within a cell) minus
    the id ``excl_s``.  Each segment gets the member
    :meth:`~repro.temporal.max_overlap.MaxOverlapIndex.best_overlap` and
    the legacy cell loop would pick: the largest overlap; among ties the
    first witness cell; within it the stab-start candidate over the
    stab-end one over a contained one — the latest end, the earliest
    start, and then the smallest id deciding within each (DESIGN.md
    note 8).  Returns ``(segments, overlap, start, end)`` for the
    segments that have a witness of positive overlap.
    """
    seg = np.repeat(np.arange(len(a)), cnt)
    pos = ragged_arange(off, cnt)
    u = pool[pos]
    u_lo, u_hi = lay.starts[u], lay.ends[u]
    sa, sb = a[seg], b[seg]
    # One formula for all three candidate kinds: for a member stabbing
    # a it is min(end, b) − a, for one stabbing b it is b − max(start, a),
    # for a contained one end − start.
    ov = np.minimum(u_hi, sb) - np.maximum(u_lo, sa)
    ok = np.flatnonzero((ov > 0) & (u != excl[seg]))
    seg, pos, ov = seg[ok], pos[ok], ov[ok]
    u_lo, u_hi, sa, sb = u_lo[ok], u_hi[ok], sa[ok], sb[ok]
    if not len(seg):
        return seg, ov, u_lo, u_hi
    new = np.diff(seg, prepend=-1) != 0
    heads = np.flatnonzero(new)
    grp = np.cumsum(new) - 1
    idx = np.arange(len(seg))

    def first_of(mask):
        return np.minimum.reduceat(np.where(mask, idx, len(idx)), heads)

    # The largest overlap, then the first cell holding it.
    top = ov == np.maximum.reduceat(ov, heads)[grp]
    top &= pool_cell[pos] == pool_cell[pos[first_of(top)]][grp]
    # Stab-start (0) over stab-end (1) over contained (2).
    kind = np.where(u_lo <= sa, 0, np.where(u_hi >= sb, 1, 2))
    top &= kind == np.minimum.reduceat(np.where(top, kind, 3), heads)[grp]
    # The latest end, or the earliest start; ids ascend within a cell, so
    # the first member left has the smallest id.
    tie = np.where(kind == 0, -u_hi, np.where(kind == 1, u_lo, 0.0))
    top &= tie == np.minimum.reduceat(np.where(top, tie, np.inf), heads)[grp]
    pick = first_of(top)
    return seg[heads], ov[pick], u_lo[pick], u_hi[pick]


def _greedy_cover(
    lay: SoALayout,
    pool: np.ndarray,
    pool_cell: np.ndarray,
    off: np.ndarray,
    cnt: np.ndarray,
    excl: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    kappa: int,
) -> np.ndarray:
    """:meth:`~repro.core.aggregate.UnionPairIndex.greedy_union` for a
    batch of windows ``[lo_i, hi_i]`` at once.

    Every window keeps its heap as one row of slots, one column per
    push in push order, so ``argmax``'s first-maximum rule is the legacy
    ``(−overlap, push counter)`` heap order.  Each round pops every
    row's best slot, adds its overlap in pop order, and scores both
    remainders of every popped segment in one :func:`_best_witnesses`
    batch.
    """
    # Popped pieces are disjoint and end at the window's or a witness's
    # endpoints, so a window with c witnesses pops at most 2c + 1 times.
    kappa = min(kappa, 2 * int(cnt.max(initial=0)) + 1)
    n = len(lo)
    covered = np.zeros(n)
    heap = np.full((n, 1 + 2 * kappa), -np.inf)
    seg_lo, seg_hi = np.zeros(heap.shape), np.zeros(heap.shape)
    wit_lo, wit_hi = np.zeros(heap.shape), np.zeros(heap.shape)

    def push(rows, cols, a, b):
        live = b > a
        rows, cols, a, b = rows[live], cols[live], a[live], b[live]
        s, ov, w_lo, w_hi = _best_witnesses(
            lay, pool, pool_cell, off[rows], cnt[rows], excl[rows], a, b
        )
        r, c = rows[s], cols[s]
        heap[r, c], seg_lo[r, c], seg_hi[r, c] = ov, a[s], b[s]
        wit_lo[r, c], wit_hi[r, c] = w_lo, w_hi

    rows = np.arange(n)
    push(rows, np.zeros(n, dtype=np.int64), lo, hi)
    for k in range(kappa):
        rows = np.flatnonzero(heap.max(axis=1) > -np.inf)
        if not len(rows):
            break
        col = heap[rows].argmax(axis=1)
        covered[rows] += heap[rows, col]
        heap[rows, col] = -np.inf
        a, b = seg_lo[rows, col], seg_hi[rows, col]
        w_lo, w_hi = wit_lo[rows, col], wit_hi[rows, col]
        m = len(rows)
        push(
            np.concatenate((rows, rows)),
            np.repeat(np.array([1 + 2 * k, 2 + 2 * k]), m),
            np.concatenate((a, np.maximum(a, w_hi))),
            np.concatenate((np.minimum(b, w_lo), b)),
        )
    return covered


class VectorUnionPairIndex(_VectorIndex):
    """Algorithm 8 with batched candidates, witness pools and greedy."""

    def query(self, tau: float, kappa: int) -> List[PairRecord]:
        return self.query_block(tau, kappa).records()

    def query_block(self, tau: float, kappa: int) -> PairBlock:
        """The UNION-durable pairs as ``p``, ``q``, ``score`` columns."""
        _check_tau(tau)
        if not (isinstance(kappa, (int, np.integer)) and kappa >= 1):
            raise ValidationError(f"kappa must be a positive integer, got {kappa!r}")
        return self._kernel(tau, (int(kappa), None))

    def _kernel(self, tau, params, anchors=None) -> PairBlock:
        kappa = params[0]
        lay = self.layout
        metric = self.tps.metric
        res = self.resolution
        link_thr = _link_threshold(res)
        target = UnionPairIndex.GREEDY_FACTOR * tau
        out: List[_Columns] = []
        for chunk in self._partners(tau, anchors):
            pp, qq, run_start, run_m = chunk.p, chunk.q, chunk.run_start, chunk.run_m
            n_runs = len(run_start)
            sp = lay.starts[pp]
            his = np.minimum(lay.ends[pp], lay.ends[qq])
            wit_run, wit_cell = _witness_pools(lay, metric, chunk, link_thr)
            # Each run's witness pool: its witness cells' members in the
            # legacy order (cells ascending, ids ascending), less the
            # anchor and any member that cannot overlap the run's widest
            # window (the first partner's).
            wcount = lay.counts[wit_cell]
            pool = lay.order_id[ragged_arange(lay.offsets[wit_cell], wcount)]
            pool_run = np.repeat(wit_run, wcount)
            pool_cell = np.repeat(wit_cell, wcount)
            run_anchor = pp[run_start]
            usable = (
                (pool != run_anchor[pool_run])
                & (lay.ends[pool] > lay.starts[run_anchor][pool_run])
                & (lay.starts[pool] < his[run_start][pool_run])
            )
            pool, pool_run, pool_cell = pool[usable], pool_run[usable], pool_cell[usable]
            pool_len = np.bincount(pool_run, minlength=n_runs)
            pool_off = np.cumsum(pool_len) - pool_len
            pair_run = np.repeat(np.arange(n_runs), run_m)
            off, cnt = pool_off[pair_run], pool_len[pair_run]
            covered = np.empty(len(pp))
            # Bound the (segment × witness member) expansion and the heap
            # slots of one greedy batch.
            slots = 1 + 2 * np.minimum(kappa, 2 * cnt + 1)
            for i0, i1 in _slices(2 * cnt + slots, BLOCK_ELEMS):
                covered[i0:i1] = _greedy_cover(
                    lay, pool, pool_cell, off[i0:i1], cnt[i0:i1], qq[i0:i1],
                    sp[i0:i1], his[i0:i1], kappa,
                )
            keep = _until_first_failure(covered >= target, np.repeat(run_start, run_m))
            out.append((pp[keep], qq[keep], covered[keep]))
        return PairBlock(*_columns(out))

    def _anchors(self, block: PairBlock) -> np.ndarray:
        return block.p

    def _can_change(self, p, u, tau) -> np.ndarray:
        # A partner, or a usable witness; the kernel drops any other
        # point from the pools before it counts them.
        lay = self.layout
        return (lay.ends[u] > lay.starts[p]) & (lay.starts[u] < lay.ends[p])

    def narrow(self, block: PairBlock, tau: float) -> PairBlock:
        """``query_block(tau, κ)``, from this index's block at a τ₀ ≤ τ
        and the same κ."""
        _check_tau(tau)
        target = UnionPairIndex.GREEDY_FACTOR * tau
        return _narrow_pairs(self.layout, block, tau, block.score >= target)


# ----------------------------------------------------------------------
# Patterns
# ----------------------------------------------------------------------
class VectorPatternIndex(_VectorIndex, PatternIndex):
    """Appendix D reporters over the SoA layout.

    Cliques are batched end to end (:meth:`clique_block`).  Paths and
    stars keep the per-anchor recursion of :class:`PatternIndex` (it is
    output-bound) but read their anchor contexts from one batched
    ``durableBallQ`` sweep per call, carried by a per-call copy of the
    index, and their link tables are one small distance matrix instead
    of O(k²) scalar ``linked()`` calls.
    """

    #: ``anchor -> (cells, counts, partner ids)`` for one path/star
    #: call; only the per-call copies made by :meth:`_for_call` have it.
    _call_map: Dict[int, tuple]

    def _build(self, tps, epsilon, base) -> None:
        super()._build(tps, epsilon, base)
        self._start_keys = _start_keys(
            self.layout, None if base is None else base._start_keys
        )

    # ------------------------------------------------------------------
    # Cliques
    # ------------------------------------------------------------------
    def iter_cliques(self, m: int, tau: float) -> Iterator[PatternRecord]:
        yield from self.clique_block(m, tau)

    def clique_block(self, m: int, tau: float) -> CliqueBlock:
        """τ-durable ``m``-cliques as columns, in the inherited
        recursion's order.

        A clique is an anchor plus ``m − 1`` of its partners whose balls
        are pairwise linked and linked to the anchor's ball.  They are
        enumerated level-wise over the partners in ``(cell, id)`` order
        and sorted by the recursion's key: anchor, then the (ball, take)
        signature of the ball multiset, then the member ids ball by ball
        (DESIGN.md note 8).
        """
        self._check(m, tau)
        return self._kernel(tau, (None, m))

    def _kernel(self, tau, params, anchors=None) -> CliqueBlock:
        m = params[1]
        lay = self.layout
        metric = self.tps.metric
        link_thr = _link_threshold(self.resolution)
        parts: List[_Columns] = []
        for chunk in self._partners(tau, anchors):
            p, q, run_m = chunk.p, chunk.q, chunk.run_m
            run_cell = chunk.ci[chunk.run_src]
            linked = np.repeat(
                rowwise_dists(
                    metric,
                    lay.centers[run_cell],
                    lay.centers[lay.cell_of[p[chunk.run_start]]],
                )
                <= link_thr,
                run_m,
            )
            run_of = np.repeat(np.arange(len(run_m)), run_m)[linked]
            p, q, cell = p[linked], q[linked], run_cell[run_of]
            # Runs ascend in (anchor, cell); add id order within a run.
            order = np.lexsort((q, run_of))
            parts.append(
                self._cliques(p[order], q[order], cell[order], m, link_thr)
            )
        return CliqueBlock(*_columns(parts, m))

    def _anchors(self, block: CliqueBlock) -> np.ndarray:
        return _clique_anchors(self.layout, block.ids)[0]

    def narrow(self, block: CliqueBlock, tau: float) -> CliqueBlock:
        """``clique_block(m, tau)``, from this index's block at a τ₀ ≤ τ
        and the same ``m``."""
        _check_tau(tau)
        return block.take(np.flatnonzero(_passing(block.operands(self._tau_operands), tau)))

    def _tau_operands(self, block: CliqueBlock) -> tuple:
        # The anchor is the member latest in (S, id) order; the others
        # are its partners.
        lay = self.layout
        members = block.ids
        p, col = _clique_anchors(lay, members)
        ends = lay.ends[members]
        ends[np.arange(len(members)), col] = np.inf
        return lay.ends[p] - lay.starts[p], lay.starts[p], ends.min(axis=1)

    def _cliques(
        self, p: np.ndarray, q: np.ndarray, cell: np.ndarray, m: int, link_thr: float
    ) -> _Columns:
        """One chunk's cliques: sorted member rows, lifespan starts and
        ends, in the recursion's order."""
        lay = self.layout
        metric = self.tps.metric
        bounds = np.flatnonzero(np.diff(p, prepend=-1, append=-1))
        seg_end = np.repeat(bounds[1:], np.diff(bounds))
        # Level-wise join: extend each partial clique (positions in
        # canonical order) by every later partner of the same anchor
        # whose ball is linked to all members' balls.
        tup = np.arange(len(q))[:, None]
        for _ in range(m - 2):
            last = tup[:, -1]
            grow = seg_end[last] - last - 1
            parts = []
            for i0, i1 in _slices(grow, BLOCK_ELEMS):
                rows = np.repeat(np.arange(i0, i1), grow[i0:i1])
                nxt = ragged_arange(last[i0:i1] + 1, grow[i0:i1])
                ok = np.ones(len(nxt), dtype=bool)
                for j in range(tup.shape[1]):
                    ok &= rowwise_dists(
                        metric,
                        lay.centers[cell[nxt]],
                        lay.centers[cell[tup[rows, j]]],
                    ) <= link_thr
                parts.append(np.column_stack((tup[rows[ok]], nxt[ok])))
            tup = np.concatenate(parts) if parts else tup[:0]
        if not len(tup):
            return _columns([], m)
        balls, ids, anchors = cell[tup], q[tup], p[tup[:, 0]]
        # (ball, take) signature: the run-length encoding of each row's
        # ball sequence, padded (no signature is a prefix of another).
        rows = np.arange(len(tup))
        fresh = np.ones(balls.shape, dtype=bool)
        fresh[:, 1:] = balls[:, 1:] != balls[:, :-1]
        slot = np.cumsum(fresh, axis=1) - 1
        sig_ball = np.full(balls.shape, -1, dtype=np.int64)
        sig_take = np.zeros(balls.shape, dtype=np.int64)
        for j in range(balls.shape[1]):
            sig_ball[rows, slot[:, j]] = balls[:, j]
            sig_take[rows, slot[:, j]] += 1
        keys = [ids[:, j] for j in reversed(range(ids.shape[1]))]
        for j in reversed(range(balls.shape[1])):
            keys += [sig_take[:, j], sig_ball[:, j]]
        order = np.lexsort(keys + [anchors])
        members = np.sort(np.column_stack((anchors, ids))[order], axis=1)
        # intersect_many over the sorted members, comparison for
        # comparison.
        lo, hi = lay.starts[members[:, 0]], lay.ends[members[:, 0]]
        for j in range(1, m):
            s, e = lay.starts[members[:, j]], lay.ends[members[:, j]]
            lo = np.where(s > lo, s, lo)
            hi = np.where(e < hi, e, hi)
        return members, lo, hi

    # ------------------------------------------------------------------
    # Paths and stars: the inherited recursion over per-call contexts
    # ------------------------------------------------------------------
    def iter_paths(self, m: int, tau: float) -> Iterator[PatternRecord]:
        self._check(m, tau)
        view = self._for_call(tau, float(m - 1))
        for p in view._call_map:
            yield from view._paths_for_anchor(p, m, tau)

    def iter_stars(self, m: int, tau: float) -> Iterator[PatternRecord]:
        self._check(m, tau)
        view = self._for_call(tau, 2.0)
        for p in view._call_map:
            yield from view._stars_for_anchor(p, m, tau)

    def star_summaries(self, m: int, tau: float) -> List[Tuple[int, List[int]]]:
        self._check(m, tau)
        return PatternIndex.star_summaries(self._for_call(tau, 2.0), m, tau)

    def _for_call(self, tau: float, radius: float) -> "VectorPatternIndex":
        """A shallow copy of this index carrying one call's contexts, so
        the map lives exactly as long as the call and the index itself
        is never written."""
        view = copy.copy(self)
        view._call_map = self._context_map(tau, radius)
        return view

    def _context_map(self, tau: float, radius: float) -> Dict[int, tuple]:
        """The contexts of every eligible anchor with partners, in anchor
        order, from one batched ``durableBallQ`` sweep.  Partners within
        a cell come in the grid reference's order
        (:meth:`_dominance_order`)."""
        ctx: Dict[int, tuple] = {}
        lay = self.layout
        anchors = _eligible_anchor_array(lay, tau)
        ai, ci = _candidate_pairs(lay, self.tps.metric, anchors, radius, self.resolution)
        for chunk in _expanded(lay, anchors, ai, ci, tau):
            run_start, run_m = chunk.run_start, chunk.run_m
            run_cell = chunk.ci[chunk.run_src]
            qq = chunk.q[self._dominance_order(chunk.p, chunk.q, run_m, run_cell)]
            run_row = chunk.ai[chunk.run_src]
            rb = np.concatenate(
                ([0], np.flatnonzero(np.diff(run_row)) + 1, [len(run_row)])
            )
            for g0, g1 in zip(rb[:-1], rb[1:]):
                p = int(anchors[run_row[g0]])
                q0 = run_start[g0]
                q1 = run_start[g1 - 1] + run_m[g1 - 1]
                ctx[p] = (run_cell[g0:g1], run_m[g0:g1], qq[q0:q1])
        return ctx

    def _dominance_order(
        self, pp: np.ndarray, qq: np.ndarray, run_m: np.ndarray, run_cell: np.ndarray
    ) -> np.ndarray:
        """Permutation of the partners into the grid reference's order.

        The grid's per-cell :class:`~repro.temporal.dominance.DominanceIndex`
        splits the ``(start, id)``-prefix ``[0, t)`` below the anchor into
        aligned power-of-two blocks and reports them smallest first, each
        in ``(end desc, id asc)`` order.  A member at prefix position
        ``pos`` lies in the block of the highest bit where ``pos`` and
        ``t`` differ, so a stable sort of each run (already in ``(end
        desc, id asc)`` order) by that bit reproduces the reference.
        """
        lay = self.layout
        keys, ranks = self._start_keys
        cells = np.repeat(run_cell, run_m)
        base = lay.offsets[cells]
        t = np.searchsorted(keys, cells * lay.n + ranks[pp]) - base
        pos = np.searchsorted(keys, cells * lay.n + ranks[qq]) - base
        block = np.frexp((pos ^ t).astype(np.float64))[1]
        return np.lexsort((block, np.repeat(np.arange(len(run_m)), run_m)))

    def _anchor_context(self, anchor, tau, radius):
        own = int(self.layout.cell_of[anchor])
        entry = self._call_map.get(int(anchor))
        if entry is None:
            return [], {int(anchor): 0}, np.asarray([own])
        cells, counts, qids = entry
        candidates = qids.tolist()
        ball_of = dict(
            zip(candidates, np.repeat(np.arange(len(cells)), counts).tolist())
        )
        ball_of[int(anchor)] = len(cells)
        return candidates, ball_of, np.append(cells, own)

    def _link_table(self, cells):
        # The "groups" here are cell indices: one small distance matrix
        # over their centers replaces O(k²) scalar linked() calls, with
        # the legacy threshold arithmetic.
        centers = self.layout.centers[cells]
        table = pairwise_dists(self.tps.metric, centers, centers) <= _link_threshold(
            self.resolution
        )
        np.fill_diagonal(table, True)
        return table


def _clique_anchors(
    lay: SoALayout, members: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Each clique row's anchor and its column: the member latest in
    ``(start, id)`` order, which is the last one of the latest start,
    members ascending by id."""
    col = np.zeros(len(members), dtype=np.int64)
    latest = lay.starts[members[:, 0]]
    for j in range(1, members.shape[1]):
        start = lay.starts[members[:, j]]
        later = start >= latest
        col[later] = j
        latest = np.where(later, start, latest)
    return members[np.arange(len(members)), col], col


def _start_keys(
    lay: SoALayout, base: Optional[Tuple[np.ndarray, np.ndarray]] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """``(keys, ranks)``: every point's rank in global ``(start, id)``
    order, and ``cell × n + rank`` sorted — each cell's members in
    ``(start, id)`` order, addressable by one ``searchsorted``.

    Given ``base``, the pair of the layout of the first ``len(ranks)``
    points, the appended points are merged in: an appended point follows
    every earlier point that starts no later (its id is larger), the
    earlier points' ranks shift by the appended points ahead of them,
    and their keys keep their order (DESIGN.md note 13).
    """
    if base is None:
        base = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    keys, ranks = base
    m, n = len(ranks), lay.n
    ids = np.arange(m, n)
    order = np.lexsort((ids, lay.starts[m:]))
    by_rank = np.empty(m)
    by_rank[ranks] = lay.starts[:m]
    ahead = np.searchsorted(by_rank, lay.starts[m:][order], side="right")
    shift = np.cumsum(np.bincount(ahead, minlength=m + 1))
    new_ranks = np.empty(n, dtype=np.int64)
    new_ranks[:m] = ranks + shift[ranks]
    new_ranks[ids[order]] = ahead + np.arange(len(ids))
    cell, rank = np.divmod(keys, max(m, 1))
    kept = lay.growth(m)[2][cell] * n + rank + shift[rank]
    fresh = np.sort(lay.cell_of[m:] * n + new_ranks[m:])
    return np.insert(kept, np.searchsorted(kept, fresh), fresh), new_ranks
