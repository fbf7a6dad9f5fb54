"""Structure-of-arrays snapshots and grid-cell layouts (the ``vector`` backend).

The legacy backends walk per-point object graphs; the vector backend
flattens everything the solvers touch into contiguous numpy arrays once
per ``(dataset version, cell side)`` and answers every query with
batched kernels over that layout:

* :class:`SoALayout` — the SoA snapshot of a
  :class:`~repro.types.TemporalPointSet`: ``(n, d)`` float64 coords,
  ``(n,)`` start/end arrays, plus a CSR grid-cell layout (cells in
  lexicographic key order — the exact order a fresh
  :class:`~repro.quadtree.tree.GridDecomposition` sorts its cells in).
  Within each cell two permutations are kept: member-id ascending (the
  canonical ``member_ids`` order) and ``(end desc, id asc)`` (the
  partner-enumeration order of ``RunSet.iter_desc_by_end``).  A layout
  is built by extending another: :meth:`SoALayout.extended` inserts a
  later version's appended points into the previous version's arrays
  (a fresh build extends :meth:`SoALayout.empty`), and the result
  equals a fresh build's (DESIGN.md note 13).
* :func:`memoised` — one memo per point set, freed with the version:
  structures are built under the point set's lock, so racing first
  builds of one version build each once.  :func:`layout_for` keeps the
  layout of one cell side there, so the four query families of one
  dataset version and ε build or extend it once.
* :class:`CandidateMap` — every point's candidate cells as CSR rows,
  memoised on the version beside its layout by the index that builds
  it, so a query gathers the rows of its eligible anchors; a later
  version's map extends the previous one's (and its cell search), and
  lists the appended points in reach of each old anchor.
* blocked distance kernels (:func:`pairwise_dists`,
  :func:`rowwise_dists`) reproducing the exact per-metric arithmetic of
  :mod:`repro.geometry.metrics`.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Optional, Tuple

import numpy as np

from ...geometry.metrics import Metric
from ...types import TemporalPointSet

__all__ = [
    "CandidateMap",
    "SoALayout",
    "layout_for",
    "memoised",
    "pairwise_dists",
    "rowwise_dists",
    "ragged_arange",
    "locate",
]

#: Soft cap on elements of any one broadcast distance matrix; blocks are
#: sized so ``rows × cols ≤ BLOCK_ELEMS`` (× dim for the diff tensor).
BLOCK_ELEMS = 1 << 21


def ragged_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(s, s + c)`` for parallel starts/counts arrays."""
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    cum = np.cumsum(counts) - counts
    return (
        np.arange(total, dtype=np.int64)
        - np.repeat(cum, counts)
        + np.repeat(np.asarray(starts, dtype=np.int64), counts)
    )


def locate(values: np.ndarray, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each ``x``'s index in ``values`` (ascending, distinct), and
    whether it is there."""
    at = np.searchsorted(values, x)
    there = at < len(values)
    there[there] = values[at[there]] == x[there]
    return at, there


# ----------------------------------------------------------------------
# Distance kernels
# ----------------------------------------------------------------------
def pairwise_dists(metric: Metric, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(len(a), len(b))`` distance matrix, same arithmetic as ``metric.dists``."""
    diff = np.abs(a[:, None, :] - b[None, :, :])
    alpha = getattr(metric, "alpha", None)
    if alpha is None:  # Chebyshev
        return diff.max(axis=-1)
    if alpha == 2.0:
        return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    if alpha == 1.0:
        return diff.sum(axis=-1)
    return (diff**alpha).sum(axis=-1) ** (1.0 / alpha)


def rowwise_dists(metric: Metric, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances between corresponding rows of equal-shape ``a`` and ``b``."""
    diff = np.abs(a - b)
    alpha = getattr(metric, "alpha", None)
    if alpha is None:
        return diff.max(axis=-1)
    if alpha == 2.0:
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))
    if alpha == 1.0:
        return diff.sum(axis=-1)
    return (diff**alpha).sum(axis=-1) ** (1.0 / alpha)


# ----------------------------------------------------------------------
# Layout
# ----------------------------------------------------------------------
class SoALayout:
    """SoA snapshot of one point set under one grid resolution.

    Every layout is an extension: :meth:`empty` has no points, and
    :meth:`extended` appends the points a later version of the dataset
    holds beyond this one's, so a fresh build is the empty layout
    extended by every point (DESIGN.md note 13).
    """

    __slots__ = (
        "points",
        "starts",
        "ends",
        "side",
        "n",
        "dim",
        "n_cells",
        "cell_keys",
        "cell_of",
        "centers",
        "counts",
        "offsets",
        "order_id",
        "order_end",
    )

    @classmethod
    def empty(cls, dim: int, side: float) -> "SoALayout":
        """The layout of no points at this resolution."""
        lay = cls.__new__(cls)
        lay.points = np.empty((0, dim))
        lay.starts = lay.ends = np.empty(0)
        lay.side = float(side)
        lay.n, lay.dim, lay.n_cells = 0, dim, 0
        lay.cell_keys = np.empty((0, dim), dtype=np.int64)
        lay.centers = np.empty((0, dim))
        lay.cell_of = lay.counts = lay.order_id = lay.order_end = np.empty(
            0, dtype=np.int64
        )
        lay.offsets = np.zeros(1, dtype=np.int64)
        return lay

    def extended(self, tps: TemporalPointSet) -> "SoALayout":
        """The layout of ``tps``, whose first :attr:`n` points are this
        layout's, built from this one by insertion and gather.

        Cells are absolute, so every cell here keeps its key, centre and
        order there; the appended points' new cells are inserted among
        them, which renumbers the cells monotonically.  Appended ids
        exceed every id here, so they close their cell's id order, and
        each takes its ``(end desc, id asc)`` slot by one search of its
        own cell.  Nothing of this layout is written or shared.
        """
        m, side, dim = self.n, self.side, self.dim
        lay = SoALayout.__new__(SoALayout)
        lay.points = np.ascontiguousarray(tps.points, dtype=np.float64)
        lay.starts = np.ascontiguousarray(tps.starts, dtype=np.float64)
        lay.ends = np.ascontiguousarray(tps.ends, dtype=np.float64)
        lay.side = side
        lay.n, lay.dim = lay.points.shape
        # Keys viewed as one structured row each compare lexicographically,
        # field by field, which is the cells' order.
        row = np.dtype([(f"k{i}", np.int64) for i in range(dim)])
        old_keys = self.cell_keys.view(row).ravel()
        # The appended points' cells, distinct and in key order, each
        # located among this layout's cells by one search.
        coords = np.floor(lay.points[m:] / side).astype(np.int64)
        keys, inverse = np.unique(coords.view(row).ravel(), return_inverse=True)
        at, found = locate(old_keys, keys)
        ins = at[~found]
        added = ins + np.arange(len(ins))
        lay.n_cells = self.n_cells + len(ins)
        renumber = np.delete(np.arange(lay.n_cells), added)
        slot = np.empty(len(keys), dtype=np.int64)
        slot[found] = renumber[at[found]]
        slot[~found] = added
        cell = slot[inverse]
        grown = np.insert(old_keys, ins, keys[~found])
        lay.cell_keys = grown.view(np.int64).reshape(lay.n_cells, dim)
        # Same arithmetic as the legacy grid's per-cell center.
        lay.centers = (lay.cell_keys.astype(np.float64) + 0.5) * side
        lay.cell_of = np.concatenate((renumber[self.cell_of], cell))
        lay.counts = np.insert(self.counts, ins, 0) + np.bincount(
            cell, minlength=lay.n_cells
        )
        lay.offsets = np.zeros(lay.n_cells + 1, dtype=np.int64)
        np.cumsum(lay.counts, out=lay.offsets[1:])
        # Where each appended point's cell sits in this layout's CSR
        # arrays: ``lo:hi`` holds its members here (none for a new cell).
        lo = self.offsets[at][inverse]
        hi = self.offsets[at + found][inverse]
        ids = np.arange(m, lay.n)
        # Per-cell members, ids ascending (CSR over ``offsets``).
        by_id = np.argsort(cell, kind="stable")
        lay.order_id = np.insert(self.order_id, hi[by_id], ids[by_id])
        # Per-cell (end desc, id asc) permutation — the partner order of
        # RunSet.iter_desc_by_end.  An appended point follows every
        # member of its cell that ends no earlier.
        ends = lay.ends[m:]
        owner = np.repeat(np.arange(len(ids)), hi - lo)
        members = self.order_end[ragged_arange(lo, hi - lo)]
        ahead = np.bincount(
            owner[self.ends[members] >= ends[owner]], minlength=len(ids)
        )
        by_end = np.lexsort((ids, -ends, cell))
        lay.order_end = np.insert(self.order_end, (lo + ahead)[by_end], ids[by_end])
        return lay

    def growth(self, since: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """What the points from ``since`` on brought, given that the
        first ``since`` points had a layout of their own:
        ``(gained, new, renumber)`` — the cells that hold one of them,
        ascending; which of those hold nothing else (a mask over
        ``gained``); and the index here of each cell of that layout."""
        # Members run ids ascending: a cell's first member is its
        # oldest, its last the newest.
        first = self.order_id[self.offsets[:-1]] >= since
        gained = np.flatnonzero(self.order_id[self.offsets[1:] - 1] >= since)
        return gained, first[gained], np.flatnonzero(~first)


class CandidateMap:
    """Every point's candidate cells, as CSR rows.

    Point ``i`` owns ``cells[indptr[i] : indptr[i + 1]]``, ascending:
    the generator's ``(anchor, cell)`` pairs over all points (anchor
    positions are then point ids); :meth:`rows` gathers the pairs the
    generator returns for any anchor subset (DESIGN.md note 10).
    ``search`` is the occupied-cell search the rows were found with,
    which the next version's map extends.

    A map over a later version extends the map of an earlier one
    (DESIGN.md note 13): ``since`` is that version's point count (0 for
    a map built from scratch) and ``rerun`` the number of rows the
    generator computed.  ``gains`` are the pairs ``(p, u)`` of an old
    point ``p`` and an appended point ``u`` in one of the cells of
    ``p``'s row, ``p`` ascending; ``touched`` holds those ``p`` and the
    appended ids, the anchors whose rows the append can change
    (ascending; both are empty when ``since`` is 0).
    """

    __slots__ = ("indptr", "cells", "search", "since", "rerun", "gains", "touched")

    def __init__(
        self,
        indptr: np.ndarray,
        cells: np.ndarray,
        search: Any = None,
        since: int = 0,
        rerun: int = 0,
        gains: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        touched: Optional[np.ndarray] = None,
    ) -> None:
        empty = np.empty(0, dtype=np.int64)
        self.indptr = indptr
        self.cells = cells
        self.search = search
        self.since = since
        self.rerun = rerun
        self.gains = (empty, empty) if gains is None else gains
        self.touched = empty if touched is None else touched

    def rows(self, anchors: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(position in anchors, cell)`` pairs of the given points,
        ascending, as int64 arrays."""
        lo = self.indptr[anchors]
        counts = self.indptr[anchors + 1] - lo
        return (
            np.repeat(np.arange(len(anchors), dtype=np.int64), counts),
            self.cells[ragged_arange(lo, counts)],
        )


def memoised(tps: TemporalPointSet, key: Hashable, build: Callable[[], Any]) -> Any:
    """``tps``'s memo entry ``key``, which ``build()`` makes the first
    time it is asked for.

    The memo lives on ``tps`` itself, as :meth:`~repro.types.
    TemporalPointSet.fingerprint` does (the arrays of a version are
    immutable), so it is freed together with the point set.  Builds run
    under the point set's lock: racing first builds of one version wait
    for one build instead of each running their own.
    """
    with tps._memo_lock:
        value = tps._memo.get(key)
        if value is None:
            value = tps._memo[key] = build()
    return value


def layout_for(
    tps: TemporalPointSet, side: float, base: Optional[SoALayout] = None
) -> SoALayout:
    """The layout of one dataset version at one cell side, extending
    ``base``, the layout of an earlier version, when given.

    Memoised on ``tps`` (:func:`memoised`), so the four index families
    of one ``(version, ε)`` share one layout, built once.
    """
    side = float(side)

    def build() -> SoALayout:
        start = SoALayout.empty(tps.dim, side) if base is None else base
        return start.extended(tps)

    return memoised(tps, ("layout", side), build)
