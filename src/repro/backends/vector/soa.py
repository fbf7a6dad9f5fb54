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
* :func:`layout_for` — the layout of one point set at one cell side,
  memoised on that point set, so the four query families of one dataset
  version and ε build or extend it once and it is freed with the
  version.
* :class:`CandidateMap` — every point's candidate cells as CSR rows,
  memoised on the layout (``SoALayout.candidate_maps``) by the index
  that builds it, so a query gathers the rows of its eligible anchors;
  a later version's map extends the previous one's, and lists the
  anchors the append touched.
* blocked distance kernels (:func:`pairwise_dists`,
  :func:`rowwise_dists`) reproducing the exact per-metric arithmetic of
  :mod:`repro.geometry.metrics`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ...geometry.metrics import Metric
from ...types import TemporalPointSet

__all__ = [
    "CandidateMap",
    "SoALayout",
    "layout_for",
    "pairwise_dists",
    "rowwise_dists",
    "ragged_arange",
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
        "candidate_maps",
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
        lay.candidate_maps = {}
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
        at = np.searchsorted(old_keys, keys)
        found = at < self.n_cells
        found[found] = old_keys[at[found]] == keys[found]
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
        # The radius-1 candidate maps over these cells, by resolution;
        # each is built with the first index that needs it.
        lay.candidate_maps: Dict[float, CandidateMap] = {}
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

    A map over a later version extends the map of an earlier one
    (DESIGN.md note 13): ``since`` is that version's point count (0 for
    a map built from scratch), ``rerun`` the number of rows the
    generator recomputed, and ``touched`` the ids whose rows an append
    of the points from ``since`` on can change (ascending; empty when
    ``since`` is 0).
    """

    __slots__ = ("indptr", "cells", "since", "rerun", "touched")

    def __init__(
        self,
        indptr: np.ndarray,
        cells: np.ndarray,
        since: int = 0,
        rerun: int = 0,
        touched: Optional[np.ndarray] = None,
    ) -> None:
        self.indptr = indptr
        self.cells = cells
        self.since = since
        self.rerun = rerun
        self.touched = np.empty(0, dtype=np.int64) if touched is None else touched

    def rows(self, anchors: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(position in anchors, cell)`` pairs of the given points,
        ascending, as int64 arrays."""
        lo = self.indptr[anchors]
        counts = self.indptr[anchors + 1] - lo
        return (
            np.repeat(np.arange(len(anchors), dtype=np.int64), counts),
            self.cells[ragged_arange(lo, counts)],
        )


def layout_for(
    tps: TemporalPointSet, side: float, base: Optional[SoALayout] = None
) -> SoALayout:
    """The layout of one dataset version at one cell side, extending
    ``base``, the layout of an earlier version, when given.

    Memoised on ``tps`` itself, as :meth:`~repro.types.TemporalPointSet.
    fingerprint` is (the arrays of a version are immutable), so the
    four index families of one ``(version, ε)`` share one layout and it
    is freed together with the point set.
    """
    side = float(side)
    layout = tps._layouts.get(side)
    if layout is None:
        if base is None:
            base = SoALayout.empty(tps.dim, side)
        # Racing first builds may both run; ``setdefault`` keeps one.
        layout = tps._layouts.setdefault(side, base.extended(tps))
    return layout
