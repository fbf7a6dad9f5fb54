"""Structure-of-arrays snapshots and grid-cell layouts (the ``vector`` backend).

The legacy backends walk per-point object graphs; the vector backend
flattens everything the solvers touch into contiguous numpy arrays once
per ``(dataset version, cell side)`` and answers every query with
batched kernels over that layout:

* :class:`SoALayout` — the SoA snapshot of a
  :class:`~repro.types.TemporalPointSet`: ``(n, d)`` float64 coords,
  ``(n,)`` start/end arrays, plus a CSR grid-cell layout built with
  ``np.floor`` / ``np.unique`` / ``np.argsort`` (cells in lexicographic
  key order — the exact order a fresh
  :class:`~repro.quadtree.tree.GridDecomposition` sorts its cells in).
  Within each cell two permutations are kept: member-id ascending (the
  canonical ``member_ids`` order) and ``(end desc, id asc)`` (the
  partner-enumeration order of ``RunSet.iter_desc_by_end``).
* :func:`layout_for` — the layout of one point set at one cell side,
  memoised on that point set, so the four query families of one dataset
  version and ε build it once and it is freed with the version.
* :class:`CandidateMap` — every point's candidate cells as CSR rows,
  memoised on the layout (``SoALayout.candidate_maps``) by the index
  that builds it, so a query gathers the rows of its eligible anchors.
* blocked distance kernels (:func:`pairwise_dists`,
  :func:`rowwise_dists`) reproducing the exact per-metric arithmetic of
  :mod:`repro.geometry.metrics`.
"""

from __future__ import annotations

from typing import Dict, Tuple

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
    """SoA snapshot of one point set under one grid resolution."""

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

    def __init__(self, tps: TemporalPointSet, side: float) -> None:
        self.points = np.ascontiguousarray(tps.points, dtype=np.float64)
        self.starts = np.ascontiguousarray(tps.starts, dtype=np.float64)
        self.ends = np.ascontiguousarray(tps.ends, dtype=np.float64)
        self.side = float(side)
        self.n, self.dim = self.points.shape
        # ``np.unique``'s row order is the ``sorted(cells)`` order of the
        # legacy grid build.
        coords = np.floor(self.points / self.side).astype(np.int64)
        self.cell_keys, cell_of = np.unique(coords, axis=0, return_inverse=True)
        self.cell_of = np.ascontiguousarray(cell_of.reshape(-1), dtype=np.int64)
        self.n_cells = len(self.cell_keys)
        self.counts = np.bincount(self.cell_of, minlength=self.n_cells)
        self.offsets = np.zeros(self.n_cells + 1, dtype=np.int64)
        np.cumsum(self.counts, out=self.offsets[1:])
        # Per-cell members, ids ascending (CSR over ``offsets``).
        self.order_id = np.argsort(self.cell_of, kind="stable").astype(np.int64)
        # Same arithmetic as the legacy grid's per-cell center.
        self.centers = (self.cell_keys.astype(np.float64) + 0.5) * self.side
        # Per-cell (end desc, id asc) permutation — the partner order of
        # RunSet.iter_desc_by_end.
        ids = np.arange(self.n, dtype=np.int64)
        self.order_end = np.lexsort((ids, -self.ends, self.cell_of)).astype(np.int64)
        # The radius-1 candidate maps over these cells, by resolution;
        # each is built with the first index that needs it.
        self.candidate_maps: Dict[float, CandidateMap] = {}


class CandidateMap:
    """Every point's candidate cells, as CSR rows.

    Point ``i`` owns ``cells[indptr[i] : indptr[i + 1]]``, ascending.
    Built from the generator's ``(anchor, cell)`` pairs over all points
    (anchor positions are then point ids); :meth:`rows` gathers the
    pairs the generator returns for any anchor subset (DESIGN.md
    note 10).
    """

    __slots__ = ("indptr", "cells")

    def __init__(self, n: int, ai: np.ndarray, ci: np.ndarray) -> None:
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(ai, minlength=n), out=self.indptr[1:])
        self.cells = ci

    def rows(self, anchors: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(position in anchors, cell)`` pairs of the given points,
        ascending, as int64 arrays."""
        lo = self.indptr[anchors]
        counts = self.indptr[anchors + 1] - lo
        return (
            np.repeat(np.arange(len(anchors), dtype=np.int64), counts),
            self.cells[ragged_arange(lo, counts)],
        )


def layout_for(tps: TemporalPointSet, side: float) -> SoALayout:
    """The layout of one dataset version at one cell side.

    Memoised on ``tps`` itself, as :meth:`~repro.types.TemporalPointSet.
    fingerprint` is (the arrays of a version are immutable), so the
    four index families of one ``(version, ε)`` share one layout and it
    is freed together with the point set.
    """
    side = float(side)
    layout = tps._layouts.get(side)
    if layout is None:
        # Racing first builds may both run; ``setdefault`` keeps one.
        layout = tps._layouts.setdefault(side, SoALayout(tps, side))
    return layout
