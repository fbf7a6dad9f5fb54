"""Uniform grid hashing for ``ℓ_p`` point sets.

A light spatial hash used to accelerate (i) greedy net construction for
the cover tree (Appendix A requires an ``O(n log n)`` build; grid lookups
keep the per-point work constant under bounded doubling dimension) and
(ii) explicit proximity-graph materialisation in the baselines.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from ..errors import ValidationError
from .metrics import Metric

__all__ = ["UniformGrid"]

Cell = Tuple[int, ...]


class UniformGrid:
    """Hash points of ``R^d`` into cubic cells of a fixed side.

    Parameters
    ----------
    points:
        ``(n, d)`` array.
    side:
        Cell side length (must be positive).
    """

    def __init__(self, points: np.ndarray, side: float) -> None:
        if side <= 0:
            raise ValidationError(f"grid side must be positive, got {side!r}")
        self.points = np.asarray(points, dtype=float)
        if self.points.ndim != 2:
            raise ValidationError("points must be a 2-d array")
        self.side = float(side)
        self.dim = self.points.shape[1]
        # Vectorised bucketing: one lexsort over the integer cell coords
        # replaces the per-point dict loop.  Contents and iteration order
        # are identical to the historical ``setdefault`` loop — members
        # ascend within a cell (lexsort is stable) and cells appear in
        # first-occurrence order (several consumers iterate ``_cells``
        # and depend on that order, e.g. greedy net construction).
        self._cells: Dict[Cell, List[int]] = {}
        coords = np.floor(self.points / self.side).astype(np.int64)
        if len(coords):
            order = np.lexsort(coords.T[::-1])
            sorted_coords = coords[order]
            boundary = (
                np.flatnonzero((sorted_coords[1:] != sorted_coords[:-1]).any(axis=1))
                + 1
            )
            cell_starts = np.concatenate(([0], boundary))
            cell_ends = np.concatenate((boundary, [len(order)]))
            for g in np.argsort(order[cell_starts], kind="stable"):
                lo, hi = cell_starts[g], cell_ends[g]
                key = tuple(sorted_coords[lo].tolist())
                self._cells[key] = order[lo:hi].tolist()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.points)

    @property
    def n_cells(self) -> int:
        return len(self._cells)

    def cell_of(self, point: np.ndarray) -> Cell:
        """The cell key containing ``point``."""
        return tuple(np.floor(np.asarray(point, dtype=float) / self.side).astype(np.int64))

    def ids_in_cell(self, cell: Cell) -> Sequence[int]:
        """Point ids stored in a cell (empty when the cell is vacant)."""
        return self._cells.get(cell, ())

    # ------------------------------------------------------------------
    def candidates_within(self, point: np.ndarray, radius: float) -> List[int]:
        """Ids whose cell's bounding box can contain a point within ``radius``.

        This is a superset filter: callers must still verify exact
        distances.  When the cell box spans fewer cells than there are
        non-empty cells we enumerate the box; otherwise we scan the
        non-empty cells, so the cost is ``min(box volume, n_cells)``.
        """
        point = np.asarray(point, dtype=float)
        lo = np.floor((point - radius) / self.side).astype(np.int64)
        hi = np.floor((point + radius) / self.side).astype(np.int64)
        box_cells = int(np.prod(hi - lo + 1))
        out: List[int] = []
        if box_cells <= len(self._cells):
            ranges = [range(int(a), int(b) + 1) for a, b in zip(lo, hi)]
            for cell in product(*ranges):
                ids = self._cells.get(cell)
                if ids:
                    out.extend(ids)
        else:
            for cell, ids in self._cells.items():
                if all(lo[k] <= cell[k] <= hi[k] for k in range(self.dim)):
                    out.extend(ids)
        return out

    def neighbors_within(
        self, point: np.ndarray, radius: float, metric: Metric
    ) -> List[int]:
        """Ids at metric distance ≤ ``radius`` from ``point`` (exact)."""
        cand = self.candidates_within(point, radius)
        if not cand:
            return []
        d = metric.dists(self.points[cand], point)
        return [cand[i] for i in np.nonzero(d <= radius)[0]]

    def pairs_within(self, radius: float, metric: Metric) -> Iterator[Tuple[int, int]]:
        """All unordered pairs ``(i < j)`` at distance ≤ ``radius``.

        Used to materialise explicit proximity graphs in the baselines;
        near-linear for bounded-spread inputs because only neighbouring
        cells are compared.
        """
        reach = int(np.ceil(radius / self.side))
        offsets = [
            off
            for off in product(range(-reach, reach + 1), repeat=self.dim)
        ]
        for cell, ids in self._cells.items():
            for off in offsets:
                other = tuple(c + o for c, o in zip(cell, off))
                if other < cell:
                    continue
                other_ids = self._cells.get(other)
                if not other_ids:
                    continue
                if other == cell:
                    for a_pos, i in enumerate(ids):
                        d = metric.dists(self.points[ids[a_pos + 1 :]], self.points[i])
                        for b_pos in np.nonzero(d <= radius)[0]:
                            j = ids[a_pos + 1 + b_pos]
                            yield (i, j) if i < j else (j, i)
                else:
                    for i in ids:
                        d = metric.dists(self.points[other_ids], self.points[i])
                        for b_pos in np.nonzero(d <= radius)[0]:
                            j = other_ids[b_pos]
                            yield (i, j) if i < j else (j, i)
