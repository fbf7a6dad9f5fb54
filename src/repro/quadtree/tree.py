"""Grid/quadtree decomposition for ``ℓ_α`` norms (Remark 1, Appendix D.1).

For ``ℓ_α`` metrics the cover tree of Appendix A can be replaced by a
quadtree: the canonical balls become the cells of a uniform grid whose
side is chosen so every cell fits in a metric ball of radius
``resolution`` around the cell center.  Only the single canonical level
is needed at query time, so the decomposition stores exactly that level
and answers :meth:`candidate_groups` with one vectorised distance pass
over the (at most ``n``) non-empty cell centers.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..errors import BackendError, ValidationError
from ..geometry.metrics import Metric, MetricSpec, get_metric
from ..structures.decomposition import (
    GEOMETRY_SLACK,
    CanonicalGroup,
    SpatialDecomposition,
)

__all__ = ["GridDecomposition"]


class GridDecomposition(SpatialDecomposition):
    """Canonical balls from a one-level quadtree grid.

    Parameters
    ----------
    points:
        ``(n, d)`` coordinate array.
    metric:
        Must be an ``ℓ_α`` or ``ℓ_∞`` metric (``supports_grid``).
    resolution:
        Maximum canonical-ball radius (cell center to any cell point).
    """

    def __init__(
        self,
        points: np.ndarray,
        metric: MetricSpec,
        resolution: float,
    ) -> None:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or len(pts) == 0:
            raise ValidationError("points must be a non-empty (n, d) array")
        m = get_metric(metric)
        if not m.supports_grid:
            raise BackendError(
                f"grid decomposition requires an lp metric, got {m.name!r}"
            )
        if resolution <= 0:
            raise ValidationError(f"resolution must be positive, got {resolution!r}")
        self.points = pts
        self.metric: Metric = m
        self.resolution = float(resolution)
        dim = pts.shape[1]
        # Cell of side s has center-to-corner distance (s/2)·d^{1/α};
        # cell_side_for_diameter(2·resolution) yields exactly that bound.
        self.side = m.cell_side_for_diameter(2.0 * resolution, dim)

        cells: Dict[Tuple[int, ...], List[int]] = {}
        coords = np.floor(pts / self.side).astype(np.int64)
        for idx, key in enumerate(map(tuple, coords)):
            cells.setdefault(key, []).append(idx)

        self.groups: List[CanonicalGroup] = []
        self.group_of = np.empty(len(pts), dtype=np.int64)
        for key in sorted(cells):
            center = (np.asarray(key, dtype=float) + 0.5) * self.side
            g = CanonicalGroup(
                index=len(self.groups),
                rep=center,
                radius_bound=self.resolution,
                member_ids=sorted(cells[key]),
            )
            for pid in g.member_ids:
                self.group_of[pid] = g.index
            self.groups.append(g)
        self._centers = np.vstack([g.rep for g in self.groups])

    # ------------------------------------------------------------------
    def candidate_groups(self, point: np.ndarray, radius: float) -> List[int]:
        """Cells whose center is within ``radius + resolution`` of ``point``."""
        d = self.metric.dists(self._centers, np.asarray(point, dtype=float))
        keep = d <= radius + self.resolution + GEOMETRY_SLACK
        return [int(i) for i in np.nonzero(keep)[0]]
