"""Array-backed durable-ball structure ``D`` (the ``vector`` backend).

:class:`VectorBallStructure` answers the same ``durableBallQ`` contract
as :class:`~repro.structures.durable_ball.DurableBallStructure` — same
candidate cells, same temporal/lexicographic predicate, same
``(end desc, id asc)`` member order — but from the SoA layout of
:mod:`.soa` instead of per-ball Python dominance indexes: candidate
cells come from one vectorised center-distance pass, the τ-stab is a
``np.searchsorted`` prefix per cell, and the anchor-precedence filter is
one boolean mask.  Build time is therefore the layout's few lexsorts,
not ``n`` merge-sort trees.

The returned subsets duck-type :class:`~repro.structures.durable_ball.
BallSubset` (``group`` / ``members`` / ``count`` / ``ids()`` and the
``iter_desc_by_end`` partner iterator), so every legacy consumer —
``triangles_for_anchor``, the counting and delay-guaranteed enumeration
modules, :class:`~repro.core.patterns.PatternIndex` — runs on it
unchanged.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ...errors import BackendError, ValidationError
from ...structures.decomposition import GEOMETRY_SLACK, CanonicalGroup
from ...types import TemporalPointSet
from .soa import SoALayout, VectorGridDecomposition, layout_for

__all__ = ["VectorBallStructure", "ArrayRuns", "ArrayBallSubset"]


class ArrayRuns:
    """Array-backed stand-in for a dominance-query ``RunSet``.

    Holds the qualifying members as parallel ``(ids, ends)`` arrays in
    ``(end desc, id asc)`` order — exactly the order
    ``RunSet.iter_desc_by_end`` yields.
    """

    __slots__ = ("_ids", "_ends")

    def __init__(self, ids: np.ndarray, ends: np.ndarray) -> None:
        self._ids = ids
        self._ends = ends

    @property
    def count(self) -> int:
        return len(self._ids)

    @property
    def is_empty(self) -> bool:
        return len(self._ids) == 0

    def ids(self) -> List[int]:
        return self._ids.tolist()

    def first_ids(self, k: int) -> List[int]:
        return self._ids[:k].tolist()

    def iter_desc_by_end(self) -> Iterator[Tuple[float, int]]:
        for e, i in zip(self._ends, self._ids):
            yield float(e), int(i)


class ArrayBallSubset:
    """One canonical subset ``C_{p,j}`` over array-backed members."""

    __slots__ = ("group", "members")

    def __init__(self, group: CanonicalGroup, members: ArrayRuns) -> None:
        self.group = group
        self.members = members

    @property
    def count(self) -> int:
        return self.members.count

    def ids(self) -> List[int]:
        return self.members.ids()


class VectorBallStructure:
    """``D`` over a SoA layout: decomposition geometry + array sweeps.

    Mirrors the :class:`DurableBallStructure` surface the solvers use
    (``tps`` / ``resolution`` / ``decomposition`` / ``groups`` /
    ``group_index_of`` / ``query`` / ``linked`` / ``extended``).  The
    canonical-group objects are materialised lazily — the batched query
    kernels of :mod:`.indexes` never touch them, so a pure
    triangles/pairs build pays only for the arrays.
    """

    def __init__(
        self,
        tps: TemporalPointSet,
        resolution: float,
        layout: Optional[SoALayout] = None,
    ) -> None:
        if resolution <= 0:
            raise ValidationError(f"resolution must be positive, got {resolution!r}")
        if not tps.metric.supports_grid:
            raise BackendError(
                f"the vector backend requires an lp metric, got {tps.metric.name!r}"
            )
        self.tps = tps
        self.resolution = float(resolution)
        side = tps.metric.cell_side_for_diameter(2.0 * resolution, tps.dim)
        self.layout = layout if layout is not None else layout_for(tps, side)
        self._decomposition: Optional[VectorGridDecomposition] = None

    # ------------------------------------------------------------------
    @property
    def decomposition(self) -> VectorGridDecomposition:
        if self._decomposition is None:
            self._decomposition = VectorGridDecomposition(
                self.layout.points,
                self.tps.metric,
                self.resolution,
                _layout=self.layout,
            )
        return self._decomposition

    @property
    def groups(self) -> Sequence[CanonicalGroup]:
        return self.decomposition.groups

    def group_index_of(self, point_id: int) -> int:
        return int(self.layout.cell_of[point_id])

    # ------------------------------------------------------------------
    def candidate_cells(self, anchor: int, radius: float) -> np.ndarray:
        """Cell indices whose center is within ``radius + resolution``."""
        lay = self.layout
        d = self.tps.metric.dists(lay.centers, lay.points[anchor])
        return np.nonzero(d <= radius + self.resolution + GEOMETRY_SLACK)[0]

    def query(
        self,
        anchor: int,
        tau: float,
        radius: float = 1.0,
        min_end: Optional[float] = None,
    ) -> List[ArrayBallSubset]:
        """``durableBallQ(p, τ, ·)`` — non-empty subsets in cell order."""
        lay = self.layout
        sp = float(lay.starts[anchor])
        threshold = sp + tau if min_end is None else max(sp + tau, min_end)
        groups = self.decomposition.groups
        out: List[ArrayBallSubset] = []
        for gi in self.candidate_cells(anchor, radius):
            ids, ends = lay.partners(int(gi), int(anchor), sp, threshold)
            if len(ids):
                out.append(ArrayBallSubset(groups[int(gi)], ArrayRuns(ids, ends)))
        return out

    # ------------------------------------------------------------------
    def linked(
        self, a: CanonicalGroup, b: CanonicalGroup, threshold: float = 1.0
    ) -> bool:
        """Pairing test of Algorithm 1 (same arithmetic as the legacy D)."""
        d = self.tps.metric.dist(a.rep, b.rep)
        return d <= threshold + a.radius_bound + b.radius_bound + GEOMETRY_SLACK

    # ------------------------------------------------------------------
    def extended(self, tps: TemporalPointSet) -> "VectorBallStructure":
        """A structure over ``tps`` (this dataset plus appended points).

        The layout recompute is itself vectorised (array concatenation
        is implicit: the merged set's arrays are bucketed in one pass,
        producing the canonical sorted-cell order a fresh build yields),
        so maintenance is cheap and the result is *identical* to a fresh
        build.
        """
        n_old = self.tps.n
        if tps.n <= n_old:
            raise ValidationError(
                f"extension target has {tps.n} points, need more than {n_old}"
            )
        return VectorBallStructure(tps, self.resolution)
