"""Canonical-ball spatial decompositions (the geometry layer of ``D``).

Appendix A's modified cover tree answers ball-reporting queries with a
small family of *canonical balls*: disjoint groups of points, each inside
a metric ball of radius at most the decomposition *resolution*, such
that every point of ``B(q, R)`` lands in exactly one returned group and
every returned group lies within ``B(q, R + 2·resolution)``.

Two interchangeable implementations exist:

* :class:`~repro.covertree.CoverTreeDecomposition` — net hierarchy for
  arbitrary bounded-doubling metrics (Appendix A);
* :class:`~repro.quadtree.GridDecomposition` — one-level quadtree/grid
  for ``ℓ_α`` norms (Section 3 Remark 1, Appendix D.1).

The algorithms of Sections 3–5 only use this interface, so backends are
swappable (experiment E9 exploits that).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from ..geometry.metrics import Metric

__all__ = ["CanonicalGroup", "SpatialDecomposition", "GEOMETRY_SLACK"]

#: Additive slack applied to every geometric pruning test so floating
#: point rounding can only add candidates, never drop a must-report
#: result (DESIGN.md note 5).
GEOMETRY_SLACK = 1e-9


@dataclass(slots=True)
class CanonicalGroup:
    """One canonical ball: a group of points inside ``B(rep, radius_bound)``."""

    index: int
    rep: np.ndarray
    radius_bound: float
    member_ids: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.member_ids)


class SpatialDecomposition(ABC):
    """Partition of a point set into canonical balls of bounded radius.

    Attributes
    ----------
    groups:
        The canonical groups; together they partition the point ids.
    group_of:
        Array mapping each point id to its group index.
    resolution:
        Upper bound on every group's ``radius_bound``.
    """

    groups: List[CanonicalGroup]
    group_of: np.ndarray
    resolution: float
    metric: Metric

    @abstractmethod
    def candidate_groups(self, point: np.ndarray, radius: float) -> List[int]:
        """Indices of groups that may contain points of ``B(point, radius)``.

        Guarantees: every group holding a point within ``radius`` of
        ``point`` is returned, and every returned group's ball satisfies
        ``φ(point, rep) ≤ radius + radius_bound + slack`` — hence all its
        members are within ``radius + 2·resolution`` of ``point``.
        """

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def linked_groups(
        self, group_index: int, candidate_indices: Sequence[int], threshold: float = 1.0
    ) -> List[int]:
        """Candidate groups whose ball can contain a point within
        ``threshold`` of some point of ``groups[group_index]``.

        This is the Algorithm 1 pairing test
        ``φ(Rep_i, Rep_j) ≤ threshold + r_i + r_j`` generalised to
        per-group radius bounds.
        """
        g = self.groups[group_index]
        out: List[int] = []
        reps = np.vstack([self.groups[i].rep for i in candidate_indices])
        d = self.metric.dists(reps, g.rep)
        for pos, idx in enumerate(candidate_indices):
            other = self.groups[idx]
            if d[pos] <= threshold + g.radius_bound + other.radius_bound + GEOMETRY_SLACK:
                out.append(idx)
        return out
