"""Exact algorithms for the ℓ∞ metric — Appendix B.

Under ``ℓ∞`` the unit ball is an axis-aligned cube, so the canonical
balls of Section 3 can be replaced by *exact* unit cubes: the square of
side 2 around an anchor ``p`` splits into ``2^d`` half-open unit cubes
``□^p_j``; any two points in one cube are within distance 1, and a
cross-cube partner of ``q`` must lie in ``□_q ∩ □^p_k`` where
``□_q = B_∞(q, 1)``.  Every query is a rectangle query on ``D_R``
(:mod:`repro.rangetree`), so no approximation is incurred:

* :class:`LinfTriangleIndex` — ``ReportTriangle-I`` (Algorithm 5,
  Theorem B.3): reports exactly ``T_τ``;
* :class:`LinfAnchorBackend` — ``DetectTriangle-I`` /
  ``ReportDeltaTriangle-I`` (Algorithms 6–7, Theorem B.4), pluggable
  into :class:`~repro.core.incremental.IncrementalTriangleSession`.

Both restore the missing ``|I_p| < τ≺`` branch (DESIGN.md note 2).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..errors import BackendError, ValidationError
from ..geometry.metrics import ChebyshevMetric
from ..rangetree.range_tree import Box, RangeTree, Side, box_intersect, closed_box
from ..types import TemporalPointSet, TriangleRecord
from .incremental import AnchorBackend
from .triangles import _record

__all__ = ["LinfDurableRange", "LinfTriangleIndex", "LinfAnchorBackend"]

_INF = float("inf")


class LinfDurableRange:
    """``D_R`` with the τ-durable range query ``Q_R`` (Appendix B.1)."""

    def __init__(self, tps: TemporalPointSet) -> None:
        if not isinstance(tps.metric, ChebyshevMetric):
            raise BackendError(
                "the exact backend requires the linf metric, got "
                f"{tps.metric.name!r}"
            )
        self.tps = tps
        self.tree = RangeTree(tps.points, tps.starts, tps.ends)

    # ------------------------------------------------------------------
    def query_ids(
        self,
        box: Optional[Box],
        key: Tuple[float, int],
        y_lo: float,
        y_hi: float = _INF,
    ) -> List[int]:
        """``Q_R``: ids in ``box`` with ``(I⁻,id) < key``, ``I⁺ ∈ [y_lo, y_hi)``."""
        if box is None:
            return []
        out: List[int] = []
        for leaf in self.tree.query_nodes(box):
            out.extend(leaf.collect(key, y_lo, y_hi))
        return out

    def has_any(
        self,
        box: Optional[Box],
        key: Tuple[float, int],
        y_lo: float,
        y_hi: float = _INF,
    ) -> bool:
        """Emptiness test for ``Q_R`` (``O(log^{d+1} n)`` when unbounded)."""
        if box is None:
            return False
        for leaf in self.tree.query_nodes(box):
            if y_hi == _INF:
                if leaf.has_match(key, y_lo):
                    return True
            elif leaf.collect(key, y_lo, y_hi, limit=1):
                return True
        return False

    # ------------------------------------------------------------------
    def orthant_cubes(self, anchor: int) -> List[List[Side]]:
        """The ``2^d`` half-open unit cubes partitioning ``B_∞(p, 1)``."""
        p = self.tps.points[anchor]
        d = len(p)
        cubes: List[List[Side]] = []
        for mask in range(1 << d):
            sides: List[Side] = []
            for i in range(d):
                c = float(p[i])
                if mask >> i & 1:
                    sides.append((c, False, c + 1.0, False))  # [c, c+1]
                else:
                    sides.append((c - 1.0, False, c, True))  # [c-1, c)
            cubes.append(sides)
        return cubes

    def unit_ball_box(self, q: int) -> List[Side]:
        """``□_q = B_∞(q, 1)`` as a closed box."""
        pq = self.tps.points[q]
        return closed_box(pq - 1.0, pq + 1.0)


class LinfTriangleIndex:
    """Exact ``DurableTriangle`` for ℓ∞ — Algorithm 5 (Theorem B.3).

    ``query(tau)`` returns exactly ``T_τ`` (no ε-extras), each triangle
    once, anchor-first.
    """

    def __init__(self, tps: TemporalPointSet) -> None:
        self.tps = tps
        self.structure = LinfDurableRange(tps)

    def query(self, tau: float) -> List[TriangleRecord]:
        """All τ-durable triangles, exactly."""
        self._check_tau(tau)
        out: List[TriangleRecord] = []
        for p in self._eligible_anchors(tau):
            out.extend(self.report_anchor(p, tau))
        return out

    def query_anchored(self, anchor: int, tau: float) -> List[TriangleRecord]:
        """Triangles anchored at one point."""
        self._check_tau(tau)
        return list(self.report_anchor(anchor, tau))

    # ------------------------------------------------------------------
    def report_anchor(self, anchor: int, tau: float) -> Iterator[TriangleRecord]:
        """``ReportTriangle-I(p, τ, D_R)`` — Algorithm 5."""
        tps = self.tps
        if tps.duration(anchor) < tau:
            return
        st = self.structure
        key = tps.anchor_key(anchor)
        y = float(tps.starts[anchor]) + tau
        cubes = st.orthant_cubes(anchor)
        members = [st.query_ids(cube, key, y) for cube in cubes]
        for ids in members:
            # Type (1): same cube — every pair is within distance 1.
            for a, b in combinations(sorted(ids), 2):
                yield _record(tps, anchor, a, b)
        for j, ids in enumerate(members):
            for q in ids:
                ball = st.unit_ball_box(q)
                for k in range(j + 1, len(cubes)):
                    box = box_intersect(ball, cubes[k])
                    for b in st.query_ids(box, key, y):
                        yield _record(tps, anchor, q, b)

    def _eligible_anchors(self, tau: float) -> Iterator[int]:
        durations = self.tps.ends - self.tps.starts
        for p in np.nonzero(durations >= tau)[0]:
            yield int(p)

    @staticmethod
    def _check_tau(tau: float) -> None:
        if tau <= 0:
            raise ValidationError(f"durability parameter must be positive, got {tau!r}")


class LinfAnchorBackend(AnchorBackend):
    """Exact per-anchor oracle for the incremental session (Appendix B.3)."""

    def __init__(self, tps: TemporalPointSet) -> None:
        self.tps = tps
        self.structure = LinfDurableRange(tps)
        self._index = LinfTriangleIndex.__new__(LinfTriangleIndex)
        self._index.tps = tps
        self._index.structure = self.structure

    # -- Algorithm 5 ------------------------------------------------------
    def report_all(self, anchor: int, tau: float) -> List[TriangleRecord]:
        return list(self._index.report_anchor(anchor, tau))

    # -- Algorithm 7 ------------------------------------------------------
    def report_delta(
        self, anchor: int, tau: float, tau_prec: float
    ) -> List[TriangleRecord]:
        tps = self.tps
        if tps.duration(anchor) < tau:
            return []
        if tps.duration(anchor) < tau_prec:
            # |I_p| < τ≺: no anchored triangle was τ≺-durable (DESIGN.md 2).
            return self.report_all(anchor, tau)
        st = self.structure
        key = tps.anchor_key(anchor)
        sp = float(tps.starts[anchor])
        y_lo, y_split = sp + tau, sp + tau_prec
        cubes = st.orthant_cubes(anchor)
        lam = [st.query_ids(cube, key, y_lo, y_split) for cube in cubes]
        bar = [st.query_ids(cube, key, y_split) for cube in cubes]
        out: List[TriangleRecord] = []
        for j in range(len(cubes)):
            for a, b in combinations(sorted(lam[j]), 2):
                out.append(_record(tps, anchor, a, b))
            for a in lam[j]:
                for b in bar[j]:
                    out.append(_record(tps, anchor, a, b))
        for j in range(len(cubes)):
            for q in lam[j]:
                ball = st.unit_ball_box(q)
                for k in range(len(cubes)):
                    if k == j:
                        continue
                    box = box_intersect(ball, cubes[k])
                    if box is None:
                        continue
                    if k > j:
                        partners = st.query_ids(box, key, y_lo)  # Λ_k ∪ Λ̄_k
                    else:
                        partners = st.query_ids(box, key, y_split)  # Λ̄_k only
                    for b in partners:
                        out.append(_record(tps, anchor, q, b))
        return out

    # -- Algorithm 6 ------------------------------------------------------
    def detect(self, anchor: int, tau_lo: float, tau_hi: float) -> bool:
        tps = self.tps
        duration = tps.duration(anchor)
        if duration < tau_lo:
            return False
        st = self.structure
        key = tps.anchor_key(anchor)
        sp = float(tps.starts[anchor])
        y_lo = sp + tau_lo
        cubes = st.orthant_cubes(anchor)
        if duration < tau_hi:
            # |I_p| < τ_hi: any eligible pair caps at |I_p| (DESIGN.md 2).
            members = [st.query_ids(cube, key, y_lo) for cube in cubes]
            for ids in members:
                if len(ids) >= 2:
                    return True
            for j, ids in enumerate(members):
                for q in ids:
                    ball = st.unit_ball_box(q)
                    for k in range(len(cubes)):
                        if k != j and st.has_any(
                            box_intersect(ball, cubes[k]), key, y_lo
                        ):
                            return True
            return False
        y_split = sp + tau_hi
        lam = [st.query_ids(cube, key, y_lo, y_split) for cube in cubes]
        for j, cube in enumerate(cubes):
            if not lam[j]:
                continue
            # Same cube: a band member plus any second eligible member.
            if len(lam[j]) >= 2 or st.has_any(cube, key, y_split):
                return True
            for q in lam[j]:
                ball = st.unit_ball_box(q)
                for k in range(len(cubes)):
                    if k != j and st.has_any(
                        box_intersect(ball, cubes[k]), key, y_lo
                    ):
                        return True
        return False
