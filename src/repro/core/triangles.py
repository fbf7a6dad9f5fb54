"""Reporting durable triangles — Section 3 (Algorithm 1).

For each anchor ``p`` with ``|I_p| ≥ τ`` the algorithm runs
``durableBallQ(p, τ, ε/2)`` and reports

* type (1): all ordered-by-id pairs inside one canonical subset, and
* type (2): the Cartesian product of every *linked* pair of subsets
  (``φ(Rep_i, Rep_j) ≤ 1 + r_i + r_j``),

yielding every τ-durable triangle anchored at ``p`` plus possibly some
τ-durable ε-triangles (Theorem 3.1): ``T_τ ⊆ reported ⊆ T^ε_τ``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, List, Optional, Sequence

import numpy as np

from ..errors import ValidationError
from ..structures.durable_ball import BallSubset, DurableBallStructure, resolve_backend
from ..temporal.interval import Interval
from ..types import TemporalPointSet, TriangleRecord

__all__ = ["DurableTriangleIndex", "triangles_for_anchor"]


def _record(
    tps: TemporalPointSet, p: int, a: int, b: int
) -> TriangleRecord:
    """Build the reported record; ``q < s`` by id as in Algorithm 1."""
    q, s = (a, b) if a < b else (b, a)
    start = float(tps.starts[p])
    end = min(float(tps.ends[p]), float(tps.ends[q]), float(tps.ends[s]))
    return TriangleRecord(anchor=p, q=q, s=s, lifespan=Interval(start, end))


def triangles_for_anchor(
    structure: DurableBallStructure,
    anchor: int,
    tau: float,
    *,
    subsets: Optional[Sequence[BallSubset]] = None,
) -> Iterator[TriangleRecord]:
    """``ReportTriangle(D, p, τ, ε)`` — Algorithm 1 for one anchor.

    Yields every τ-durable triangle anchored at ``anchor`` (plus some
    ε-triangles), each exactly once, in the anchor-first order of the
    paper.  ``subsets`` may be passed to reuse a prior ball query.
    """
    tps = structure.tps
    if tps.duration(anchor) < tau:
        return
    if subsets is None:
        subsets = structure.query(anchor, tau)
    materialised: List[List[int]] = [s.ids() for s in subsets]
    # Type (1): pairs within one canonical ball.
    for ids in materialised:
        if len(ids) >= 2:
            for a, b in combinations(ids, 2):
                yield _record(tps, anchor, a, b)
    # Type (2): pairs across linked balls.
    for i in range(len(subsets)):
        if not materialised[i]:
            continue
        for j in range(i + 1, len(subsets)):
            if not materialised[j]:
                continue
            if structure.linked(subsets[i].group, subsets[j].group):
                for a in materialised[i]:
                    for b in materialised[j]:
                        yield _record(tps, anchor, a, b)


class DurableTriangleIndex:
    """The ``DurableTriangle`` solver of Section 3 (Theorem 3.1).

    Parameters
    ----------
    tps:
        Input ``(P, φ, I)``.
    epsilon:
        Distance approximation ``ε ∈ (0, 1]``.  Every reported triangle
        is a τ-durable ε-triangle, and every exact τ-durable triangle is
        reported.
    backend:
        ``"cover-tree"`` (any metric, Appendix A), ``"grid"``
        (ℓ_α metrics, Remark 1), or ``"auto"``.

    The exact ℓ∞ solver of Appendix B lives in
    :class:`repro.core.linf.LinfTriangleIndex`; the top-level helper
    :func:`repro.find_durable_triangles` dispatches on request.
    """

    def __init__(
        self,
        tps: TemporalPointSet,
        epsilon: float = 0.5,
        backend: str = "auto",
    ) -> None:
        if not 0 < epsilon <= 1:
            raise ValidationError(f"epsilon must lie in (0, 1], got {epsilon!r}")
        self.tps = tps
        self.epsilon = float(epsilon)
        self.backend = resolve_backend(backend)
        # Algorithm 1 issues durableBallQ(p, τ, ε/2): canonical balls of
        # diameter ≤ ε/2, i.e. radius ≤ ε/4.
        self.structure = DurableBallStructure(tps, epsilon / 4.0, backend)

    # ------------------------------------------------------------------
    def query(self, tau: float) -> List[TriangleRecord]:
        """All τ-durable triangles (plus some τ-durable ε-triangles).

        Anchors are visited in id order; within an anchor the order of
        Algorithm 1 is preserved.
        """
        self._check_tau(tau)
        out: List[TriangleRecord] = []
        for p in self._eligible_anchors(tau):
            out.extend(triangles_for_anchor(self.structure, p, tau))
        return out

    def iter_query(self, tau: float) -> Iterator[TriangleRecord]:
        """Delay-guaranteed enumeration (Section 3, Remark 2).

        See :class:`repro.core.enumeration.DelayGuaranteedEnumerator` for
        the instrumented variant with measurable delay bounds; this
        method is its plain generator form.
        """
        from .enumeration import DelayGuaranteedEnumerator

        return iter(DelayGuaranteedEnumerator(self, tau))

    def query_anchored(self, anchor: int, tau: float) -> List[TriangleRecord]:
        """Triangles anchored at one point (Algorithm 1 for a single ``p``)."""
        self._check_tau(tau)
        return list(triangles_for_anchor(self.structure, anchor, tau))

    def count(self, tau: float) -> int:
        """Number of triangles ``query(tau)`` would report — *without*
        enumerating them.

        Implements the counting extension the paper's conclusion lists
        as future work: run sizes of the canonical subsets suffice, so
        the cost is ``Õ(n·ε^{-O(ρ)})`` independent of the output size
        (see :mod:`repro.core.counting`).
        """
        from .counting import count_durable_triangles

        self._check_tau(tau)
        return count_durable_triangles(self.tps, tau, structure=self.structure)

    # ------------------------------------------------------------------
    def _iter_all(self, tau: float) -> Iterator[TriangleRecord]:
        for p in self._eligible_anchors(tau):
            yield from triangles_for_anchor(self.structure, p, tau)

    def _eligible_anchors(self, tau: float) -> Iterator[int]:
        durations = self.tps.ends - self.tps.starts
        for p in np.nonzero(durations >= tau)[0]:
            yield int(p)

    @staticmethod
    def _check_tau(tau: float) -> None:
        if tau <= 0:
            raise ValidationError(f"durability parameter must be positive, got {tau!r}")

    def stats(self) -> dict:
        """Structure statistics (group count, level count if available)."""
        dec = self.structure.decomposition
        info = {
            "n": self.tps.n,
            "epsilon": self.epsilon,
            "groups": len(dec.groups),
            "resolution": dec.resolution,
        }
        levels = getattr(getattr(dec, "hierarchy", None), "levels", None)
        if levels is not None:
            info["levels"] = len(levels)
        return info
