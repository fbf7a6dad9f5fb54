"""Aggregate-durable pair reporting — Section 5 (Theorems 5.1 & 5.2).

Both solvers share the anchor loop of ``ReportSUMPair`` (Algorithm 4):
visit anchors ``p`` in id order, fetch the temporally-eligible partners
``q`` per canonical ball in *descending* ``I⁺_q`` order, and evaluate the
witness aggregate over the balls linked to the partner's ball.  The
window ``I_p ∩ I_q`` only shrinks along the partner order, so the first
failing partner ends the ball (the output-sensitivity argument of
Section 5.1 / Appendix E).

* **SUM** (:class:`SumPairIndex`): the witness aggregate is
  ``Σ_u |I_u ∩ I_p ∩ I_q|`` computed by ``ComputeSumD`` over per-ball
  SUM structures.  Both the paper-faithful annotated interval tree and
  the coverage-profile fast path are available (DESIGN.md note 4).

* **UNION** (:class:`UnionPairIndex`): Algorithm 8 — the greedy
  max-κ-coverage loop over per-ball ``IT∪`` structures, reporting a pair
  when the greedily covered length reaches ``(1 − 1/e)·τ``.

Witness semantics (DESIGN.md note 3): the contributions of ``p`` and
``q`` themselves are excluded — exactly (membership of their balls in
the linked set is checked, not assumed) for SUM, and via the top-3
exclusion lists for UNION.
"""

from __future__ import annotations

import heapq
from typing import Iterator, List, Literal, Optional, Sequence, Tuple

import numpy as np

from ..errors import BackendError, ValidationError
from ..structures.durable_ball import DurableBallStructure, resolve_backend
from ..temporal.max_overlap import MaxOverlapIndex
from ..temporal.sum_index import AnnotatedIntervalTree, CoverageProfile
from ..types import PairRecord, TemporalPointSet

__all__ = ["SumPairIndex", "UnionPairIndex"]


class _AggregateBase:
    """Shared anchor/partner iteration for Algorithms 4 and 8."""

    def __init__(
        self,
        tps: TemporalPointSet,
        epsilon: float,
        backend: str,
    ) -> None:
        if not 0 < epsilon <= 1:
            raise ValidationError(f"epsilon must lie in (0, 1], got {epsilon!r}")
        self.tps = tps
        self.epsilon = float(epsilon)
        self.backend = resolve_backend(backend)
        # Algorithm 4 issues durableBallQ(p, τ, ε/2): resolution ε/4.
        self.structure = DurableBallStructure(tps, epsilon / 4.0, backend)

    # ------------------------------------------------------------------
    def _eligible_anchors(self, tau: float) -> Iterator[int]:
        durations = self.tps.ends - self.tps.starts
        for p in np.nonzero(durations >= tau)[0]:
            yield int(p)

    def _witness_groups(
        self, candidate: Sequence[int], partner_group: int
    ) -> List[int]:
        """Candidate balls linked to the partner's ball (witness pool)."""
        dec = self.structure.decomposition
        return dec.linked_groups(partner_group, candidate)

    @staticmethod
    def _check_params(tau: float) -> None:
        if tau <= 0:
            raise ValidationError(f"durability parameter must be positive, got {tau!r}")


class SumPairIndex(_AggregateBase):
    """``AggDurablePair-SUM`` (Section 5.1, Theorem 5.1).

    Reports every pair with ``φ(p,q) ≤ 1``, ``|I_p ∩ I_q| ≥ τ`` and
    witness sum ``Σ_{u ∉ {p,q}} |I_u ∩ I_p ∩ I_q| ≥ τ``, plus possibly
    some ε-pairs satisfying the same aggregates under distances
    ``≤ 1 + ε``.

    Parameters
    ----------
    sum_backend:
        ``"profile"`` (coverage profile, ``O(log n)`` per ComputeSumD) or
        ``"tree"`` (paper-faithful ``ITΣ``, ``O(log² n)``); identical
        outputs (experiment E13 benchmarks the difference).
    """

    def __init__(
        self,
        tps: TemporalPointSet,
        epsilon: float = 0.5,
        backend: str = "auto",
        sum_backend: Literal["profile", "tree"] = "profile",
    ) -> None:
        super().__init__(tps, epsilon, backend)
        if sum_backend == "profile":
            factory = CoverageProfile
        elif sum_backend == "tree":
            factory = AnnotatedIntervalTree
        else:
            raise BackendError(f"unknown sum backend {sum_backend!r}")
        self.sum_backend = sum_backend
        self._sums: List = []
        for g in self.structure.groups:
            spans = [
                (float(tps.starts[i]), float(tps.ends[i])) for i in g.member_ids
            ]
            self._sums.append(factory(spans))

    # ------------------------------------------------------------------
    def query(self, tau: float) -> List[PairRecord]:
        """All τ-SUM-durable pairs (plus some τ-SUM-durable ε-pairs)."""
        self._check_params(tau)
        out: List[PairRecord] = []
        tps = self.tps
        dec = self.structure.decomposition
        for p in self._eligible_anchors(tau):
            subsets = self.structure.query(p, tau)
            if not subsets:
                continue
            candidate = dec.candidate_groups(tps.points[p], 1.0)
            sp, ep = float(tps.starts[p]), float(tps.ends[p])
            p_group = self.structure.group_index_of(p)
            for subset in subsets:
                j = subset.group.index
                witnesses = self._witness_groups(candidate, j)
                if not witnesses:
                    continue
                witness_set = set(witnesses)
                p_counted = p_group in witness_set
                for eq, q in subset.members.iter_desc_by_end():
                    hi = min(ep, eq)
                    window = hi - sp
                    total = 0.0
                    for gi in witnesses:
                        total += self._sums[gi].sum_intersections(sp, hi)
                    # Discount the self-contributions of q (always in
                    # ball j ⊆ witnesses) and of p when its ball counts.
                    total -= window
                    if p_counted:
                        total -= window
                    if total >= tau:
                        out.append(PairRecord(p=p, q=q, score=total))
                    else:
                        break
        return out

    def witness_sum(self, p: int, q: int) -> float:
        """The ε-witness aggregate for one pair (diagnostics/tests).

        Sums ``|I_u ∩ I_p ∩ I_q|`` over every point ``u ∉ {p, q}`` lying
        in balls linked to ``q``'s ball among ``p``'s candidate balls.
        """
        tps = self.tps
        dec = self.structure.decomposition
        sp = max(float(tps.starts[p]), float(tps.starts[q]))
        hi = min(float(tps.ends[p]), float(tps.ends[q]))
        if hi <= sp:
            return 0.0
        candidate = dec.candidate_groups(tps.points[p], 1.0)
        witnesses = self._witness_groups(candidate, self.structure.group_index_of(q))
        witness_set = set(witnesses)
        total = 0.0
        for gi in witnesses:
            total += self._sums[gi].sum_intersections(sp, hi)
        # Discount self-contributions only when the respective ball was
        # actually counted (for arbitrary diagnostic pairs, q's ball may
        # fall outside p's candidate set entirely).
        if self.structure.group_index_of(q) in witness_set:
            total -= hi - sp
        if self.structure.group_index_of(p) in witness_set:
            total -= hi - sp
        return total


class UnionPairIndex(_AggregateBase):
    """``AggDurablePair-UNION`` (Section 5.2, Appendix E, Theorem 5.2).

    Reports every ``(τ, κ)``-UNION-durable pair, plus possibly some
    ``((1 − 1/e)·τ, κ)``-UNION-durable ε-pairs: the per-pair aggregate is
    the greedy max-κ-coverage of the window ``I_p ∩ I_q`` by witness
    lifespans, accepted when it reaches ``(1 − 1/e)·τ``.
    """

    #: The greedy approximation factor of max-κ-coverage.
    GREEDY_FACTOR = 1.0 - 1.0 / np.e

    def __init__(
        self,
        tps: TemporalPointSet,
        epsilon: float = 0.5,
        backend: str = "auto",
    ) -> None:
        super().__init__(tps, epsilon, backend)
        self._overlaps: List[MaxOverlapIndex] = []
        for g in self.structure.groups:
            ids = g.member_ids
            self._overlaps.append(
                MaxOverlapIndex(
                    [float(tps.starts[i]) for i in ids],
                    [float(tps.ends[i]) for i in ids],
                    ids,
                )
            )

    # ------------------------------------------------------------------
    def query(self, tau: float, kappa: int) -> List[PairRecord]:
        """All ``(τ, κ)``-UNION-durable pairs (plus factor-relaxed ε-pairs)."""
        self._check_params(tau)
        if not (isinstance(kappa, (int, np.integer)) and kappa >= 1):
            raise ValidationError(f"kappa must be a positive integer, got {kappa!r}")
        out: List[PairRecord] = []
        tps = self.tps
        dec = self.structure.decomposition
        target = self.GREEDY_FACTOR * tau
        for p in self._eligible_anchors(tau):
            subsets = self.structure.query(p, tau)
            if not subsets:
                continue
            candidate = dec.candidate_groups(tps.points[p], 1.0)
            sp, ep = float(tps.starts[p]), float(tps.ends[p])
            for subset in subsets:
                j = subset.group.index
                witnesses = self._witness_groups(candidate, j)
                if not witnesses:
                    continue
                for eq, q in subset.members.iter_desc_by_end():
                    hi = min(ep, eq)
                    covered = self.greedy_union(
                        sp, hi, witnesses, kappa, exclude=(p, q)
                    )
                    if covered >= target:
                        out.append(PairRecord(p=p, q=q, score=covered))
                    else:
                        break
        return out

    # ------------------------------------------------------------------
    def greedy_union(
        self,
        lo: float,
        hi: float,
        witness_groups: Sequence[int],
        kappa: int,
        exclude: Tuple[int, int],
    ) -> float:
        """Greedy max-κ-coverage of ``[lo, hi]`` (the core of Algorithm 8).

        Maintains a max-heap of ``(best witness, uncovered segment)``
        pairs; each of the κ iterations commits the globally best
        overlap, splits its segment, and refreshes the two remainders
        with a ``MaxIntersection`` query each.
        """
        if hi <= lo:
            return 0.0
        excl = set(exclude)
        counter = 0
        heap: List[Tuple[float, int, float, float, int, float, float]] = []

        def push(seg_lo: float, seg_hi: float) -> None:
            nonlocal counter
            if seg_hi <= seg_lo:
                return
            best: Optional[Tuple[float, int, float, float]] = None
            for gi in witness_groups:
                cand = self._overlaps[gi].best_overlap(seg_lo, seg_hi, exclude=excl)
                if cand is not None and (best is None or cand[0] > best[0]):
                    best = cand
            if best is None:
                return
            overlap, _pid, w_lo, w_hi = best
            counter += 1
            heapq.heappush(heap, (-overlap, counter, seg_lo, seg_hi, _pid, w_lo, w_hi))

        push(lo, hi)
        covered = 0.0
        for _ in range(kappa):
            if not heap:
                break
            neg_overlap, _, seg_lo, seg_hi, _pid, w_lo, w_hi = heapq.heappop(heap)
            overlap = -neg_overlap
            if overlap <= 0:
                break
            covered += overlap
            # Split the segment around the chosen witness interval.
            push(seg_lo, min(seg_hi, w_lo))
            push(max(seg_lo, w_hi), seg_hi)
        return covered

    def union_score(self, p: int, q: int, kappa: int) -> float:
        """The greedy aggregate for one pair (diagnostics/tests)."""
        tps = self.tps
        dec = self.structure.decomposition
        sp = max(float(tps.starts[p]), float(tps.starts[q]))
        hi = min(float(tps.ends[p]), float(tps.ends[q]))
        candidate = dec.candidate_groups(tps.points[p], 1.0)
        witnesses = self._witness_groups(candidate, self.structure.group_index_of(q))
        if not witnesses:
            return 0.0
        return self.greedy_union(sp, hi, witnesses, kappa, exclude=(p, q))
