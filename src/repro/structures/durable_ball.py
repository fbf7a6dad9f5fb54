"""The durable-ball structures ``D`` and ``D'`` (Section 2.2).

``D`` composes a spatial decomposition (cover tree or grid) with one
:class:`~repro.temporal.dominance.DominanceIndex` per canonical ball.
Its query ``durableBallQ(p, τ, ε)`` returns, as implicitly-represented
canonical subsets, every point ``q`` with

* ``φ(p, q) ≤ 1`` (possibly up to ``1 + ε``),
* ``(I⁻_q, id_q) <lex (I⁻_p, id_p)``  (``p`` anchors; DESIGN.md note 1), and
* ``I⁺_q ≥ I⁻_p + τ``  (equivalently ``|I_p ∩ I_q| ≥ τ`` and ``I⁻_p ∈ I_q``).

``D'`` extends the query with the split threshold ``τ≺`` of Section 4,
partitioning each subset into ``Λ`` (ends inside ``[I⁻_p+τ, I⁻_p+τ≺)``)
and ``Λ̄`` (ends ``≥ I⁻_p + τ≺``).  Both run over the same structure here
(the dominance index supports the split natively), so there is no extra
log factor in this implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import ValidationError
from ..structures.decomposition import (
    GEOMETRY_SLACK,
    CanonicalGroup,
    SpatialDecomposition,
)
from ..temporal.dominance import DominanceIndex, RunSet
from ..types import TemporalPointSet

__all__ = [
    "BallSubset",
    "SplitBallSubset",
    "DurableBallStructure",
    "make_decomposition",
    "resolve_backend",
]

_INF = float("inf")


def resolve_backend(backend: str) -> str:
    """Canonical *structure-level* backend name: ``auto`` resolves to
    the cover tree (the paper's general-metric structure).

    This is the fallback rule for code paths that construct a
    :class:`DurableBallStructure` directly with ``backend="auto"`` (the
    dynamic/incremental sessions, ad-hoc scripts); the engine planner
    resolves ``auto`` earlier — through the backend registry
    (:meth:`repro.backends.registry.BackendRegistry.resolve`) — and
    always hands the index classes a concrete name, which this
    function leaves untouched.  Cache keys rely on that: the backend a
    descriptor's ``index_identity`` names is the concrete backend that
    builds the index.
    """
    return "cover-tree" if backend == "auto" else backend


def make_decomposition(
    tps: TemporalPointSet, resolution: float, backend: str = "auto"
) -> SpatialDecomposition:
    """Build the spatial decomposition for a point set.

    ``backend`` is ``"auto"`` (cover tree, the paper's general-metric
    structure) or the name of any *spatial* backend registered on the
    backend registry — ``"cover-tree"`` and ``"grid"`` out of the box.
    Unknown names raise :class:`~repro.errors.BackendError` listing the
    registered spatial backends.
    """
    # Imported here, not at module scope: the registry's built-in
    # descriptors construct the index classes, which import this module.
    from ..backends.registry import default_registry

    backend = resolve_backend(backend)
    descriptor = default_registry().get_spatial(backend)
    return descriptor.decomposition_factory(tps.points, tps.metric, resolution)


@dataclass(slots=True)
class BallSubset:
    """One canonical subset ``C_{p,j}`` returned by ``durableBallQ``."""

    group: CanonicalGroup
    members: RunSet

    @property
    def count(self) -> int:
        return self.members.count

    def ids(self) -> List[int]:
        return self.members.ids()


@dataclass(slots=True)
class SplitBallSubset:
    """One canonical subset split into ``Λ`` / ``Λ̄`` (``durableBallQ'``)."""

    group: CanonicalGroup
    lam: RunSet
    lam_bar: RunSet

    @property
    def count(self) -> int:
        return self.lam.count + self.lam_bar.count


class DurableBallStructure:
    """``D`` / ``D'``: spatial decomposition + per-ball dominance indexes.

    Parameters
    ----------
    tps:
        The temporal point set ``(P, φ, I)``.
    resolution:
        Maximum canonical-ball radius; the triangle algorithms pass
        ``ε/4`` (see Algorithm 1's use of ``durableBallQ(p, τ, ε/2)``).
    backend:
        Spatial backend (``"cover-tree"``, ``"grid"``, ``"auto"``).
    """

    def __init__(
        self,
        tps: TemporalPointSet,
        resolution: float,
        backend: str = "auto",
    ) -> None:
        if resolution <= 0:
            raise ValidationError(f"resolution must be positive, got {resolution!r}")
        self.tps = tps
        self.resolution = float(resolution)
        self.decomposition = make_decomposition(tps, self.resolution, backend)
        self.indexes: List[DominanceIndex] = []
        for g in self.decomposition.groups:
            ids = g.member_ids
            self.indexes.append(
                DominanceIndex(
                    [float(tps.starts[i]) for i in ids],
                    [float(tps.ends[i]) for i in ids],
                    ids,
                )
            )

    # ------------------------------------------------------------------
    @property
    def groups(self) -> Sequence[CanonicalGroup]:
        return self.decomposition.groups

    def group_index_of(self, point_id: int) -> int:
        """The canonical group containing a point."""
        return int(self.decomposition.group_of[point_id])

    # ------------------------------------------------------------------
    def query(
        self,
        anchor: int,
        tau: float,
        radius: float = 1.0,
        min_end: Optional[float] = None,
    ) -> List[BallSubset]:
        """``durableBallQ(p, τ, ·)`` for anchor point ``p = anchor``.

        Returns only non-empty canonical subsets.  ``radius`` widens the
        spatial ball for the pattern extensions of Appendix D (paths use
        ``m−1``, stars use ``2``).  ``min_end`` optionally *raises* the
        temporal threshold above ``I⁻_p + τ`` (used by activation
        search).
        """
        sp = float(self.tps.starts[anchor])
        key = (sp, int(anchor))
        threshold = sp + tau if min_end is None else max(sp + tau, min_end)
        out: List[BallSubset] = []
        for gi in self.decomposition.candidate_groups(self.tps.points[anchor], radius):
            runs = self.indexes[gi].stab(key, threshold)
            if not runs.is_empty:
                out.append(BallSubset(self.decomposition.groups[gi], runs))
        return out

    def query_split(
        self,
        anchor: int,
        tau: float,
        tau_prec: float,
        radius: float = 1.0,
    ) -> List[SplitBallSubset]:
        """``durableBallQ'(p, τ, τ≺, ·)`` — Section 4's refined partitioning.

        ``Λ`` holds partners whose lifespan ends inside
        ``[I⁻_p + τ, I⁻_p + τ≺)``; ``Λ̄`` those ending at or after
        ``I⁻_p + τ≺``.  Only subsets with at least one member in either
        part are returned.
        """
        if tau_prec < tau:
            raise ValidationError(
                f"tau_prec ({tau_prec!r}) must be at least tau ({tau!r})"
            )
        sp = float(self.tps.starts[anchor])
        key = (sp, int(anchor))
        lo = sp + tau
        split = sp + tau_prec if tau_prec != _INF else _INF
        out: List[SplitBallSubset] = []
        for gi in self.decomposition.candidate_groups(self.tps.points[anchor], radius):
            lam, lam_bar = self.indexes[gi].stab_split(key, lo, split)
            if lam.count or lam_bar.count:
                out.append(
                    SplitBallSubset(self.decomposition.groups[gi], lam, lam_bar)
                )
        return out

    # ------------------------------------------------------------------
    def linked(self, a: CanonicalGroup, b: CanonicalGroup, threshold: float = 1.0) -> bool:
        """Pairing test of Algorithm 1: ``φ(Rep_i, Rep_j) ≤ 1 + r_i + r_j``."""
        d = self.decomposition.metric.dist(a.rep, b.rep)
        return d <= threshold + a.radius_bound + b.radius_bound + GEOMETRY_SLACK
