"""Durable cliques, paths and stars — Appendix D.2.

All three extensions reuse the anchor discipline of Algorithm 1: a
pattern is reported exactly once, at the member ``p`` whose ``(I⁻, id)``
is lexicographically largest, and all other members must satisfy the
``durableBallQ`` temporal predicate with respect to ``p``.  They differ
in the spatial search radius around the anchor:

* cliques: radius 1 (every member is adjacent to ``p``);
* paths of ``m`` vertices: radius ``m − 1`` (members can be ``m − 1``
  hops away — the paper's sketch reuses ``C_p`` and would miss the far
  end of a path, so we widen the ball query; DESIGN.md);
* stars: radius 2, as in the paper (``p`` may be a leaf whose center is
  another point).

Adjacency between members is decided at the canonical-ball level
(``φ(Rep_i, Rep_j) ≤ 1 + r_i + r_j``), giving the usual sandwich
guarantee: every exact τ-durable pattern is reported, every report is a
τ-durable ε-pattern.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterator, List, Sequence, Set, Tuple

import numpy as np

from ..errors import ValidationError
from ..structures.durable_ball import DurableBallStructure, resolve_backend
from ..temporal.interval import Interval
from ..types import PatternRecord, TemporalPointSet

__all__ = [
    "PatternIndex",
    "find_durable_cliques",
    "find_durable_paths",
    "find_durable_stars",
]


class PatternIndex:
    """Shared machinery for the Appendix D pattern reporters."""

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
        self.structure = DurableBallStructure(tps, epsilon / 4.0, backend)

    # ------------------------------------------------------------------
    def _anchor_context(
        self, anchor: int, tau: float, radius: float
    ) -> Tuple[List[int], Dict[int, int], List[object]]:
        """Candidates around an anchor plus their ball assignments.

        Returns ``(candidate_ids, ball_of, groups)`` where ``ball_of``
        maps a candidate id to its index into ``groups``.
        """
        subsets = self.structure.query(anchor, tau, radius=radius)
        candidates: List[int] = []
        ball_of: Dict[int, int] = {}
        groups: List[object] = []
        for s in subsets:
            gi = len(groups)
            groups.append(s.group)
            for pid in s.ids():
                candidates.append(pid)
                ball_of[pid] = gi
        # The anchor participates too; track its own ball.
        own = self.structure.groups[self.structure.group_index_of(anchor)]
        ball_of[anchor] = len(groups)
        groups.append(own)
        return candidates, ball_of, groups

    def _link_table(self, groups: Sequence[object]) -> List[List[bool]]:
        k = len(groups)
        table = [[False] * k for _ in range(k)]
        for i in range(k):
            table[i][i] = True
            for j in range(i + 1, k):
                linked = self.structure.linked(groups[i], groups[j])  # type: ignore[arg-type]
                table[i][j] = table[j][i] = linked
        return table

    def _lifespan(self, members: Sequence[int]) -> Interval:
        return self.tps.pattern_lifespan(members)

    def _eligible_anchors(self, tau: float) -> Iterator[int]:
        durations = self.tps.ends - self.tps.starts
        for p in np.nonzero(durations >= tau)[0]:
            yield int(p)

    @staticmethod
    def _check(m: int, tau: float) -> None:
        if m < 2:
            raise ValidationError(f"pattern size must be at least 2, got {m!r}")
        if tau <= 0:
            raise ValidationError(f"durability parameter must be positive, got {tau!r}")

    # ------------------------------------------------------------------
    # Cliques
    # ------------------------------------------------------------------
    def iter_cliques(self, m: int, tau: float) -> Iterator[PatternRecord]:
        """τ-durable ``m``-cliques (plus some ε-cliques), each once."""
        self._check(m, tau)
        for p in self._eligible_anchors(tau):
            yield from self._cliques_for_anchor(p, m, tau)

    def _cliques_for_anchor(self, p: int, m: int, tau: float) -> Iterator[PatternRecord]:
        candidates, ball_of, groups = self._anchor_context(p, tau, radius=1.0)
        if len(candidates) < m - 1:
            return
        link = self._link_table(groups)
        p_ball = ball_of[p]
        by_ball: Dict[int, List[int]] = {}
        for c in candidates:
            by_ball.setdefault(ball_of[c], []).append(c)
        ball_ids = sorted(by_ball)
        # Choose a multiset of mutually-linked balls (all linked to p's
        # ball as well), then expand point combinations inside each.
        def recurse(idx: int, chosen: List[int], left: int) -> Iterator[List[int]]:
            if left == 0:
                yield list(chosen)
                return
            for pos in range(idx, len(ball_ids)):
                b = ball_ids[pos]
                if not link[b][p_ball]:
                    continue
                if any(not link[b][c] for c in chosen):
                    continue
                avail = len(by_ball[b])
                for take in range(1, min(avail, left) + 1):
                    chosen_b = chosen + [b] * take
                    # Recurse over strictly later balls.
                    for rest in recurse(pos + 1, chosen_b, left - take):
                        yield rest

        for multiset in recurse(0, [], m - 1):
            counts: Dict[int, int] = {}
            for b in multiset:
                counts[b] = counts.get(b, 0) + 1
            yield from self._expand_products(p, counts, by_ball, tau)

    def _expand_products(
        self,
        p: int,
        counts: Dict[int, int],
        by_ball: Dict[int, List[int]],
        tau: float,
    ) -> Iterator[PatternRecord]:
        balls = sorted(counts)
        choices: List[List[Tuple[int, ...]]] = [
            list(combinations(sorted(by_ball[b]), counts[b])) for b in balls
        ]

        def product(idx: int, acc: List[int]) -> Iterator[PatternRecord]:
            if idx == len(choices):
                members = tuple(sorted([p, *acc]))
                yield PatternRecord(
                    kind="clique", members=members, lifespan=self._lifespan(members)
                )
                return
            for combo in choices[idx]:
                yield from product(idx + 1, acc + list(combo))

        yield from product(0, [])

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def iter_paths(self, m: int, tau: float) -> Iterator[PatternRecord]:
        """τ-durable ``m``-vertex paths (plus some ε-paths).

        Reported once per undirected path, oriented so the first
        endpoint has the smaller id.
        """
        self._check(m, tau)
        for p in self._eligible_anchors(tau):
            yield from self._paths_for_anchor(p, m, tau)

    def _paths_for_anchor(self, p: int, m: int, tau: float) -> Iterator[PatternRecord]:
        radius = float(m - 1)
        candidates, ball_of, groups = self._anchor_context(p, tau, radius=radius)
        nodes = candidates + [p]
        if len(nodes) < m:
            return
        link = self._link_table(groups)

        def admissible(a: int, b: int) -> bool:
            return link[ball_of[a]][ball_of[b]]

        def dfs(path: List[int], used: Set[int]) -> Iterator[PatternRecord]:
            if len(path) == m:
                if p in used and path[0] < path[-1]:
                    members = tuple(path)
                    yield PatternRecord(
                        kind="path", members=members, lifespan=self._lifespan(members)
                    )
                return
            # Prune: p must still be reachable into the path.
            if p not in used and len(path) + (m - len(path)) < m:
                return
            for nxt in nodes:
                if nxt in used or not admissible(path[-1], nxt):
                    continue
                if p not in used and len(path) + 1 == m and nxt != p:
                    continue
                path.append(nxt)
                used.add(nxt)
                yield from dfs(path, used)
                path.pop()
                used.remove(nxt)

        for start in nodes:
            yield from dfs([start], {start})

    # ------------------------------------------------------------------
    # Stars
    # ------------------------------------------------------------------
    def iter_stars(self, m: int, tau: float) -> Iterator[PatternRecord]:
        """τ-durable ``m``-stars (center + ``m−1`` leaves), each once.

        The anchor may be the center or any leaf; the search ball has
        radius 2 as in Appendix D.2.
        """
        self._check(m, tau)
        for p in self._eligible_anchors(tau):
            yield from self._stars_for_anchor(p, m, tau)

    def star_summaries(self, m: int, tau: float) -> List[Tuple[int, List[int]]]:
        """Compact star reporting: ``(center, leaf candidates)`` pairs.

        The implicit form matching the paper's description — the full
        enumeration is the Cartesian expansion done by
        :meth:`iter_stars`.
        """
        self._check(m, tau)
        out: List[Tuple[int, List[int]]] = []
        for p in self._eligible_anchors(tau):
            for center, leaves, need in self._star_centers(p, m, tau):
                if len(leaves) >= need:
                    out.append((center, sorted(leaves)))
        return out

    def _star_centers(
        self, p: int, m: int, tau: float
    ) -> Iterator[Tuple[int, List[int], int]]:
        candidates, ball_of, groups = self._anchor_context(p, tau, radius=2.0)
        nodes = candidates + [p]
        if len(nodes) < m:
            return
        link = self._link_table(groups)
        for center in nodes:
            cb = ball_of[center]
            leaves = [x for x in nodes if x != center and link[cb][ball_of[x]]]
            if center == p:
                yield center, leaves, m - 1
            elif p in leaves:
                yield center, leaves, m - 1
        return

    def _stars_for_anchor(self, p: int, m: int, tau: float) -> Iterator[PatternRecord]:
        for center, leaves, need in self._star_centers(p, m, tau):
            if center == p:
                pool = sorted(leaves)
                for combo in combinations(pool, m - 1):
                    members = (center, *combo)
                    yield PatternRecord(
                        kind="star", members=members, lifespan=self._lifespan(members)
                    )
            else:
                pool = sorted(x for x in leaves if x != p)
                for combo in combinations(pool, m - 2):
                    members = (center, *tuple(sorted([p, *combo])))
                    yield PatternRecord(
                        kind="star", members=members, lifespan=self._lifespan(members)
                    )


def find_durable_cliques(
    tps: TemporalPointSet,
    m: int,
    tau: float,
    epsilon: float = 0.5,
    backend: str = "auto",
) -> List[PatternRecord]:
    """All τ-durable ``m``-cliques (plus some τ-durable ε-cliques)."""
    return list(PatternIndex(tps, epsilon, backend).iter_cliques(m, tau))


def find_durable_paths(
    tps: TemporalPointSet,
    m: int,
    tau: float,
    epsilon: float = 0.5,
    backend: str = "auto",
) -> List[PatternRecord]:
    """All τ-durable ``m``-vertex paths (plus some τ-durable ε-paths)."""
    return list(PatternIndex(tps, epsilon, backend).iter_paths(m, tau))


def find_durable_stars(
    tps: TemporalPointSet,
    m: int,
    tau: float,
    epsilon: float = 0.5,
    backend: str = "auto",
) -> List[PatternRecord]:
    """All τ-durable ``m``-stars (plus some τ-durable ε-stars)."""
    return list(PatternIndex(tps, epsilon, backend).iter_stars(m, tau))
