"""τ frontiers: answer a τ′ ≥ τ₀ by narrowing the block computed at τ₀.

The paper's interactive setting rests on ``T_τ′ ⊆ T_τ`` for ``τ′ ≥ τ``
(§4, Theorem 4.2).  A plan whose index can narrow its answers
(``plan.narrow``: the four served ``vector`` families) keeps one
*frontier* in the cache entry of that index: the
:class:`~repro.blocks.RecordBlock` of the lowest τ served for one
``(κ, m)``, plus each record's JSON text once it is first encoded.  A
τ′ ≥ τ₀ with the same ``(κ, m)`` is then one pass of the kernel's own τ
tests over the frontier's rows and one ``", ".join`` of the kept texts;
a τ′ < τ₀, or another ``(κ, m)``, runs the kernel and replaces the
frontier (DESIGN.md note 11).

The frontier lives in the :class:`~repro.engine.cache.IndexCache` entry
beside the index, never on it, so queries stay read-only and the
frontier is freed with the entry (LRU eviction, a dataset's removal).
An append's ``advance`` carries it into the maintained entry: the
index's ``carry`` reruns the kernel at the kept τ₀ and ``(κ, m)`` only
over the anchors an appended point can change, and keeps every other
anchor's rows and texts (DESIGN.md note 12).  One slot per entry bounds what an
entry keeps at :data:`FRONTIER_CAP` records however many κ or m its
queries ask for.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..blocks import RecordBlock
    from .planner import QueryPlan

__all__ = ["FRONTIER_CAP", "Frontier", "sweep"]

#: Records above which a block is answered but never kept.
FRONTIER_CAP = 1 << 16


class Frontier:
    """The lowest-τ block served from one cached index for one
    ``(κ, m)``: one slot, which another ``(κ, m)`` replaces."""

    def __init__(self, kept: Optional[Tuple[tuple, float, "RecordBlock"]] = None) -> None:
        self._lock = threading.Lock()
        self._kept = kept

    def kept(self) -> Optional[Tuple[tuple, float, "RecordBlock"]]:
        """``(params, τ₀, block)`` kept, or ``None``."""
        with self._lock:
            return self._kept

    def get(self, params: tuple) -> Optional[Tuple[float, "RecordBlock"]]:
        """``(τ₀, block)`` kept for ``params``, or ``None``."""
        kept = self.kept()
        if kept is None or kept[0] != params:
            return None
        return kept[1], kept[2]

    def answering(self, params: tuple, tau: float) -> Optional["Frontier"]:
        """A copy of this frontier, which nothing else lowers, when it
        narrows every τ′ ≥ ``tau`` for ``params``; else ``None``."""
        kept = self.kept()
        if kept is None or kept[0] != params or kept[1] > tau:
            return None
        return Frontier(kept)

    def lower(self, params: tuple, tau: float, block: "RecordBlock") -> None:
        """Keep ``block`` if it is within :data:`FRONTIER_CAP` and either
        ``params`` differ from the kept ones or ``tau`` lies below the
        kept τ₀."""
        if len(block) > FRONTIER_CAP:
            return
        with self._lock:
            kept = self._kept
            if kept is None or kept[0] != params or tau < kept[1]:
                self._kept = (params, tau, block)


def sweep(
    plan: "QueryPlan", index: Any, frontier: Optional[Frontier]
) -> Tuple["OrderedDict[float, Sequence[Any]]", int]:
    """Every τ of ``plan.spec`` answered on ``index``, in the spec's
    order, and how many of them were narrowed.

    With a ``frontier`` and a ``plan.narrow``, the τs run smallest
    first.  A τ at or above the frontier's τ₀ is narrowed from its
    block; a lower one is computed by ``plan.runner``, lowers the
    frontier, and is the block the sweep's higher τs narrow from (kept
    or not).  Otherwise each τ is ``plan.runner(index, tau)``.
    """
    spec, runner, narrow = plan.spec, plan.runner, plan.narrow
    if frontier is None or narrow is None:
        return OrderedDict((tau, runner(index, tau)) for tau in spec.taus), 0
    params = (spec.kappa, spec.m)
    base = frontier.get(params)
    answers = {}
    hits = 0
    for tau in sorted(set(spec.taus)):
        if base is not None and base[0] <= tau:
            answers[tau] = narrow(index, base[1], tau)
            hits += 1
        else:
            block = runner(index, tau)
            # The kept block is never handed out, so record objects a
            # caller builds die with the answer.
            answers[tau] = block.take()
            frontier.lower(params, tau, block)
            base = (tau, block)
    return OrderedDict((tau, answers[tau]) for tau in spec.taus), hits
