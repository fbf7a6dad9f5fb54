"""Compile pattern ASTs onto the planner's shared-index primitives.

A compiled pattern is an ordinary :class:`~repro.engine.planner.QueryPlan`
whose ``stages`` name every distinct index the pattern needs — one
:class:`~repro.engine.planner.PlanStage` per distinct
:class:`~repro.engine.cache.IndexKey`, minted by the *same* planner
function the legacy kinds use (:func:`~repro.engine.planner.lower_primitive`).
Two consequences fall out:

* stage keys are bit-identical to the keys the equivalent legacy query
  would emit, so DSL and legacy queries share indexes through the
  single-flight :class:`~repro.engine.cache.IndexCache`;
* a pattern with five pair sub-patterns over one dataset compiles to
  **one** pair-index stage — deduplication happens at key level, before
  anything is built.

The runner closed over the AST evaluates combinators bottom-up at query
time (so one compiled plan answers a τ-sweep) with the semantics
documented in ``docs/query_language.md``:

``seq``
    Component matches ordered by lifespan start
    (``start(c_{i+1}) >= start(c_i)``); ``gap=[lo, hi]`` bounds each
    consecutive start delta.  Composite lifespan = span hull.
``all``
    Joint lifespan intersection of all components must be at least the
    node's effective τ.  Composite lifespan = the intersection.

Components of one match are pairwise *distinct* (by canonical record
key), so ``seq(pairs, pairs)`` never degenerately matches a pair with
itself.  A primitive *root* returns the legacy records untouched —
the DSL spelling of a legacy kind is record-for-record identical to
the native kind (property-tested in ``tests/test_query_language.py``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..errors import ValidationError
from ..temporal.interval import Interval, intersect_many
from ..types import TemporalPointSet
from .ast import (
    AllNode,
    PairsNode,
    PatternNode,
    SeqNode,
    ShapeNode,
    TrianglesNode,
)
from .records import ComposedRecord

__all__ = ["compile_pattern", "MAX_COMBINATIONS"]

#: Hard bound on in-flight combinator combinations per evaluation —
#: a cross product past this point signals an unconstrained pattern,
#: not a workload the engine should grind through.
MAX_COMBINATIONS = 1_000_000

_SHAPE_ITERATORS = {
    "clique": "iter_cliques",
    "path": "iter_paths",
    "star": "iter_stars",
}


def _leaf_spec(node: PatternNode, spec: Any) -> Any:
    """The legacy :class:`QuerySpec` a primitive leaf lowers to.

    Only the index-identity-bearing fields matter here (kind, ε,
    backend, sum_backend, exact): τ is a query-time parameter for every
    family, so the leaf spec borrows the parent's taus verbatim.
    """
    from ..engine.spec import QuerySpec

    common = dict(taus=spec.taus, epsilon=spec.epsilon, backend=spec.backend)
    if isinstance(node, TrianglesNode):
        return QuerySpec(kind="triangles", exact=node.exact, **common)
    if isinstance(node, ShapeNode):
        kind = {"clique": "cliques", "path": "paths", "star": "stars"}[node.shape]
        return QuerySpec(kind=kind, m=node.m, **common)
    if isinstance(node, PairsNode):
        if node.agg == "sum":
            return QuerySpec(
                kind="pairs-sum", sum_backend=spec.sum_backend, **common
            )
        return QuerySpec(kind="pairs-union", kappa=node.kappa, **common)
    raise ValidationError(f"unexpected pattern node {type(node).__name__}")


class _Match:
    """One component match: the record plus its composite interval."""

    __slots__ = ("record", "interval")

    def __init__(self, record: Any, interval: Interval) -> None:
        self.record = record
        self.interval = interval

    @property
    def key(self) -> Any:
        return self.record.key


def _primitive_matches(
    node: PatternNode,
    index: Any,
    tau: float,
    tps: TemporalPointSet,
) -> List[_Match]:
    if isinstance(node, TrianglesNode):
        records = index.query(tau)
        return [_Match(r, r.lifespan) for r in records]
    if isinstance(node, ShapeNode):
        iterate = getattr(index, _SHAPE_ITERATORS[node.shape])
        return [_Match(r, r.lifespan) for r in iterate(node.m, tau)]
    # PairsNode: PairRecord carries no lifespan; derive it from the pair.
    if node.agg == "union":
        records = index.query(tau, node.kappa)
    else:
        records = index.query(tau)
    return [_Match(r, tps.pattern_lifespan((r.p, r.q))) for r in records]


def _dur_filter(matches: List[_Match], dur: Optional[Tuple[float, float]]) -> List[_Match]:
    if dur is None:
        return matches
    lo, hi = dur
    return [m for m in matches if lo <= m.interval.length <= hi]


def _combine_seq(
    parts: List[List[_Match]], gap: Optional[Tuple[float, float]]
) -> List[Tuple[_Match, ...]]:
    combos: List[Tuple[_Match, ...]] = [(m,) for m in parts[0]]
    for nxt in parts[1:]:
        by_start = sorted(nxt, key=lambda m: (m.interval.start, m.interval.end))
        grown: List[Tuple[_Match, ...]] = []
        for combo in combos:
            prev_start = combo[-1].interval.start
            for match in by_start:
                delta = match.interval.start - prev_start
                if delta < 0:
                    continue
                if gap is not None and delta < gap[0]:
                    continue
                if gap is not None and delta > gap[1]:
                    break  # sorted by start: every later delta is larger
                if any(match.key == c.key for c in combo):
                    continue
                grown.append(combo + (match,))
                if len(grown) > MAX_COMBINATIONS:
                    raise ValidationError(
                        "pattern produced more than "
                        f"{MAX_COMBINATIONS} seq combinations; "
                        "tighten gap/dur/tau constraints"
                    )
        combos = grown
        if not combos:
            break
    return combos


def _combine_all(parts: List[List[_Match]]) -> List[Tuple[_Match, ...]]:
    combos: List[Tuple[_Match, ...]] = [(m,) for m in parts[0]]
    for nxt in parts[1:]:
        grown: List[Tuple[_Match, ...]] = []
        for combo in combos:
            for match in nxt:
                if not combo[-1].interval.overlaps(match.interval):
                    # Necessary condition for a non-empty joint
                    # intersection — a cheap reject before the product
                    # grows (the final intersect_many stays the truth).
                    continue
                if any(match.key == c.key for c in combo):
                    continue
                grown.append(combo + (match,))
                if len(grown) > MAX_COMBINATIONS:
                    raise ValidationError(
                        "pattern produced more than "
                        f"{MAX_COMBINATIONS} all combinations; "
                        "tighten dur/tau constraints"
                    )
        combos = grown
        if not combos:
            break
    return combos


def _evaluate(
    node: PatternNode,
    stage_of: Dict[int, str],
    indexes: Mapping[str, Any],
    tau: float,
    tps: TemporalPointSet,
) -> List[_Match]:
    node_tau = node.tau if node.tau is not None else tau
    if isinstance(node, SeqNode):
        parts = [
            _evaluate(p, stage_of, indexes, node_tau, tps) for p in node.parts
        ]
        out: List[_Match] = []
        for combo in _combine_seq(parts, node.gap):
            hull = Interval(
                min(m.interval.start for m in combo),
                max(m.interval.end for m in combo),
            )
            out.append(
                _Match(
                    ComposedRecord(
                        "seq", tuple(m.record for m in combo), hull
                    ),
                    hull,
                )
            )
        return _dur_filter(out, node.dur)
    if isinstance(node, AllNode):
        parts = [
            _evaluate(p, stage_of, indexes, node_tau, tps) for p in node.parts
        ]
        out = []
        for combo in _combine_all(parts):
            joint = intersect_many(m.interval for m in combo)
            if joint.is_empty or joint.length < node_tau:
                continue
            out.append(
                _Match(
                    ComposedRecord(
                        "all", tuple(m.record for m in combo), joint
                    ),
                    joint,
                )
            )
        return _dur_filter(out, node.dur)
    index = indexes[stage_of[id(node)]]
    return _dur_filter(
        _primitive_matches(node, index, node_tau, tps), node.dur
    )


def compile_pattern(order: int, spec: Any, tps: TemporalPointSet, registry: Any = None):
    """Lower ``spec.pattern`` to a staged :class:`QueryPlan`.

    Every primitive leaf lowers through
    :func:`~repro.engine.planner.lower_primitive` exactly as its legacy
    kind would; distinct leaves that lower to the same
    :class:`IndexKey` share one stage.  Validation failures (a leaf the
    registry rejects, e.g. ``exact=True`` off the ℓ∞ metric) surface as
    :class:`~repro.errors.ValidationError` at plan time.
    """
    from ..engine.cache import IndexKey
    from ..engine.planner import PlanStage, QueryPlan, lower_primitive

    root: PatternNode = spec.pattern
    if root is None:
        raise ValidationError("pattern-dsl queries require a pattern payload")

    stages: List[PlanStage] = []
    stage_by_key: Dict[Any, str] = {}
    stage_of: Dict[int, str] = {}

    def lower(node: PatternNode) -> None:
        if isinstance(node, (SeqNode, AllNode)):
            for part in node.parts:
                lower(part)
            return
        key, leaf_builder = lower_primitive(_leaf_spec(node, spec), tps, registry)
        name = stage_by_key.get(key)
        if name is None:
            name = f"s{len(stages)}"
            stage_by_key[key] = name
            stages.append(PlanStage(name=name, key=key, builder=leaf_builder))
        stage_of[id(node)] = name

    lower(root)

    def runner(indexes: Mapping[str, Any], tau: float) -> List[Any]:
        matches = _evaluate(root, stage_of, indexes, tau, tps)
        return [m.record for m in matches]

    def builder() -> Any:
        raise ValidationError(
            "pattern-dsl plans build per-stage indexes; "
            "use the plan's stages, not its composite key"
        )

    return QueryPlan(
        order=order,
        spec=spec,
        key=IndexKey("pattern-dsl", tps.fingerprint(), spec.epsilon, "dsl", ()),
        builder=builder,
        runner=runner,
        stages=tuple(stages),
    )
