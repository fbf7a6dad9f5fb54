"""Declarative query specifications for the batched engine.

A :class:`QuerySpec` names *what* to report — pattern kind, durability
threshold(s), approximation and backend parameters — without touching
any index machinery.  The planner (:mod:`repro.engine.planner`) maps a
spec onto an index family and a cache key so that all specs that can
legally share one preprocessing pass do so (the "one index, many
reports" regime the paper's Theorems 3.1/4.2/5.1/5.2 are built around).

Specs are plain frozen dataclasses: hashable, comparable, serialisable
via :meth:`QuerySpec.to_dict` / :meth:`QuerySpec.from_dict` (the wire
format of ``python -m repro batch``).
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple, Union

import numpy as np

from ..backends.registry import default_registry
from ..errors import ValidationError

__all__ = ["KINDS", "QuerySpec", "apply_default_backend"]

#: Integral types accepted for κ and m (numpy scalars included, as the
#: core solvers always have).
_INTEGRAL = (int, np.integer)


def _as_float(value: Any, what: str) -> float:
    """Coerce a numeric parameter, raising :class:`ValidationError` (not a
    bare ``ValueError``/``TypeError``) on junk so CLI error handling holds."""
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be a number, got {value!r}") from exc

#: The primitive query kinds: :func:`~repro.engine.planner.plan_query`
#: lowers each onto one shared index (the three pattern kinds share
#: one).  A spec also accepts :data:`DSL_KIND`.
KINDS = (
    "triangles",
    "cliques",
    "paths",
    "stars",
    "pairs-sum",
    "pairs-union",
)

#: Kinds served by the shared :class:`~repro.core.patterns.PatternIndex`.
PATTERN_KINDS = ("cliques", "paths", "stars")

#: The declarative-pattern kind compiled by :mod:`repro.lang`.
DSL_KIND = "pattern-dsl"

#: Every kind a spec accepts.
_ACCEPTED_KINDS = KINDS + (DSL_KIND,)


def apply_default_backend(
    queries: Iterable[Any], default: Optional[str]
) -> list:
    """Inject a default backend into query mappings that name none.

    The one precedence rule for both ``python -m repro batch
    --backend`` and the serving layer's per-dataset ``default_backend``
    (keep them in lockstep — change it here, both surfaces follow):

    * an explicit per-query ``"backend"`` always wins;
    * the default applies only to queries whose kind the backend
      actually serves — a triangles-only default (``linf-exact``) on a
      mixed batch pins the triangle queries and leaves the rest on
      ``auto`` dispatch instead of failing them;
    * ``None``/``"auto"`` defaults are no-ops;
    * an unknown default name raises immediately
      (:class:`~repro.errors.BackendError`), even when every query
      names its own backend.

    Non-mapping entries pass through untouched for
    :meth:`QuerySpec.from_dict` to reject with its usual message.
    """
    items = list(queries)
    if default is None or default == "auto":
        return items
    descriptor = default_registry().get(default)  # unknown name -> BackendError
    return [
        {**q, "backend": default}
        if isinstance(q, Mapping)
        and "backend" not in q
        and descriptor.serves(q.get("kind"))
        else q
        for q in items
    ]


_SUM_BACKENDS = ("profile", "tree")

TauInput = Union[float, int, Iterable[float]]


@dataclass(frozen=True)
class QuerySpec:
    """One declarative query in a batch.

    Parameters
    ----------
    kind:
        One of :data:`KINDS`.
    taus:
        Durability threshold(s).  A scalar is normalised to a 1-tuple; a
        sequence requests a τ-sweep answered from one shared index.
    epsilon:
        Distance approximation ``ε ∈ (0, 1]`` (ignored by the exact ℓ∞
        triangle solver).
    backend:
        Backend name — ``"auto"`` (registry capability dispatch) or any
        name registered on the backend registry.
    kappa:
        Witness budget κ — required for ``pairs-union``, rejected
        elsewhere.
    m:
        Pattern size for ``cliques``/``paths``/``stars`` (default 3),
        rejected elsewhere.
    sum_backend:
        ``"profile"`` or ``"tree"`` for ``pairs-sum``.
    exact:
        Triangle-only override of the exact/approximate choice:
        ``True`` forces the ℓ∞-exact solver, ``False`` forbids the
        automatic promotion that ``backend="auto"`` performs on ℓ∞
        inputs, ``None`` keeps the promotion rules of ``repro.api``.
    label:
        Free-form tag echoed into results (useful in batch files).
    pattern:
        Declarative pattern payload for ``kind="pattern-dsl"`` — a
        compact-JSON mapping, a text-form string, or a parsed
        :class:`~repro.lang.ast.PatternNode`; normalised to the AST
        root (hashable) at construction.  Rejected on every other kind.
    """

    kind: str
    taus: Tuple[float, ...] = field(default=())
    epsilon: float = 0.5
    backend: str = "auto"
    kappa: Optional[int] = None
    m: Optional[int] = None
    sum_backend: str = "profile"
    exact: Optional[bool] = None
    label: Optional[str] = None
    pattern: Optional[Any] = None

    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        if self.kind not in _ACCEPTED_KINDS:
            raise ValidationError(
                f"unknown query kind {self.kind!r}; "
                f"expected one of {', '.join(_ACCEPTED_KINDS)}"
            )
        object.__setattr__(self, "taus", self._normalise_taus(self.taus))
        object.__setattr__(self, "epsilon", _as_float(self.epsilon, "epsilon"))
        if not 0 < self.epsilon <= 1:
            raise ValidationError(
                f"epsilon must lie in (0, 1], got {self.epsilon!r}"
            )
        if self.kind == DSL_KIND:
            # The backend name must be registered (or 'auto');
            # kind/backend serving is checked per lowered primitive at
            # plan time.
            names = default_registry().names()
            if self.backend != "auto" and self.backend not in names:
                raise ValidationError(
                    f"unknown backend {self.backend!r}; "
                    f"registered backends: {', '.join(names)}"
                )
        else:
            # Registry-backed: rejects unknown names AND kind/backend
            # combos no descriptor serves (e.g. pairs/pattern kinds
            # under the triangle-only 'linf-exact' — previously coerced
            # to 'auto').
            default_registry().validate_combination(self.kind, self.backend)
        if self.sum_backend not in _SUM_BACKENDS:
            raise ValidationError(
                f"unknown sum backend {self.sum_backend!r}; "
                f"expected one of {', '.join(_SUM_BACKENDS)}"
            )
        self._validate_kind_params()
        self._validate_pattern()

    @staticmethod
    def _normalise_taus(taus: TauInput) -> Tuple[float, ...]:
        # Strings are scalars here, never iterables: a quoted "12" in a
        # hand-written batch file must not become the sweep (1.0, 2.0).
        if isinstance(taus, (int, float, str, bytes, np.integer, np.floating)):
            taus = (taus,)
        try:
            items = tuple(taus)
        except TypeError as exc:
            raise ValidationError(
                f"tau must be a number or a sequence of numbers, got {taus!r}"
            ) from exc
        out = tuple(_as_float(t, "durability parameter") for t in items)
        if not out:
            raise ValidationError("a query needs at least one durability value tau")
        for t in out:
            if not (math.isfinite(t) and t > 0):
                raise ValidationError(
                    f"durability parameter must be positive and finite, got {t!r}"
                )
        return out

    def _validate_kind_params(self) -> None:
        if self.kind == "pairs-union":
            if not (isinstance(self.kappa, _INTEGRAL) and self.kappa >= 1):
                raise ValidationError(
                    f"pairs-union requires a positive integer kappa, got {self.kappa!r}"
                )
            object.__setattr__(self, "kappa", int(self.kappa))
        elif self.kappa is not None:
            raise ValidationError("kappa is only valid for pairs-union queries")
        if self.kind in PATTERN_KINDS:
            m = 3 if self.m is None else self.m
            if not (isinstance(m, _INTEGRAL) and m >= 2):
                raise ValidationError(
                    f"pattern size m must be an integer >= 2, got {self.m!r}"
                )
            object.__setattr__(self, "m", int(m))
        elif self.m is not None:
            raise ValidationError("m is only valid for clique/path/star queries")
        if self.exact is not None and self.kind != "triangles":
            raise ValidationError("exact is only valid for triangle queries")
        if self.exact is False and self.backend == "linf-exact":
            raise ValidationError(
                "exact=False contradicts backend='linf-exact'"
            )

    def _validate_pattern(self) -> None:
        if self.kind != DSL_KIND:
            if self.pattern is not None:
                raise ValidationError(
                    "pattern is only valid for pattern-dsl queries"
                )
            return
        if self.pattern is None:
            raise ValidationError(
                "pattern-dsl queries require a 'pattern' payload"
            )
        # Imported lazily (the engine package must not hard-depend on
        # the language package at import time).
        from ..lang.parser import parse_pattern

        object.__setattr__(self, "pattern", parse_pattern(self.pattern))

    # ------------------------------------------------------------------
    @property
    def tau(self) -> float:
        """The single durability value of a non-sweep spec."""
        if len(self.taus) != 1:
            raise ValidationError(
                f"spec sweeps {len(self.taus)} tau values; use .taus"
            )
        return self.taus[0]

    @property
    def is_sweep(self) -> bool:
        return len(self.taus) > 1

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (inverse of :meth:`from_dict`).

        Walks the dataclass fields instead of a hand-maintained list, so
        *every* optional field — present and future — round-trips: a
        field is emitted whenever it differs from its declared default
        (serve forwarding must never silently re-default a parameter).
        """
        out: Dict[str, Any] = {"kind": self.kind, "taus": list(self.taus)}
        for spec_field in fields(self):
            if spec_field.name in ("kind", "taus"):
                continue
            value = getattr(self, spec_field.name)
            default = (
                spec_field.default if spec_field.default is not MISSING else None
            )
            if value != default:
                if spec_field.name == "pattern":
                    value = value.to_json()
                out[spec_field.name] = value
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QuerySpec":
        """Build a spec from a batch-file entry.

        Accepts ``tau`` (scalar) or ``taus`` (scalar or list); every
        other key must be a spec field.
        """
        if not isinstance(data, Mapping):
            raise ValidationError(f"query entry must be a mapping, got {data!r}")
        payload = dict(data)
        if "tau" in payload and "taus" in payload:
            raise ValidationError("give either 'tau' or 'taus', not both")
        if "tau" in payload:
            payload["taus"] = payload.pop("tau")
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValidationError(
                f"unknown query field(s) {sorted(unknown)}; expected a subset of "
                f"{sorted(known | {'tau'})}"
            )
        if "kind" not in payload:
            raise ValidationError("query entry is missing 'kind'")
        return cls(**payload)
