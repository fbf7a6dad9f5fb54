"""Tenant identity, weighted shares and per-minute quotas (QoS half).

The serving tiers meter ``POST /query`` per tenant so one hot caller
cannot monopolise a shard and one scrape can answer "who is slow and
who is hogging".  A tenant file (``--api-keys``) maps API keys to
tenants::

    {
      "tenants": [
        {"key": "acme-key-1", "name": "acme", "weight": 3,
         "quota_per_minute": 600},
        {"key": "beta-key-9", "name": "beta", "weight": 1}
      ]
    }

* ``key`` — the ``X-API-Key`` request header value (unique per entry);
* ``name`` — the tenant every metric label and stats block reports;
  several keys may share one name (key rotation);
* ``weight`` — relative admission share.  Each shard's
  :class:`~repro.serve.bridge.AdmissionQueue` grants tenant *t* a
  **static** share of ``max(1, floor(limit × weight_t / Σ weights))``
  concurrently admitted queries.  Static — computed from the
  configured weights, not from who happens to be idle — so a
  saturating tenant can never occupy the whole queue and starve the
  others: everyone else's share stays free by construction;
* ``quota_per_minute`` — optional fixed-window rate quota on admitted
  queries; a breach is a 429 whose ``Retry-After`` is the seconds
  until the window resets.  Omitted = unmetered.

When a tenant file is configured, ``POST /query`` requires a known
``X-API-Key`` (401 otherwise); every other route — health, stats,
metrics, admin — stays open.  Without a tenant file nothing changes:
queries are anonymous and only the global admission limit applies.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..errors import ReproError, ValidationError

__all__ = ["AuthError", "Tenant", "TenantTable", "QUOTA_WINDOW_SECONDS"]

#: Fixed quota window length, seconds.
QUOTA_WINDOW_SECONDS = 60.0


class AuthError(ReproError):
    """Missing or unknown API key on a metered route (HTTP 401)."""


@dataclass(frozen=True)
class Tenant:
    """One tenant-file entry, validated."""

    key: str
    name: str
    weight: float = 1.0
    quota_per_minute: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.key or not isinstance(self.key, str):
            raise ValidationError(f"tenant key must be a non-empty string, got {self.key!r}")
        if not self.name or not isinstance(self.name, str):
            raise ValidationError(f"tenant name must be a non-empty string, got {self.name!r}")
        if not (isinstance(self.weight, (int, float)) and self.weight > 0):
            raise ValidationError(
                f"tenant {self.name!r} weight must be > 0, got {self.weight!r}"
            )
        if self.quota_per_minute is not None and (
            not isinstance(self.quota_per_minute, int) or self.quota_per_minute < 1
        ):
            raise ValidationError(
                f"tenant {self.name!r} quota_per_minute must be a positive "
                f"integer, got {self.quota_per_minute!r}"
            )


class _QuotaWindow:
    """Fixed-window usage for one tenant (monotonic clock)."""

    __slots__ = ("window", "used")

    def __init__(self) -> None:
        self.window = -1
        self.used = 0


class TenantTable:
    """Key → tenant resolution plus quota accounting.

    Thread-safe: resolution reads an immutable dict; quota windows
    update under a lock (the serve path calls from the event loop, the
    quota-remaining metrics callback from the scraping thread).
    """

    def __init__(self, tenants: Iterable[Tenant]) -> None:
        entries = list(tenants)
        if not entries:
            raise ValidationError("tenant table must contain at least one tenant")
        by_key: Dict[str, Tenant] = {}
        quotas: Dict[str, int] = {}
        weights: Dict[str, float] = {}
        for tenant in entries:
            if tenant.key in by_key:
                raise ValidationError(f"duplicate tenant key {tenant.key!r}")
            by_key[tenant.key] = tenant
            prior_weight = weights.get(tenant.name)
            if prior_weight is not None and prior_weight != tenant.weight:
                raise ValidationError(
                    f"tenant {tenant.name!r} has conflicting weights "
                    f"({prior_weight} vs {tenant.weight}) across its keys"
                )
            weights[tenant.name] = tenant.weight
            if tenant.quota_per_minute is not None:
                prior_quota = quotas.get(tenant.name)
                if prior_quota is not None and prior_quota != tenant.quota_per_minute:
                    raise ValidationError(
                        f"tenant {tenant.name!r} has conflicting quotas "
                        f"({prior_quota} vs {tenant.quota_per_minute}) across its keys"
                    )
                quotas[tenant.name] = tenant.quota_per_minute
        self._by_key = by_key
        self._weights = weights
        self._quotas = quotas
        self._lock = threading.Lock()
        self._usage: Dict[str, _QuotaWindow] = {}

    # ------------------------------------------------------------------
    @classmethod
    def from_file(cls, path: str) -> "TenantTable":
        """Load the JSON tenant file documented in the module docstring."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ValidationError(f"cannot read tenant file {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"tenant file {path!r} is not valid JSON: {exc}") from exc
        return cls.from_spec(doc, source=path)

    @classmethod
    def from_spec(
        cls, doc: Union[Mapping[str, Any], List[Any]], source: str = "<spec>"
    ) -> "TenantTable":
        entries = doc.get("tenants") if isinstance(doc, Mapping) else doc
        if not isinstance(entries, list):
            raise ValidationError(
                f"tenant file {source!r} must be a list of entries or "
                "{'tenants': [...]}"
            )
        tenants = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, Mapping):
                raise ValidationError(
                    f"tenant entry #{i} in {source!r} must be an object, got {entry!r}"
                )
            unknown = set(entry) - {"key", "name", "weight", "quota_per_minute"}
            if unknown:
                raise ValidationError(
                    f"tenant entry #{i} in {source!r} has unknown fields {sorted(unknown)!r}"
                )
            try:
                tenants.append(
                    Tenant(
                        key=entry.get("key"),
                        name=entry.get("name"),
                        weight=entry.get("weight", 1.0),
                        quota_per_minute=entry.get("quota_per_minute"),
                    )
                )
            except ValidationError as exc:
                raise ValidationError(f"tenant entry #{i} in {source!r}: {exc}") from exc
        return cls(tenants)

    # ------------------------------------------------------------------
    def resolve(self, api_key: Optional[str]) -> Tenant:
        """The tenant for an ``X-API-Key`` value; raises :class:`AuthError`."""
        if not api_key:
            raise AuthError("missing X-API-Key header (this server meters queries)")
        tenant = self._by_key.get(api_key)
        if tenant is None:
            raise AuthError("unknown API key")
        return tenant

    def weights(self) -> Dict[str, float]:
        """Tenant name → admission weight (feeds the admission queues)."""
        return dict(self._weights)

    # ------------------------------------------------------------------
    def check_and_consume(
        self, tenant_name: str, n: int, now: Optional[float] = None
    ) -> Optional[float]:
        """Charge ``n`` queries against the tenant's per-minute quota.

        Returns ``None`` when the charge fits (and commits it), else the
        ``Retry-After`` seconds until the current window resets — the
        charge is *not* committed on a breach, so a rejected burst does
        not eat the tenant's next window.
        """
        quota = self._quotas.get(tenant_name)
        if quota is None:
            return None
        if now is None:
            now = time.monotonic()
        window = int(now // QUOTA_WINDOW_SECONDS)
        with self._lock:
            usage = self._usage.setdefault(tenant_name, _QuotaWindow())
            if usage.window != window:
                usage.window = window
                usage.used = 0
            if usage.used + n > quota:
                return QUOTA_WINDOW_SECONDS - (now % QUOTA_WINDOW_SECONDS)
            usage.used += n
            return None

    def quota_snapshot(self, now: Optional[float] = None) -> Dict[str, Tuple[int, int]]:
        """Tenant name → ``(quota, remaining)`` for metered tenants."""
        if now is None:
            now = time.monotonic()
        window = int(now // QUOTA_WINDOW_SECONDS)
        out: Dict[str, Tuple[int, int]] = {}
        with self._lock:
            for name, quota in self._quotas.items():
                usage = self._usage.get(name)
                used = usage.used if usage is not None and usage.window == window else 0
                out[name] = (quota, max(0, quota - used))
        return out
