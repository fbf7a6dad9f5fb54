"""Shared-index cache: build every distinct index exactly once.

The cache maps an :class:`IndexKey` — ``(family, dataset fingerprint,
ε, backend, extras)`` — to a built index object.  It is safe under the
engine's thread pool: concurrent requests for the same key block on a
per-key event while the first requester builds, so a batch of queries
that can share preprocessing performs exactly one build (asserted by
the engine tests and by the acceptance criterion of ISSUE 1).

Eviction is LRU when ``max_entries`` is set; the default cache is
unbounded, which matches the bench harness's historical ``lru_cache``
behaviour.  Each entry also keeps its index's τ frontier
(:mod:`repro.engine.frontier`), which goes with the entry, or is
carried into its successor by :meth:`IndexCache.advance`;
:meth:`IndexCache.frontier_hit` hands out a ready entry whose frontier
answers a plan, without ever building or waiting.
"""

from __future__ import annotations

import copy
import dataclasses
import logging
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, NamedTuple, Optional, Tuple

from .frontier import Frontier

__all__ = ["IndexKey", "CacheOutcome", "CacheStats", "IndexCache"]


class IndexKey(NamedTuple):
    """Identity of a shareable index.

    Emitted by the resolved backend descriptor's ``index_identity`` hook,
    which :func:`repro.engine.planner.lower_primitive` calls: equal keys
    guarantee interchangeable indexes.
    """

    family: str
    fingerprint: str
    epsilon: float
    backend: str
    extra: Tuple[Any, ...] = ()


class CacheOutcome(NamedTuple):
    """What :meth:`IndexCache.get_or_build` hands back for one request.

    ``build_seconds`` is the wall time of the flight that produced
    ``index`` — carried on the outcome itself so callers never have to
    look the entry up again (it may already be LRU-evicted by then).

    ``source`` distinguishes the three ways a request can resolve:
    ``"hit"`` (entry was ready), ``"build"`` (this request owned the
    single-flight build), ``"wait"`` (joined someone else's in-flight
    build).  ``hit`` stays the two-way summary — waiters count as hits,
    as they always have — so existing callers are unaffected.
    """

    index: Any
    hit: bool
    build_seconds: float
    source: str = "hit"


@dataclass
class CacheStats:
    """Mutable hit/miss accounting for one cache instance.

    ``failed_waits`` counts requests that joined an in-flight build
    which subsequently failed: they are neither hits (no index was
    served) nor misses (they triggered no build of their own).
    ``carried`` counts τ frontiers carried into migrated entries; it is
    exported as a metric, not in :meth:`as_dict`, whose keys are the
    wire's ``batch-end`` cache figures.
    """

    hits: int = 0
    misses: int = 0
    builds: int = 0
    evictions: int = 0
    failed_waits: int = 0
    migrated: int = 0
    invalidated: int = 0
    build_seconds: float = 0.0
    carried: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses + self.failed_waits

    @property
    def hit_rate(self) -> float:
        """Fraction of requests answered without building (0 when idle)."""
        return self.hits / self.requests if self.requests else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "builds": self.builds,
            "evictions": self.evictions,
            "failed_waits": self.failed_waits,
            "migrated": self.migrated,
            "invalidated": self.invalidated,
            "build_seconds": self.build_seconds,
            "hit_rate": self.hit_rate,
        }

    def snapshot(self) -> "CacheStats":
        return dataclasses.replace(self)

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """Activity between an earlier snapshot and now."""
        return CacheStats(**{
            f.name: getattr(self, f.name) - getattr(earlier, f.name)
            for f in dataclasses.fields(self)
        })

    def __add__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(**{
            f.name: getattr(self, f.name) + getattr(other, f.name)
            for f in dataclasses.fields(self)
        })


@dataclass
class _Entry:
    """One cache slot; ``ready`` gates readers while the owner builds."""

    ready: threading.Event = field(default_factory=threading.Event)
    index: Any = None
    error: Optional[BaseException] = None
    build_seconds: float = 0.0
    frontier: Frontier = field(default_factory=Frontier)


def _carried(old: _Entry, index: Any) -> Frontier:
    """The frontier for ``index``, the maintained successor of
    ``old.index``: ``old``'s frontier carried by ``index.carry`` when
    both exist (kept only within the cap, as any block), else empty.

    Runs outside the cache lock, on one snapshot of ``old``'s frontier,
    which old-epoch queries may still lower meanwhile.
    """
    frontier = Frontier()
    kept = old.frontier.kept()
    carry = getattr(index, "carry", None)
    if kept is not None and carry is not None:
        params, tau, block = kept
        try:
            frontier.lower(params, tau, carry(block, tau, params, old.index))
        except Exception:
            # A carry must never fail an append; an entry without a
            # frontier just runs its kernel on its next query.
            logging.getLogger(__name__).exception(
                "carrying a tau frontier failed; the entry starts without one"
            )
    return frontier


@contextmanager
def _span(
    recorder: Any, name: str, parent_id: Optional[str], key: IndexKey
) -> Iterator[Dict[str, Any]]:
    """Time the block as span ``name`` of ``key``'s family when tracing;
    yields the span's attributes, to which the block may add."""
    if recorder is None:
        yield {}
        return
    with recorder.start_span(name, parent_id=parent_id, attrs={"family": key.family}) as span:
        yield span.span.attrs


def _waiter_copy(exc: BaseException) -> BaseException:
    """A fresh exception for one waiter of a failed flight.

    Re-raising the owner's instance from several threads makes them all
    race to mutate its ``__traceback__``, splicing unrelated stacks into
    each other's reports.  Each waiter therefore raises its own shallow
    copy, chained (``__cause__``) to the original so the build-site
    traceback is still printed once, unmangled.
    """
    try:
        clone = copy.copy(exc)
        # A copy that is the same object (e.g. an exception overriding
        # __copy__ to return self) would reintroduce the shared-instance
        # race; fall through to the wrapper in that case.
        if clone is exc:
            raise TypeError("copy returned the original instance")
    except Exception:
        clone = RuntimeError(f"index build failed: {type(exc).__name__}: {exc}")
    clone.__cause__ = exc
    clone.__traceback__ = None
    return clone


class IndexCache:
    """Thread-safe index cache with single-flight builds.

    Parameters
    ----------
    max_entries:
        LRU bound on resident indexes; ``None`` (default) keeps
        everything.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries!r}")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[IndexKey, _Entry]" = OrderedDict()
        self._stats = CacheStats()
        #: ``tally``: the calling thread's :meth:`counting` stats, if any.
        self._local = threading.local()

    @contextmanager
    def counting(self, tally: CacheStats) -> Iterator[None]:
        """Also count the calling thread's cache activity inside the
        block into ``tally``.

        The executor counts each query's acquisitions this way, so a
        query's result carries its own figures, and a batch's are the
        sum of its queries' — never another request's activity on a
        shared cache.
        """
        self._local.tally = tally
        try:
            yield
        finally:
            self._local.tally = None

    def _count(self, **amounts: float) -> None:
        """Add ``amounts`` to the cache-wide stats and to the calling
        thread's :meth:`counting` tally (caller holds the lock)."""
        tally = getattr(self._local, "tally", None)
        for stats in (self._stats,) if tally is None else (self._stats, tally):
            for name, amount in amounts.items():
                setattr(stats, name, getattr(stats, name) + amount)

    # ------------------------------------------------------------------
    def get_or_build(
        self, key: IndexKey, builder: Callable[[], Any]
    ) -> CacheOutcome:
        """Return a :class:`CacheOutcome`, building at most once per key.

        A failed build is not cached: the next request retries.  The
        owner of the failed flight re-raises the original exception;
        every waiter that joined the flight raises its own chained copy
        (see :func:`_waiter_copy`) and is counted under
        ``stats.failed_waits`` rather than as a hit.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                if entry.ready.is_set():
                    # Completed entries in the table are always successes
                    # (failed flights are dropped before ready is set).
                    self._count(hits=1)
                    return CacheOutcome(
                        entry.index, True, entry.build_seconds, "hit"
                    )
                # In-flight: whether this is a hit isn't known until the
                # build resolves — account for it after the wait.
                owner = False
            else:
                entry = _Entry()
                self._entries[key] = entry
                self._count(misses=1)
                owner = True

        if owner:
            t0 = time.perf_counter()
            try:
                entry.index = builder()
            except BaseException as exc:  # noqa: BLE001 - re-raised to waiters
                entry.error = exc
                with self._lock:
                    # Drop the poisoned slot so a later call can retry.
                    if self._entries.get(key) is entry:
                        del self._entries[key]
                entry.ready.set()
                raise
            entry.build_seconds = time.perf_counter() - t0
            with self._lock:
                self._count(builds=1, build_seconds=entry.build_seconds)
                self._evict_locked()
            entry.ready.set()
            return CacheOutcome(entry.index, False, entry.build_seconds, "build")

        entry.ready.wait()
        if entry.error is not None:
            with self._lock:
                self._count(failed_waits=1)
            raise _waiter_copy(entry.error)
        with self._lock:
            self._count(hits=1)
        return CacheOutcome(entry.index, True, entry.build_seconds, "wait")

    def _evict_locked(self) -> None:
        if self.max_entries is None:
            return
        while len(self._entries) > self.max_entries:
            # Oldest *completed* entry; in-flight builds are never evicted
            # (their waiters would otherwise re-trigger a duplicate build).
            victim = next(
                (k for k, e in self._entries.items() if e.ready.is_set()), None
            )
            if victim is None:
                return
            del self._entries[victim]
            self._count(evictions=1)

    # ------------------------------------------------------------------
    def advance(
        self,
        old_fingerprint: str,
        new_fingerprint: str,
        maintainer: Optional[Callable[[IndexKey, Any], Optional[Any]]] = None,
        *,
        recorder: Any = None,
        parent_span_id: Optional[str] = None,
    ) -> Dict[str, list]:
        """Carry the cache across a dataset epoch bump.

        Every *completed* entry keyed on ``old_fingerprint`` is offered
        to ``maintainer(key, index)``: a non-``None`` return value is
        re-keyed under ``new_fingerprint`` as a ready entry (the family
        keeps hitting), while ``None`` — or no maintainer at all, or a
        maintainer that raises, which is logged with its traceback —
        invalidates the entry, so that family's next request misses and
        rebuilds exactly once through the normal single-flight path.
        A migrated entry keeps its τ frontier when the new index can
        ``carry`` it (:func:`_carried`); it is counted under
        ``stats.carried``.

        In-flight builds are deliberately left untouched under their
        old key: their waiters planned against the old epoch and must
        receive the old-epoch index, and a query planned after the bump
        carries ``new_fingerprint`` in its key, so it can never join an
        old-epoch flight or be handed a pre-append index.

        Given a trace ``recorder``, each entry's maintenance and carry
        are ``engine.cache.maintain`` and ``engine.cache.carry`` spans
        under ``parent_span_id``, one after the other; both carry the
        family and the index's ``maintenance`` figures, when it has them,
        and a carry span the anchors the index's ``reruns`` lists at the
        carried τ₀ (``rerun_anchors``).

        Returns ``{"migrated": [new keys], "invalidated": [old keys]}``.
        """
        if old_fingerprint == new_fingerprint:
            raise ValueError("advance() requires distinct fingerprints")
        with self._lock:
            stale = [
                (key, entry)
                for key, entry in self._entries.items()
                if key.fingerprint == old_fingerprint and entry.ready.is_set()
            ]
        migrated: list = []
        invalidated: list = []
        for key, entry in stale:
            # Maintenance may rebuild structures — run it outside the
            # lock; old-epoch readers keep hitting the old entry until
            # the swap below.  Maintainers return fresh objects (never
            # mutate ``entry.index`` in place) for exactly that reason.
            with _span(recorder, "engine.cache.maintain", parent_span_id, key) as span:
                try:
                    kept = maintainer(key, entry.index) if maintainer is not None else None
                except Exception:
                    # Maintenance must never fail an append; the entry is
                    # invalidated and rebuilds once on its next query.
                    logging.getLogger(__name__).exception(
                        "maintaining a cached index failed; the entry is invalidated"
                    )
                    kept = None
                span.update(getattr(kept, "maintenance", {}))
            frontier = None
            if kept is not None:
                with _span(recorder, "engine.cache.carry", parent_span_id, key) as span:
                    frontier = _carried(entry, kept)
                    span.update(getattr(kept, "maintenance", {}))
                    carried = frontier.kept()
                    span["rows"] = 0 if carried is None else len(carried[2])
                    reruns = getattr(kept, "reruns", None)
                    if recorder is not None and reruns is not None:
                        span["rerun_anchors"] = (
                            0 if carried is None else len(reruns(carried[1]))
                        )
            new_key = key._replace(fingerprint=new_fingerprint)
            with self._lock:
                if self._entries.get(key) is entry:
                    del self._entries[key]
                else:
                    continue  # evicted or replaced mid-maintenance
                if kept is None or new_key in self._entries:
                    # No maintenance, or a racing build already owns the
                    # new-epoch slot (the single-flight winner stands).
                    self._count(invalidated=1)
                    invalidated.append(key)
                    continue
                slot = _Entry(
                    index=kept, build_seconds=entry.build_seconds, frontier=frontier
                )
                slot.ready.set()
                self._entries[new_key] = slot
                self._count(migrated=1, carried=int(frontier.kept() is not None))
                migrated.append(new_key)
        return {"migrated": migrated, "invalidated": invalidated}

    def frontier_hit(
        self, key: IndexKey, params: tuple, tau: float
    ) -> Optional["IndexCache"]:
        """``key``'s ready entry, when its τ frontier narrows every
        τ′ ≥ ``tau`` for ``params``, as a one-entry cache; counted here
        as the hit it is.  ``None``, counting nothing, when the entry is
        absent, still building, or its frontier does not answer.  Never
        waits on a flight.

        The one-entry cache holds the index and a copy of the frontier
        taken under this cache's lock.  A plan with those ``params`` and
        no τ below ``tau`` run against it (``execute_plan``) hits, and
        narrows every τ from the copy: it can neither build nor run a
        kernel, even if an append migrates the entry or LRU evicts it
        meanwhile.  That hit lands in the plan's own tally
        (:meth:`counting`) and in the one-entry cache's figures, which
        nothing reads, so this cache counts it once.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or not entry.ready.is_set():
                return None
            frontier = entry.frontier.answering(params, tau)
            if frontier is None:
                return None
            self._entries.move_to_end(key)
            self._count(hits=1)
        slot = _Entry(
            index=entry.index, build_seconds=entry.build_seconds, frontier=frontier
        )
        slot.ready.set()
        hit = IndexCache()
        hit._entries[key] = slot
        return hit

    def frontier(self, key: IndexKey, index: Any) -> Optional[Frontier]:
        """The τ frontier (:mod:`repro.engine.frontier`) kept beside
        ``index`` in ``key``'s entry; ``None`` once the entry no longer
        holds that index (evicted, advanced or cleared), so it is freed
        with it."""
        with self._lock:
            entry = self._entries.get(key)
        if entry is None or not entry.ready.is_set() or entry.index is not index:
            return None
        return entry.frontier

    def peek(self, key: IndexKey) -> Optional[Any]:
        """The cached index for ``key`` without counting a request."""
        with self._lock:
            entry = self._entries.get(key)
        if entry is None or not entry.ready.is_set():
            return None
        return entry.index

    def build_seconds_for(self, key: IndexKey) -> float:
        """Build wall-time of the cached index for ``key`` (0 if absent)."""
        with self._lock:
            entry = self._entries.get(key)
        if entry is None or not entry.ready.is_set():
            return 0.0
        return entry.build_seconds

    def clear(self) -> None:
        """Drop every cached index (stats are kept; see :meth:`reset_stats`)."""
        with self._lock:
            self._entries.clear()

    def reset_stats(self) -> None:
        with self._lock:
            self._stats = CacheStats()

    @property
    def stats(self) -> CacheStats:
        """Live stats object (use :meth:`CacheStats.snapshot` to freeze)."""
        return self._stats

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: IndexKey) -> bool:
        with self._lock:
            entry = self._entries.get(key)
            return entry is not None and entry.ready.is_set()
