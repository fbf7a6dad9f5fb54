"""Vectorised query-family indexes for the ``vector`` backend.

Each class subclasses its legacy counterpart — same constructor shape,
same ``cache_key()`` family (with ``backend="vector"``), same public
query surface — but replaces the hot paths with batched numpy kernels
over the shared :class:`~repro.backends.vector.soa.SoALayout`:

* Candidate generation (:func:`_candidate_pairs`) searches the *sorted
  integer lattice* of occupied cells: per anchor, the cells whose key
  lies in a ``±reach`` window are contiguous ``np.searchsorted`` ranges
  of the mixed-radix cell codes, so no anchors×cells distance matrix is
  ever materialised; the window superset is refined by one batched
  rowwise center-distance pass.  (A blocked dense matrix remains as the
  fallback when the window enumeration would be wider than the cell
  count.)
* :class:`VectorTriangleIndex` — partner expansion through the CSR cell
  layout, one boolean mask for the temporal/lexicographic predicate,
  ragged ``i<j`` pair generation batched across *all* anchors, and one
  rowwise linked-ball test per pair chunk.  Record construction is the
  only per-output loop.
* :class:`VectorSumPairIndex` — Algorithm 4 with both the partner and
  the witness dimension collapsed: witness pools are one batched
  cell-linkage pass, and every ``Σ_u |I_u ∩ I_p ∩ I_q|`` evaluation in
  the sweep becomes a row of one grouped coverage-profile batch
  (:class:`VecProfile`, float-identical to
  :class:`~repro.temporal.sum_index.CoverageProfile`).
* :class:`VectorUnionPairIndex` — Algorithm 8 with batched candidate
  generation and witness pools; the greedy max-κ-coverage itself stays
  sequential per reported partner (its heap is inherently iterative).
* :class:`VectorPatternIndex` — the Appendix D reporters over batched
  per-(τ, radius) anchor contexts and a vectorised link table.

Record sets are identical to the legacy ``grid`` backend's for every
family (the canonical cells coincide), which the three-way hypothesis
parity harness in ``tests/test_backends.py`` asserts.

All four implement ``maintained()`` — the layout recompute over the
merged set is vectorised and produces the canonical cell order a fresh
build yields, so maintained indexes are *identical* to fresh ones;
per-cell derived structures (profiles, overlap indexes) are carried
over for cells the append did not touch (:func:`transfer_cell_cache`).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ...core.aggregate import SumPairIndex, UnionPairIndex
from ...core.patterns import PatternIndex
from ...core.triangles import DurableTriangleIndex
from ...errors import ValidationError
from ...structures.decomposition import GEOMETRY_SLACK
from ...temporal.interval import Interval
from ...temporal.max_overlap import MaxOverlapIndex
from ...types import PairRecord, TemporalPointSet, TriangleRecord
from .soa import (
    BLOCK_ELEMS,
    SoALayout,
    pairwise_dists,
    ragged_arange,
    rowwise_dists,
)
from .structure import VectorBallStructure

__all__ = [
    "VectorTriangleIndex",
    "VectorSumPairIndex",
    "VectorUnionPairIndex",
    "VectorPatternIndex",
    "VecProfile",
    "transfer_cell_cache",
]


def _check_epsilon(epsilon: float) -> float:
    if not 0 < epsilon <= 1:
        raise ValidationError(f"epsilon must lie in (0, 1], got {epsilon!r}")
    return float(epsilon)


def _eligible_anchor_array(lay: SoALayout, tau: float) -> np.ndarray:
    return np.nonzero(lay.ends - lay.starts >= tau)[0]


def _link_threshold(resolution: float) -> float:
    """``linked()``'s unit-threshold cutoff, same float association as
    the legacy ``threshold + a.radius_bound + b.radius_bound + slack``."""
    return ((1.0 + resolution) + resolution) + GEOMETRY_SLACK


# ----------------------------------------------------------------------
# Candidate generation
# ----------------------------------------------------------------------
def _lattice_windows(
    lay: SoALayout, anchors: np.ndarray, thr: float
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Superset of candidate ``(anchor, cell)`` pairs via key windows.

    Occupied cells sort lexicographically by key, i.e. ascending in
    their mixed-radix code, so for a fixed combination of offsets on the
    leading ``dim−1`` key coordinates the in-window cells are one
    contiguous code range — two ``searchsorted`` calls for *all*
    anchors at once.  Returns ``None`` when the window enumeration
    would not beat the dense distance matrix (wide reach, high dim, or
    a code space that would overflow int64).
    """
    keys = lay.cell_keys
    dim = lay.dim
    reach = int(np.floor(thr / lay.side)) + 1
    kmin = keys.min(axis=0)
    sizes = keys.max(axis=0) - kmin + 1
    m_combos = (2 * reach + 1) ** (dim - 1)
    if m_combos >= max(lay.n_cells, 2):
        return None
    if int(np.prod([int(s) for s in sizes])) > 2**62:
        return None
    strides = np.ones(dim, dtype=np.int64)
    for i in range(dim - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    codes = ((keys - kmin) * strides).sum(axis=1)
    ka = np.floor(lay.points[anchors] / lay.side).astype(np.int64) - kmin
    offs = np.arange(-reach, reach + 1, dtype=np.int64)
    if dim > 1:
        grids = np.meshgrid(*([offs] * (dim - 1)), indexing="ij")
        combos = np.stack([g.ravel() for g in grids], axis=1)
    else:
        combos = np.zeros((1, 0), dtype=np.int64)
    digits = ka[:, None, : dim - 1] + combos[None, :, :]
    valid = ((digits >= 0) & (digits < sizes[: dim - 1])).all(axis=2)
    base = (digits * strides[: dim - 1]).sum(axis=2)
    last_lo = np.maximum(ka[:, dim - 1] - reach, 0)
    last_hi = np.minimum(ka[:, dim - 1] + reach, sizes[dim - 1] - 1)
    va, vm = np.nonzero(valid)
    clo = base[va, vm] + last_lo[va]
    chi = base[va, vm] + last_hi[va] + 1
    lo = np.searchsorted(codes, clo)
    counts = np.searchsorted(codes, chi) - lo
    ci = ragged_arange(lo, counts)
    ai = np.repeat(va, counts)
    return ai, ci


def _candidate_pairs(
    lay: SoALayout, metric, anchors: np.ndarray, radius: float, resolution: float
) -> Tuple[np.ndarray, np.ndarray]:
    """All ``(anchor index, cell index)`` pairs passing the candidate
    test (center within ``radius + resolution + slack``), ascending in
    ``(anchor, cell)`` — the legacy ``candidate_groups`` sweep for a
    whole anchor batch."""
    empty = np.empty(0, dtype=np.int64)
    if not len(anchors) or not lay.n_cells:
        return empty, empty
    thr = radius + resolution + GEOMETRY_SLACK
    lattice = _lattice_windows(lay, anchors, thr)
    if lattice is None:
        parts_a: List[np.ndarray] = []
        parts_c: List[np.ndarray] = []
        block = max(1, BLOCK_ELEMS // lay.n_cells)
        for lo in range(0, len(anchors), block):
            d = pairwise_dists(metric, lay.points[anchors[lo : lo + block]], lay.centers)
            bai, bci = np.nonzero(d <= thr)
            parts_a.append(bai + lo)
            parts_c.append(bci)
        return np.concatenate(parts_a), np.concatenate(parts_c)
    ai, ci = lattice
    if not len(ai):
        return empty, empty
    keep = rowwise_dists(metric, lay.centers[ci], lay.points[anchors[ai]]) <= thr
    return ai[keep], ci[keep]


def _anchor_chunks(
    lay: SoALayout, ai: np.ndarray, ci: np.ndarray, cap: int = 4 * BLOCK_ELEMS
) -> Iterator[Tuple[int, int]]:
    """Split the candidate-pair arrays into chunks of bounded expansion.

    Yields ``(e0, e1)`` ranges whose summed cell populations stay near
    ``cap``; chunk boundaries never split one anchor's entries, so the
    per-anchor run/segment logic downstream stays intact.
    """
    if not len(ai):
        return
    weights = lay.counts[ci]
    cum = np.cumsum(weights)
    if int(cum[-1]) <= cap:
        yield 0, len(ai)
        return
    e0 = 0
    while e0 < len(ai):
        t = int(np.searchsorted(cum, (cum[e0 - 1] if e0 else 0) + cap))
        t = min(max(t, e0), len(ai) - 1)
        t = int(np.searchsorted(ai, ai[t], side="right"))
        t = max(t, e0 + 1)
        yield e0, t
        e0 = t


def _expand_partners(
    lay: SoALayout, anchors: np.ndarray, ai: np.ndarray, ci: np.ndarray, tau: float
):
    """Every ``durableBallQ`` partner for a candidate-pair chunk.

    Expands the ``(ai, ci)`` pairs through the CSR cell layout and
    applies the τ-stab + anchor-precedence predicate in one mask.
    Returns ``(P, Q, run_start, run_m, run_src)`` — per-pair
    anchor/partner ids plus the contiguous runs of equal ``(anchor,
    cell)`` with ``run_src`` indexing back into ``ai``/``ci``; partners
    inside a run are in ``(end desc, id asc)`` order (the legacy
    ``iter_desc_by_end`` order) — or ``None`` when nothing qualifies.
    """
    if not len(ai):
        return None
    cnt = lay.counts[ci]
    pos = ragged_arange(lay.offsets[ci], cnt)
    q = lay.order_end[pos]
    p = np.repeat(anchors[ai], cnt)
    keep = (lay.ends[q] >= lay.starts[p] + tau) & (
        (lay.starts[q] < lay.starts[p]) | ((lay.starts[q] == lay.starts[p]) & (q < p))
    )
    if not keep.any():
        return None
    src = np.repeat(np.arange(len(ai)), cnt)[keep]
    p, q = p[keep], q[keep]
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(src)) + 1, [len(src)]))
    run_start = bounds[:-1]
    run_m = np.diff(bounds)
    return p, q, run_start, run_m, src[run_start]


def _witness_pools(
    lay: SoALayout,
    metric,
    ai: np.ndarray,
    ci: np.ndarray,
    run_src: np.ndarray,
    link_thr: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Witness cells per run, batched: ``{gi ∈ cand(p) : linked(gi, j)}``.

    One ragged expansion of each run's full candidate-cell segment and
    one rowwise center-distance pass.  Returns ``(wit_run, wit_cell,
    wit_counts)`` with pools in ascending cell order per run — the
    legacy witness sweep order.
    """
    n_runs = len(run_src)
    a_bounds = np.concatenate(([0], np.flatnonzero(np.diff(ai)) + 1, [len(ai)]))
    seg = np.searchsorted(a_bounds, run_src, side="right") - 1
    wlen = a_bounds[seg + 1] - a_bounds[seg]
    wpos = ragged_arange(a_bounds[seg], wlen)
    wrun = np.repeat(np.arange(n_runs), wlen)
    wcell = ci[wpos]
    dd = rowwise_dists(
        metric, lay.centers[ci[run_src][wrun]], lay.centers[wcell]
    )
    wm = dd <= link_thr
    wit_run, wit_cell = wrun[wm], wcell[wm]
    return wit_run, wit_cell, np.bincount(wit_run, minlength=n_runs)


def transfer_cell_cache(
    old_lay: SoALayout, new_lay: SoALayout, n_old: int, cache: Dict[int, object]
) -> Dict[int, object]:
    """Re-key per-cell derived structures across an append.

    A cell's structure stays valid iff the append put no point into it;
    cells are identified by their absolute integer key (cell indexes
    shift when the append creates cells that sort earlier).
    """
    if not cache:
        return {}
    changed = set(np.unique(new_lay.cell_of[n_old:]).tolist())
    new_index = {tuple(key): gi for gi, key in enumerate(new_lay.cell_keys.tolist())}
    out: Dict[int, object] = {}
    for gi_old, value in cache.items():
        gi_new = new_index.get(tuple(old_lay.cell_keys[gi_old].tolist()))
        if gi_new is not None and gi_new not in changed:
            out[gi_new] = value
    return out


# ----------------------------------------------------------------------
# Triangles
# ----------------------------------------------------------------------
class VectorTriangleIndex(DurableTriangleIndex):
    """Algorithm 1 over SoA kernels (record-identical to ``grid``)."""

    def __init__(
        self, tps: TemporalPointSet, epsilon: float = 0.5, backend: str = "vector"
    ) -> None:
        self.tps = tps
        self.epsilon = _check_epsilon(epsilon)
        self.backend = "vector"
        self.structure = VectorBallStructure(tps, self.epsilon / 4.0)

    def maintained(self, tps: TemporalPointSet) -> "VectorTriangleIndex":
        clone = object.__new__(type(self))
        clone.tps = tps
        clone.epsilon = self.epsilon
        clone.backend = self.backend
        clone.structure = self.structure.extended(tps)
        return clone

    # ------------------------------------------------------------------
    def query(self, tau: float) -> List[TriangleRecord]:
        self._check_tau(tau)
        st = self.structure
        lay = st.layout
        metric = self.tps.metric
        starts, ends, cell_of, centers = lay.starts, lay.ends, lay.cell_of, lay.centers
        res = st.resolution
        link_thr = _link_threshold(res)
        out: List[TriangleRecord] = []
        eligible = _eligible_anchor_array(lay, tau)
        if not len(eligible):
            return out
        cai, cci = _candidate_pairs(lay, metric, eligible, 1.0, res)
        for e0, e1 in _anchor_chunks(lay, cai, cci):
            expanded = _expand_partners(lay, eligible, cai[e0:e1], cci[e0:e1], tau)
            if expanded is None:
                continue
            p, q = expanded[0], expanded[1]
            # One anchor's partners span several (anchor, cell) runs but
            # are contiguous; pair them i<j within each anchor segment,
            # batched across ALL anchors via ragged indexing.
            seg_bounds = np.concatenate(
                ([0], np.flatnonzero(np.diff(p)) + 1, [len(p)])
            )
            lens = np.diff(seg_bounds)
            after = (
                np.repeat(lens, lens)
                - 1
                - (np.arange(len(p)) - np.repeat(seg_bounds[:-1], lens))
            )
            cum = np.cumsum(after)
            e = 0
            while e < len(p):
                # Chunk the pair expansion so iu/ju stay bounded.
                t = int(
                    np.searchsorted(cum, (cum[e - 1] if e else 0) + BLOCK_ELEMS)
                ) + 1
                t = min(max(t, e + 1), len(p))
                elems = np.arange(e, t)
                cc = after[e:t]
                e = t
                # For element i with cc[i] later same-segment elements,
                # pair it with each of them: iu repeats i, ju counts up.
                iu = np.repeat(elems, cc)
                if not len(iu):
                    continue
                ju = ragged_arange(elems + 1, cc)
                a_ids, b_ids, anchors_pq = q[iu], q[ju], p[iu]
                # Linked-ball test on cell centers (same-cell pairs have
                # distance zero and always pass).
                dd = rowwise_dists(
                    metric, centers[cell_of[a_ids]], centers[cell_of[b_ids]]
                )
                ok = dd <= link_thr
                a_ids, b_ids, anchors_pq = a_ids[ok], b_ids[ok], anchors_pq[ok]
                if not len(a_ids):
                    continue
                e3 = np.minimum(
                    ends[anchors_pq], np.minimum(ends[a_ids], ends[b_ids])
                )
                sa = starts[anchors_pq]
                qm = np.minimum(a_ids, b_ids)
                sm = np.maximum(a_ids, b_ids)
                out.extend(
                    TriangleRecord(
                        anchor=int(a), q=int(x), s=int(y),
                        lifespan=Interval(float(s0), float(ee)),
                    )
                    for a, x, y, s0, ee in zip(anchors_pq, qm, sm, sa, e3)
                )
        return out


# ----------------------------------------------------------------------
# Coverage profiles over arrays
# ----------------------------------------------------------------------
class VecProfile:
    """Array form of :class:`~repro.temporal.sum_index.CoverageProfile`.

    Construction and evaluation replicate the legacy arithmetic term by
    term (sorted endpoint events, sequential ``np.cumsum`` integration,
    ``searchsorted`` interpolation), so every returned float is
    bit-identical to the legacy profile's — asserted by the SUM-pair
    parity tests.
    """

    __slots__ = ("times", "integral", "slopes", "n")

    def __init__(self, starts: np.ndarray, ends: np.ndarray) -> None:
        k = len(starts)
        self.n = k
        if k == 0:
            self.times = np.empty(0)
            self.integral = np.zeros(1)
            self.slopes = np.empty(0)
            return
        events = np.concatenate((starts, ends))
        deltas = np.concatenate(
            (np.ones(k, dtype=np.int64), -np.ones(k, dtype=np.int64))
        )
        order = np.lexsort((deltas, events))  # time asc, -1 before +1 on ties
        ts = events[order]
        new = np.flatnonzero(np.diff(ts) > 0)
        self.times = np.concatenate(([ts[0]], ts[new + 1]))
        cover = np.cumsum(deltas[order])
        self.slopes = cover[new].astype(np.float64)
        self.integral = np.concatenate(
            ([0.0], np.cumsum(self.slopes * np.diff(self.times)))
        )

    def values(self, ts: np.ndarray) -> np.ndarray:
        """``F(t)`` for a batch of query times."""
        times = self.times
        if len(times) < 2:
            return np.zeros(np.shape(ts))
        idx = np.searchsorted(times, ts, side="right") - 1
        safe = np.clip(idx, 0, len(times) - 2)
        out = self.integral[safe] + self.slopes[safe] * (ts - times[safe])
        out = np.where(ts <= times[0], 0.0, out)
        return np.where(ts >= times[-1], self.integral[-1], out)

    def interval_sums(self, a: float, bs: np.ndarray) -> np.ndarray:
        """``Σ_I |I ∩ [a, b]|`` for a batch of right endpoints ``b``."""
        if self.n == 0:
            return np.zeros(np.shape(bs))
        va = self.values(np.asarray([a]))[0]
        return np.where(bs <= a, 0.0, self.values(bs) - va)

    def sum_intersections(self, a: float, b: float) -> float:
        """Scalar form, matching ``CoverageProfile.sum_intersections``."""
        if b <= a or self.n == 0:
            return 0.0
        vs = self.values(np.asarray([a, b]))
        return float(vs[1] - vs[0])


class LazyProfiles:
    """``cell index -> VecProfile``, built on first use per cell."""

    __slots__ = ("layout", "cache")

    def __init__(self, layout: SoALayout) -> None:
        self.layout = layout
        self.cache: Dict[int, VecProfile] = {}

    def __getitem__(self, gi: int) -> VecProfile:
        prof = self.cache.get(gi)
        if prof is None:
            members = self.layout.cell_members(gi)
            prof = VecProfile(
                self.layout.starts[members], self.layout.ends[members]
            )
            self.cache[gi] = prof
        return prof


class LazyOverlaps:
    """``cell index -> MaxOverlapIndex``, built on first witness use."""

    __slots__ = ("layout", "cache")

    def __init__(self, layout: SoALayout) -> None:
        self.layout = layout
        self.cache: Dict[int, MaxOverlapIndex] = {}

    def __getitem__(self, gi: int) -> MaxOverlapIndex:
        idx = self.cache.get(gi)
        if idx is None:
            members = self.layout.cell_members(gi)
            idx = MaxOverlapIndex(
                self.layout.starts[members].tolist(),
                self.layout.ends[members].tolist(),
                members.tolist(),
            )
            self.cache[gi] = idx
        return idx


# ----------------------------------------------------------------------
# SUM pairs
# ----------------------------------------------------------------------
class VectorSumPairIndex(SumPairIndex):
    """Algorithm 4 with batched partner *and* witness scoring.

    Witness sums always come from the coverage-profile arrays (the two
    legacy SUM structures are output-identical by design), so the
    cache identity carries ``"profile"`` whatever the query asked for.
    """

    #: Read by the inherited ``cache_key()``.
    sum_backend = "profile"

    def __init__(
        self,
        tps: TemporalPointSet,
        epsilon: float = 0.5,
        backend: str = "vector",
    ) -> None:
        self.tps = tps
        self.epsilon = _check_epsilon(epsilon)
        self.backend = "vector"
        self.structure = VectorBallStructure(tps, self.epsilon / 4.0)
        self._sums = LazyProfiles(self.structure.layout)

    def maintained(self, tps: TemporalPointSet) -> "VectorSumPairIndex":
        clone = object.__new__(type(self))
        clone.tps = tps
        clone.epsilon = self.epsilon
        clone.backend = self.backend
        clone.structure = self.structure.extended(tps)
        clone._sums = LazyProfiles(clone.structure.layout)
        clone._sums.cache.update(
            transfer_cell_cache(
                self.structure.layout,
                clone.structure.layout,
                self.tps.n,
                self._sums.cache,
            )
        )
        return clone

    # ------------------------------------------------------------------
    def query(self, tau: float) -> List[PairRecord]:
        self._check_params(tau)
        st = self.structure
        lay = st.layout
        metric = self.tps.metric
        res = st.resolution
        link_thr = _link_threshold(res)
        out: List[PairRecord] = []
        eligible = _eligible_anchor_array(lay, tau)
        if not len(eligible):
            return out
        cai, cci = _candidate_pairs(lay, metric, eligible, 1.0, res)
        for e0, e1 in _anchor_chunks(lay, cai, cci):
            ai, ci = cai[e0:e1], cci[e0:e1]
            expanded = _expand_partners(lay, eligible, ai, ci, tau)
            if expanded is None:
                continue
            pp, qq, run_start, run_m, run_src = expanded
            n_pairs = len(pp)
            sp_pair = lay.starts[pp]
            his = np.minimum(lay.ends[pp], lay.ends[qq])
            window = his - sp_pair
            run_cell = ci[run_src]
            wit_run, wit_cell, wit_counts = _witness_pools(
                lay, metric, ai, ci, run_src, link_thr
            )
            # Expand to one evaluation request per (witness cell, pair),
            # then batch all requests touching one cell into a single
            # profile sweep.  ``np.bincount`` accumulates sequentially
            # in input order; sorting requests by cell keeps each pair's
            # contributions in ascending-cell order — exactly the legacy
            # scalar accumulation, so scores stay float-identical.
            total = np.zeros(n_pairs)
            if len(wit_run):
                req_m = run_m[wit_run]
                val_pair = ragged_arange(run_start[wit_run], req_m)
                val_gi = np.repeat(wit_cell, req_m)
                order = np.argsort(val_gi, kind="stable")
                vp, vg = val_pair[order], val_gi[order]
                contrib = np.empty(len(vp))
                cell_bounds = np.concatenate(
                    ([0], np.flatnonzero(np.diff(vg)) + 1, [len(vg)])
                )
                for b0, b1 in zip(cell_bounds[:-1], cell_bounds[1:]):
                    prof = self._sums[int(vg[b0])]
                    sel = vp[b0:b1]
                    contrib[b0:b1] = prof.values(his[sel]) - prof.values(
                        sp_pair[sel]
                    )
                total = np.bincount(vp, weights=contrib, minlength=n_pairs)
            # Discount the self-contributions of q (always counted) and
            # of p when its own cell is in the witness pool.
            total = total - window
            p_counted = (
                rowwise_dists(
                    metric,
                    lay.centers[run_cell],
                    lay.centers[lay.cell_of[eligible[ai[run_src]]]],
                )
                <= link_thr
            )
            total = np.where(np.repeat(p_counted, run_m), total - window, total)
            # Partners are in shrinking-window order within a run: the
            # first failing partner ends the run (Algorithm 4's break).
            pos = np.arange(n_pairs)
            first_fail = np.minimum.reduceat(
                np.where(total < tau, pos, n_pairs), run_start
            )
            keep = np.nonzero(pos < np.repeat(first_fail, run_m))[0]
            out.extend(
                PairRecord(p=int(pp[i]), q=int(qq[i]), score=float(total[i]))
                for i in keep
            )
        return out


# ----------------------------------------------------------------------
# UNION pairs
# ----------------------------------------------------------------------
class VectorUnionPairIndex(UnionPairIndex):
    """Algorithm 8 over array candidate generation + lazy ``IT∪``."""

    def __init__(
        self, tps: TemporalPointSet, epsilon: float = 0.5, backend: str = "vector"
    ) -> None:
        self.tps = tps
        self.epsilon = _check_epsilon(epsilon)
        self.backend = "vector"
        self.structure = VectorBallStructure(tps, self.epsilon / 4.0)
        self._overlaps = LazyOverlaps(self.structure.layout)

    def maintained(self, tps: TemporalPointSet) -> "VectorUnionPairIndex":
        clone = object.__new__(type(self))
        clone.tps = tps
        clone.epsilon = self.epsilon
        clone.backend = self.backend
        clone.structure = self.structure.extended(tps)
        clone._overlaps = LazyOverlaps(clone.structure.layout)
        clone._overlaps.cache.update(
            transfer_cell_cache(
                self.structure.layout,
                clone.structure.layout,
                self.tps.n,
                self._overlaps.cache,
            )
        )
        return clone

    # ------------------------------------------------------------------
    def query(self, tau: float, kappa: int) -> List[PairRecord]:
        self._check_params(tau)
        if not (isinstance(kappa, (int, np.integer)) and kappa >= 1):
            raise ValidationError(f"kappa must be a positive integer, got {kappa!r}")
        st = self.structure
        lay = st.layout
        metric = self.tps.metric
        res = st.resolution
        link_thr = _link_threshold(res)
        target = self.GREEDY_FACTOR * tau
        out: List[PairRecord] = []
        eligible = _eligible_anchor_array(lay, tau)
        if not len(eligible):
            return out
        cai, cci = _candidate_pairs(lay, metric, eligible, 1.0, res)
        for e0, e1 in _anchor_chunks(lay, cai, cci):
            ai, ci = cai[e0:e1], cci[e0:e1]
            expanded = _expand_partners(lay, eligible, ai, ci, tau)
            if expanded is None:
                continue
            pp, qq, run_start, run_m, run_src = expanded
            his = np.minimum(lay.ends[pp], lay.ends[qq])
            _, wit_cell, wit_counts = _witness_pools(
                lay, metric, ai, ci, run_src, link_thr
            )
            wit_offsets = np.concatenate(([0], np.cumsum(wit_counts)))
            # Candidate generation and witness pools are batched; the
            # greedy max-κ-coverage itself stays sequential per reported
            # partner (its heap is inherently iterative), with the
            # legacy early break.
            for g in range(len(run_start)):
                witnesses = wit_cell[wit_offsets[g] : wit_offsets[g + 1]].tolist()
                if not witnesses:
                    continue
                p = int(pp[run_start[g]])
                sp = float(lay.starts[p])
                for i in range(run_start[g], run_start[g] + run_m[g]):
                    covered = self.greedy_union(
                        sp, float(his[i]), witnesses, kappa,
                        exclude=(p, int(qq[i])),
                    )
                    if covered >= target:
                        out.append(PairRecord(p=p, q=int(qq[i]), score=covered))
                    else:
                        break
        return out


# ----------------------------------------------------------------------
# Patterns
# ----------------------------------------------------------------------
class VectorPatternIndex(PatternIndex):
    """Appendix D reporters over the array-backed ball structure.

    The enumeration recursions are inherited (they are output-bound);
    the win is the build — no per-ball dominance trees — plus batched
    anchor contexts: one ``durableBallQ`` sweep per ``(τ, radius)``
    serves every anchor, and the link table is one small distance
    matrix instead of O(k²) scalar ``linked()`` calls.
    """

    def __init__(
        self, tps: TemporalPointSet, epsilon: float = 0.5, backend: str = "vector"
    ) -> None:
        self.tps = tps
        self.epsilon = _check_epsilon(epsilon)
        self.backend = "vector"
        self.structure = VectorBallStructure(tps, self.epsilon / 4.0)
        self._contexts: Dict[Tuple[float, float], Dict[int, tuple]] = {}

    def maintained(self, tps: TemporalPointSet) -> "VectorPatternIndex":
        clone = object.__new__(type(self))
        clone.tps = tps
        clone.epsilon = self.epsilon
        clone.backend = self.backend
        clone.structure = self.structure.extended(tps)
        clone._contexts = {}
        return clone

    # ------------------------------------------------------------------
    def _context_map(self, tau: float, radius: float) -> Dict[int, tuple]:
        ctx = self._contexts.get((tau, radius))
        if ctx is not None:
            return ctx
        ctx = {}
        st = self.structure
        lay = st.layout
        eligible = _eligible_anchor_array(lay, tau)
        if len(eligible):
            cai, cci = _candidate_pairs(
                lay, self.tps.metric, eligible, radius, st.resolution
            )
            for e0, e1 in _anchor_chunks(lay, cai, cci):
                ai, ci = cai[e0:e1], cci[e0:e1]
                expanded = _expand_partners(lay, eligible, ai, ci, tau)
                if expanded is None:
                    continue
                _, qq, run_start, run_m, run_src = expanded
                run_row = ai[run_src]
                rb = np.concatenate(
                    ([0], np.flatnonzero(np.diff(run_row)) + 1, [len(run_row)])
                )
                for g0, g1 in zip(rb[:-1], rb[1:]):
                    p = int(eligible[run_row[g0]])
                    q0 = run_start[g0]
                    q1 = run_start[g1 - 1] + run_m[g1 - 1]
                    ctx[p] = (ci[run_src[g0:g1]], run_m[g0:g1], qq[q0:q1])
        self._contexts[(tau, radius)] = ctx
        return ctx

    def _anchor_context(self, anchor, tau, radius):
        entry = self._context_map(float(tau), float(radius)).get(int(anchor))
        groups_all = self.structure.groups
        own = groups_all[self.structure.group_index_of(anchor)]
        if entry is None:
            return [], {int(anchor): 0}, [own]
        cells, counts, qids = entry
        groups = [groups_all[int(c)] for c in cells]
        candidates = qids.tolist()
        ball_of = dict(
            zip(candidates, np.repeat(np.arange(len(cells)), counts).tolist())
        )
        ball_of[int(anchor)] = len(groups)
        groups.append(own)
        return candidates, ball_of, groups

    def _link_table(self, groups):
        # All groups are grid cells: one small distance matrix replaces
        # O(k²) scalar linked() calls, with the legacy float association
        # ((1 + r_a) + r_b) + slack.
        k = len(groups)
        reps = np.stack([np.asarray(g.rep, dtype=np.float64) for g in groups])
        rb = np.fromiter((g.radius_bound for g in groups), dtype=np.float64, count=k)
        d = pairwise_dists(self.tps.metric, reps, reps)
        table = d <= (((1.0 + rb[:, None]) + rb[None, :]) + GEOMETRY_SLACK)
        np.fill_diagonal(table, True)
        return table
