"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro import TemporalPointSet

# ----------------------------------------------------------------------
# Random workload helpers (deterministic per seed)
# ----------------------------------------------------------------------


def random_tps(
    n: int = 60,
    dim: int = 2,
    seed: int = 0,
    metric: str = "l2",
    box: float = 4.0,
    horizon: float = 20.0,
    max_len: float = 12.0,
    integer_times: bool = True,
) -> TemporalPointSet:
    """A reproducible random temporal point set.

    Coordinates are uniform in ``[0, box]^dim`` so that with box ≈ 4 a
    unit-ball query sees a non-trivial neighbourhood.  Lifespans default
    to integer endpoints to keep durability comparisons exact.
    """
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, box, size=(n, dim))
    if integer_times:
        starts = rng.integers(0, int(horizon), size=n).astype(float)
        lengths = rng.integers(0, int(max_len) + 1, size=n).astype(float)
    else:
        starts = rng.uniform(0, horizon, size=n)
        lengths = rng.uniform(0, max_len, size=n)
    return TemporalPointSet(pts, starts, starts + lengths, metric=metric)


#: A few (start, length) values, so many points share a lifespan and
#: many lifespans share an endpoint.
_STARTS = (0.0, 0.5, 1.0, 1.25, 2.0, 3.0)
_LENGTHS = (0.0, 1.0, 2.5, 3.0, 4.0, 5.5, 7.0)


@st.composite
def clustered_tps(draw):
    """Float point sets in a few tight clusters, with shared lifespans
    and endpoints: several points per grid cell and many ties, which is
    where the vector kernels' order and arithmetic show."""
    metric = draw(st.sampled_from(["l1", "l2", "linf"]))
    coord = st.floats(0.0, 4.0, allow_nan=False, allow_infinity=False)
    centers = draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=6))
    jitter = st.floats(0.0, 0.06, allow_nan=False, allow_infinity=False)
    n = draw(st.integers(5, 16))
    picks = draw(
        st.lists(
            st.tuples(st.integers(0, len(centers) - 1), jitter, jitter),
            min_size=n, max_size=n,
        )
    )
    starts = draw(st.lists(st.sampled_from(_STARTS), min_size=n, max_size=n))
    lengths = draw(st.lists(st.sampled_from(_LENGTHS), min_size=n, max_size=n))
    pts = np.asarray(
        [(centers[c][0] + dx, centers[c][1] + dy) for c, dx, dy in picks]
    )
    s = np.asarray(starts)
    return TemporalPointSet(pts, s, s + np.asarray(lengths), metric=metric)


def random_intervals(n: int, seed: int = 0, horizon: int = 50):
    """Random integer-endpoint (start, end) pairs."""
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, horizon, size=n)
    lengths = rng.integers(0, horizon // 2 + 1, size=n)
    return [(float(s), float(s + l)) for s, l in zip(starts, lengths)]


@pytest.fixture
def small_tps() -> TemporalPointSet:
    return random_tps(n=40, seed=7)


@pytest.fixture
def medium_tps() -> TemporalPointSet:
    return random_tps(n=120, seed=11)
