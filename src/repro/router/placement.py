"""Rendezvous placement of datasets onto worker slots.

The router owns dataset placement: every ``POST /datasets`` picks the
worker slot that will host the dataset's shard, and that choice must be

* **deterministic** — the same dataset name and worker fleet must map
  to the same slot across router restarts, so a restarted router
  (replaying its manifest) rebuilds the exact same layout and
  cache-key locality is preserved;
* **stable under churn** — adding or removing one worker must move as
  few datasets as possible (no modular-hash reshuffle).

Rendezvous (highest-random-weight, HRW) hashing gives both: each
``(dataset, slot)`` pair hashes to a 64-bit draw (SHA-256, salt-free —
Python's randomized ``hash()`` would break restart determinism) and
the highest draw wins.  Removing a slot only re-places the datasets it
owned.  Every worker runs the same backends, so every slot is an
equally good host and no weighting is needed.
"""

from __future__ import annotations

import hashlib
from typing import Sequence

from ..errors import ValidationError

__all__ = ["choose_worker"]


def _draw(dataset: str, slot: str) -> int:
    """Deterministic 64-bit draw for one (dataset, slot) pair."""
    digest = hashlib.sha256(f"{dataset}\x00{slot}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def choose_worker(dataset: str, slots: Sequence[str]) -> str:
    """The slot that hosts ``dataset``: the highest draw, ties broken
    by the smaller slot id (deterministic and order-invariant)."""
    if not slots:
        raise ValidationError("cannot place a dataset: the worker pool is empty")
    return min(slots, key=lambda slot: (-_draw(dataset, slot), slot))
