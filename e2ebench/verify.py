"""Check served answers against an independent offline answer.

The oracle is an in-process :class:`repro.QueryEngine` forced onto the
``grid`` backend, while the served queries resolve ``auto`` to
``vector``: the two share no sweep code, so agreement is evidence, not
an echo.  Only record ids are compared (durabilities are floats).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from client import Op, record_key
from repro.datasets import workload_from_spec
from repro.engine import QueryEngine, QuerySpec
from repro.engine.results import record_to_dict
from repro.types import TemporalPointSet


class Oracle:
    """Grid-backend answers for one dataset and its appended versions."""

    def __init__(self, spec: Dict[str, Any]) -> None:
        self.base = workload_from_spec(spec)
        self.engine = QueryEngine()
        self._versions: Dict[int, TemporalPointSet] = {0: self.base}

    def version(self, events: Sequence[Dict[str, Any]]) -> TemporalPointSet:
        """The dataset after ``events`` were appended, in order."""
        if len(events) not in self._versions:
            self._versions[len(events)] = TemporalPointSet(
                np.concatenate([self.base.points, [e["point"] for e in events]]),
                np.concatenate([self.base.starts, [e["start"] for e in events]]),
                np.concatenate([self.base.ends, [e["end"] for e in events]]),
                self.base.metric,
            )
        return self._versions[len(events)]

    @staticmethod
    def write_csv(path: str, tps: TemporalPointSet) -> None:
        """``x1..xd,start,end`` rows with every float's exact repr, so a
        registration from this file holds bit-identical coordinates."""
        rows = np.column_stack([tps.points, tps.starts, tps.ends])
        with open(path, "w") as fh:
            for row in rows:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")

    def answer(self, tps: TemporalPointSet, query: Dict[str, Any]) -> set:
        spec = QuerySpec.from_dict({**query, "backend": "grid"})
        result = self.engine.run(tps, spec)
        return {
            record_key(record_to_dict(r))
            for records in result.records_by_tau.values() for r in records
        }

    def check(self, op: Op, events: Sequence[Dict[str, Any]]) -> Optional[str]:
        """``None`` when ``op``'s answers match; else what differed.

        ``events`` is the full append log; the op saw its first
        ``op.events_before`` entries.
        """
        tps = self.version(events[:op.events_before])
        for i, query in enumerate(op.payload):
            expected = self.answer(tps, query)
            if op.ids is not None:
                served = op.ids[i]
                if served != expected:
                    return (f"query {i} ({query['kind']} tau={query['tau']}): "
                            f"{len(served - expected)} extra, "
                            f"{len(expected - served)} missing records")
            else:
                served_count = op.results[i][2]
                if served_count != len(expected):
                    return (f"query {i} ({query['kind']} tau={query['tau']}): "
                            f"count {served_count} != {len(expected)}")
        return None


def verify_ops(oracle: Oracle, sampled: List[Op],
               events: Sequence[Dict[str, Any]]) -> List[str]:
    """Check every sampled op; a mismatch fails the op.  Returns messages."""
    problems = []
    for op in sampled:
        message = oracle.check(op, events)
        if message is not None:
            op.ok = False
            op.error = f"oracle mismatch: {message}"
            problems.append(f"{op.kind} #{op.seq} (client {op.client}): {message}")
    return problems

