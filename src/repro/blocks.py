"""Reported records as columns.

A :class:`RecordBlock` is one query's answer at one τ in the form the
``vector`` kernels compute it: member ids as integer columns, plus the
lifespan ends or the score as float columns.  It stays in that form on
the served path.  :meth:`RecordBlock.json_array` writes the ``records``
array with one %-format per record, byte-identical to ``json.dumps`` of
the :func:`~repro.engine.results.record_to_dict` dicts (DESIGN.md
note 9).  Record objects are built only when a caller iterates the
block or calls :meth:`RecordBlock.records`, and then kept; ``len()``
never builds them.  :meth:`RecordBlock.take` selects rows into a block
of the same class whose ``json_array`` joins its source's record texts,
which the source encodes the first time each row is asked for and
keeps (DESIGN.md note 11); :meth:`RecordBlock.splice` replaces runs
of one block's rows, keeping the others' texts, with another's rows
(note 12).
"""

from __future__ import annotations

import json
from typing import Any, Iterator, List, Optional, Tuple

import numpy as np

from .temporal.interval import Interval
from .types import PairRecord, PatternRecord, TriangleRecord

__all__ = ["RecordBlock", "TriangleBlock", "CliqueBlock", "PairBlock"]


class _Verbatim(str):
    """Text that ``%r`` writes unchanged: json's spelling of a
    non-finite float."""

    __slots__ = ()
    __repr__ = str.__str__


def _float_cells(column: np.ndarray) -> List[Any]:
    """``column`` as cells that ``%r`` spells as ``json.dumps`` does.

    Finite values stay Python floats, whose ``float.__repr__`` is
    json's spelling; one ``isfinite`` check per column decides whether
    any value needs json's own ``Infinity``/``-Infinity``/``NaN``.
    """
    cells = column.tolist()
    if not np.isfinite(column).all():
        for i in np.flatnonzero(~np.isfinite(column)).tolist():
            cells[i] = _Verbatim(json.dumps(cells[i]))
    return cells


class RecordBlock:
    """Records of one query at one τ, held as columns.

    Iterating, indexing and :meth:`records` build the record objects
    once; ``len()`` and :meth:`json_array` read the columns only.
    """

    __slots__ = ("_records", "_texts", "_source")

    def __init__(self) -> None:
        self._records: Optional[list] = None
        #: ``(texts, encoded)`` of a block others were taken from: each
        #: record's JSON text (``None`` until encoded) and which are.
        self._texts: Optional[Tuple[List[Optional[str]], np.ndarray]] = None
        #: ``(block, rows)`` for a block taken from another.
        self._source: Optional[Tuple["RecordBlock", Optional[np.ndarray]]] = None

    def __len__(self) -> int:
        raise NotImplementedError

    def __iter__(self) -> Iterator[Any]:
        return iter(self.records())

    def __getitem__(self, i):
        return self.records()[i]

    def records(self) -> list:
        """The record objects, built on first use."""
        if self._records is None:
            self._records = self._build()
        return self._records

    def json_array(self) -> str:
        """The JSON array of the records' ``record_to_dict`` dicts."""
        return "[" + ", ".join(self._record_texts()) + "]"

    def take(self, rows: Optional[np.ndarray] = None) -> "RecordBlock":
        """The records at the ascending positions ``rows`` (all of them
        when ``None``, sharing the columns) as a block of the same class.

        Its :meth:`json_array` joins this block's record texts, which
        this block encodes the first time each row is asked for and
        keeps, so a taken block encodes only the rows it holds.
        """
        out = type(self)(*self._columns()) if rows is None else self._select(rows)
        out._source = (self, rows)
        return out

    def splice(
        self, lo: np.ndarray, hi: np.ndarray, other: "RecordBlock", at: np.ndarray
    ) -> "RecordBlock":
        """This block with its rows ``lo[i]:hi[i]`` replaced by
        ``other``'s rows ``at[i]:at[i + 1]``, for every ``i``, as a
        block of this class.  The replaced runs ascend and do not
        overlap, and ``at`` ascends from 0 to ``len(other)``.

        Columns are joined slice by slice.  The texts this block has
        encoded for the rows it keeps carry over, and ``other``'s rows
        are encoded on first use.  Readers of this block may be filling
        its texts and mask meanwhile; a reader writes a text before its
        mask bit, and a text once written is final, so the mask is
        copied first, and every row it marks has its text in the list
        sliced after it.
        """
        starts, stops = [0, *hi.tolist()], [*lo.tolist(), len(self)]
        runs = at.tolist()

        def joined(mine, theirs) -> list:
            """Kept stretch 0, then run i of ``theirs`` and kept stretch
            i + 1 in turn."""
            parts = [mine[starts[0] : stops[0]]]
            for i in range(1, len(starts)):
                parts.append(theirs[runs[i - 1] : runs[i]])
                parts.append(mine[starts[i] : stops[i]])
            return parts

        out = type(self)(*(
            np.concatenate(joined(mine, theirs))
            for mine, theirs in zip(self._columns(), other._columns())
        ))
        if self._texts is not None:
            texts, encoded = self._texts
            filled = np.concatenate(
                joined(encoded.copy(), np.zeros(len(other), dtype=bool))
            )
            if filled.any():
                kept: list = []
                for part in joined(texts, [None] * len(other)):
                    kept += part
                out._texts = (kept, filled)
        return out

    def _select(self, rows: np.ndarray) -> "RecordBlock":
        return type(self)(*(column[rows] for column in self._columns()))

    def _record_texts(self) -> List[str]:
        """Each record's JSON text; a taken block picks its source's."""
        if self._source is None:
            return list(map(self._template().__mod__, self._rows()))
        source, rows = self._source
        kept = source._texts
        if kept is None:
            # Racing first uses may each start a table: one stays, and
            # the rows only the others filled are encoded again later.
            n = len(source)
            kept = source._texts = ([None] * n, np.zeros(n, dtype=bool))
        texts, encoded = kept
        missing = np.flatnonzero(~encoded) if rows is None else rows[~encoded[rows]]
        if len(missing) == len(texts):
            texts[:] = source._record_texts()
        elif len(missing):
            encoded_rows = source._select(missing)._record_texts()
            for i, text in zip(missing.tolist(), encoded_rows):
                texts[i] = text
        encoded[missing] = True
        return texts if rows is None else [texts[i] for i in rows.tolist()]

    def _columns(self) -> Tuple[np.ndarray, ...]:
        raise NotImplementedError

    def _build(self) -> list:
        raise NotImplementedError

    def _template(self) -> str:
        raise NotImplementedError

    def _rows(self) -> Iterator[tuple]:
        raise NotImplementedError


class _LifespanBlock(RecordBlock):
    """Records with ``k × m`` member ids and one lifespan each."""

    __slots__ = ("ids", "starts", "ends")

    #: The record's ``"type"`` and the key of its member ids.
    _type: str
    _ids_key: str

    def __init__(self, ids: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> None:
        super().__init__()
        self.ids = ids
        self.starts = starts
        self.ends = ends

    def __len__(self) -> int:
        return len(self.starts)

    def _columns(self) -> Tuple[np.ndarray, ...]:
        return self.ids, self.starts, self.ends

    def _template(self) -> str:
        members = ", ".join(["%d"] * self.ids.shape[1])
        return (
            f'{{"type": "{self._type}", "{self._ids_key}": [{members}], '
            '"lifespan": [%r, %r], "durability": %r}'
        )

    def _rows(self) -> Iterator[tuple]:
        # Interval.length, column-wise: end − start if end > start else 0.
        with np.errstate(over="ignore", invalid="ignore"):
            durability = np.where(self.ends > self.starts, self.ends - self.starts, 0.0)
        return zip(
            *self.ids.T.tolist(),
            _float_cells(self.starts),
            _float_cells(self.ends),
            _float_cells(durability),
        )


class TriangleBlock(_LifespanBlock):
    """Triangles: ``ids`` columns ``(anchor, q, s)`` and the lifespans."""

    __slots__ = ()
    _type = "triangle"
    _ids_key = "ids"

    def _build(self) -> List[TriangleRecord]:
        return [
            TriangleRecord(anchor=a, q=q, s=s, lifespan=Interval(lo, hi))
            for (a, q, s), lo, hi in zip(
                self.ids.tolist(), self.starts.tolist(), self.ends.tolist()
            )
        ]


class CliqueBlock(_LifespanBlock):
    """``m``-cliques: sorted ``members`` rows (``ids``) and lifespans."""

    __slots__ = ()
    _type = "clique"
    _ids_key = "members"

    def _build(self) -> List[PatternRecord]:
        return [
            PatternRecord(kind="clique", members=tuple(row), lifespan=Interval(lo, hi))
            for row, lo, hi in zip(
                self.ids.tolist(), self.starts.tolist(), self.ends.tolist()
            )
        ]


class PairBlock(RecordBlock):
    """Aggregate-durable pairs: ``p``, ``q`` and ``score`` columns."""

    __slots__ = ("p", "q", "score")

    def __init__(self, p: np.ndarray, q: np.ndarray, score: np.ndarray) -> None:
        super().__init__()
        self.p = p
        self.q = q
        self.score = score

    def __len__(self) -> int:
        return len(self.score)

    def _columns(self) -> Tuple[np.ndarray, ...]:
        return self.p, self.q, self.score

    def _build(self) -> List[PairRecord]:
        return [
            PairRecord(p=a, q=b, score=s)
            for a, b, s in zip(self.p.tolist(), self.q.tolist(), self.score.tolist())
        ]

    def _template(self) -> str:
        return '{"type": "pair", "p": %d, "q": %d, "score": %r}'

    def _rows(self) -> Iterator[tuple]:
        return zip(self.p.tolist(), self.q.tolist(), _float_cells(self.score))
