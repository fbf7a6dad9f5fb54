"""Reported records as columns.

A :class:`RecordBlock` is one query's answer at one τ in the form the
``vector`` kernels compute it: member ids as integer columns, plus the
lifespan ends or the score as float columns.  It stays in that form on
the served path.  :meth:`RecordBlock.json_array` writes the ``records``
array as bytes with one %-format per record, byte-identical to
``json.dumps`` of the :func:`~repro.engine.results.record_to_dict`
dicts (DESIGN.md note 9).  Record objects are built only when a caller
iterates the block or calls :meth:`RecordBlock.records`, and then kept;
``len()`` never builds them.

:meth:`RecordBlock.take` returns a view of some rows of a block: its
columns are selected only when read, and its ``json_array`` gathers the
source's record texts as bytes.  The source keeps them in one store,
encoding the rows a view asks for the first time and adding them as
one immutable chunk, so a view encodes only the rows it holds, and
writing it is one join of slices over the runs of its rows that sit
next to each other in a chunk (DESIGN.md notes 9 and 11).
:meth:`RecordBlock.splice` replaces runs of one block's rows with
another's rows, packing the bytes of the rows it keeps into one chunk
(note 12).
"""

from __future__ import annotations

import json
import threading
from typing import Any, Callable, Iterator, List, Optional, Tuple

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


def _array(before: bytes, parts: List[Any], after: bytes) -> bytes:
    """``before``, then ``parts`` joined by ``", "`` in brackets, then
    ``after``, copied once."""
    if not parts:
        return before + b"[]" + after
    pieces = [b", "] * (2 * len(parts) + 1)
    pieces[1::2] = parts
    pieces[0] = before + b"["
    pieces[-1] = b"]" + after
    return b"".join(pieces)


#: Guards the first store of every block.
_STORE_LOCK = threading.Lock()


class _TextStore:
    """The JSON texts of a block's rows, as bytes.

    Texts are kept in immutable chunks, each the texts of some rows
    joined by ``", "``; row ``i``, once ``encoded[i]``, is bytes
    ``lo[i]:hi[i]`` of chunk ``chunk[i]``.  Writers hold ``lock`` and
    write only rows not yet encoded, each row's place before its mask
    bit, so an encoded row's place never changes; readers take their
    snapshot under the lock too.
    """

    __slots__ = ("lock", "chunks", "chunk", "lo", "hi", "encoded")

    def __init__(self, n: int) -> None:
        self.lock = threading.Lock()
        self.chunks: List[memoryview] = []
        self.chunk = np.zeros(n, dtype=np.int64)
        self.lo = np.zeros(n, dtype=np.int64)
        self.hi = np.zeros(n, dtype=np.int64)
        self.encoded = np.zeros(n, dtype=bool)

    def missing(self, rows: Optional[np.ndarray]) -> np.ndarray:
        """The ascending ``rows`` (every row when ``None``) not encoded."""
        with self.lock:
            encoded = self.encoded
            return np.flatnonzero(~encoded) if rows is None else rows[~encoded[rows]]

    def add(self, rows: np.ndarray, chunk: bytes, size: np.ndarray) -> None:
        """Keep ``chunk``, the texts of the ascending ``rows``, ``size``
        bytes each, joined by ``", "``.  Rows encoded meanwhile by
        another writer keep their place."""
        hi = np.cumsum(size + 2) - 2
        with self.lock:
            fresh = ~self.encoded[rows]
            if not fresh.any():
                return
            rows, hi, size = rows[fresh], hi[fresh], size[fresh]
            self.chunk[rows] = len(self.chunks)
            self.lo[rows] = hi - size
            self.hi[rows] = hi
            self.encoded[rows] = True
            self.chunks.append(memoryview(chunk))

    def slices(self, rows: Optional[np.ndarray]) -> List[memoryview]:
        """The texts of the ascending ``rows`` (every row when
        ``None``), all encoded, as slices of the chunks: one per run of
        consecutive rows in one chunk, which sit next to each other
        there.  Joined by ``", "``, the slices are the texts joined so."""
        with self.lock:
            chunks = self.chunks
        if rows is None:
            rows = np.arange(len(self.encoded))
        if not len(rows):
            return []
        cut = np.diff(rows) != 1
        if len(chunks) > 1:
            chunk = self.chunk[rows]
            cut |= chunk[1:] != chunk[:-1]
        cut = np.flatnonzero(cut)
        first = rows[np.concatenate(([0], cut + 1))]
        last = rows[np.concatenate((cut, [len(rows) - 1]))]
        return [
            chunks[c][a:b]
            for c, a, b in zip(
                self.chunk[first].tolist(), self.lo[first].tolist(), self.hi[last].tolist()
            )
        ]


def _column(i: int, doc: str) -> property:
    """The block's ``i``-th column, selected on first read for a view."""
    return property(lambda block: block._columns()[i], doc=doc)


class RecordBlock:
    """Records of one query at one τ, held as columns.

    Iterating, indexing and :meth:`records` build the record objects
    once; ``len()`` and :meth:`json_array` read the columns only, and a
    view (:meth:`take`) selects none for either.
    """

    __slots__ = ("_cols", "_view", "_records", "_texts", "_operands")

    def __init__(self, *columns: np.ndarray) -> None:
        self._cols: Optional[Tuple[np.ndarray, ...]] = columns
        #: ``(block, rows)`` for a view of another block's ``rows``
        #: (all of them when ``None``).
        self._view: Optional[Tuple["RecordBlock", Optional[np.ndarray]]] = None
        self._records: Optional[list] = None
        #: The record texts of a block others are taken from.
        self._texts: Optional[_TextStore] = None
        self._operands: Any = None

    def __len__(self) -> int:
        if self._view is None:
            return len(self._cols[-1])
        source, rows = self._view
        return len(source) if rows is None else len(rows)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.records())

    def __getitem__(self, i):
        return self.records()[i]

    def records(self) -> list:
        """The record objects, built on first use."""
        if self._records is None:
            self._records = self._build()
        return self._records

    def json_array(self, before: bytes = b"", after: bytes = b"") -> bytes:
        """The JSON array of the records' ``record_to_dict`` dicts, as
        bytes between ``before`` and ``after``.

        A view gathers its source's stored texts, encoding the rows not
        yet stored; any other block encodes its rows and keeps nothing.
        """
        if self._view is None:
            return _array(before, [", ".join(self._record_texts()).encode()], after)
        source, rows = self._view
        store = source._store()
        missing = store.missing(rows)
        if len(missing):
            texts = (
                source._record_texts() if len(missing) == len(source)
                else source._select(missing)._record_texts()
            )
            size = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
            # The texts are ASCII: json.dumps escapes the rest.
            store.add(missing, ", ".join(texts).encode(), size)
        return _array(before, store.slices(rows), after)

    def take(self, rows: Optional[np.ndarray] = None) -> "RecordBlock":
        """A view of the records at the ascending positions ``rows``
        (all of them when ``None``), of the same class.

        Its columns are selected when first read, and its
        :meth:`json_array` gathers this block's texts, which this block
        encodes the first time each row is asked for and keeps, so a
        view encodes only the rows it holds.
        """
        source = self
        if self._view is not None:
            source, mine = self._view
            if mine is not None:
                rows = mine if rows is None else mine[rows]
        out = object.__new__(type(self))
        out._cols, out._view = None, (source, rows)
        out._records = out._texts = out._operands = None
        return out

    def operands(self, compute: Callable[["RecordBlock"], Any]) -> Any:
        """``compute(self)``, run on the first call and kept: a narrow's
        τ-test operands (DESIGN.md note 11).  Racing first calls may
        each run it; they compute the same value."""
        if self._operands is None:
            self._operands = compute(self)
        return self._operands

    def splice(
        self, lo: np.ndarray, hi: np.ndarray, other: "RecordBlock", at: np.ndarray
    ) -> "RecordBlock":
        """This block with its rows ``lo[i]:hi[i]`` replaced by
        ``other``'s rows ``at[i]:at[i + 1]``, for every ``i``, as a
        block of this class.  The replaced runs ascend and do not
        overlap, and ``at`` ascends from 0 to ``len(other)``.

        Columns are joined slice by slice.  The texts this block has
        encoded for the rows it keeps carry over, packed into one
        chunk, and ``other``'s rows are encoded on first use.  Readers
        of this block may be adding texts meanwhile; the store's lock
        gives the splice one snapshot of the rows encoded.
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
        store = self._texts
        if store is not None:
            # Each row of ``out``: its row here, or −1 for ``other``'s.
            origin = np.concatenate(joined(np.arange(len(self)), np.full(len(other), -1)))
            kept = np.flatnonzero(origin >= 0)
            with store.lock:
                filled = store.encoded[origin[kept]]
            if filled.any():
                rows = origin[kept[filled]]
                out._texts = _TextStore(len(out))
                out._texts.add(
                    kept[filled], b", ".join(store.slices(rows)), store.hi[rows] - store.lo[rows]
                )
        return out

    def _store(self) -> _TextStore:
        """This block's text store, made on first use."""
        store = self._texts
        if store is None:
            with _STORE_LOCK:
                store = self._texts
                if store is None:
                    store = self._texts = _TextStore(len(self))
        return store

    def _columns(self) -> Tuple[np.ndarray, ...]:
        """The columns; a view selects its rows on first read."""
        cols = self._cols
        if cols is None:
            source, rows = self._view
            cols = source._columns()
            if rows is not None:
                cols = tuple(column[rows] for column in cols)
            self._cols = cols
        return cols

    def _select(self, rows: np.ndarray) -> "RecordBlock":
        return type(self)(*(column[rows] for column in self._columns()))

    def _record_texts(self) -> List[str]:
        """Each record's JSON text, from the columns."""
        return list(map(self._template().__mod__, self._rows()))

    def _build(self) -> list:
        raise NotImplementedError

    def _template(self) -> str:
        raise NotImplementedError

    def _rows(self) -> Iterator[tuple]:
        raise NotImplementedError


class _LifespanBlock(RecordBlock):
    """Records with ``k × m`` member ids and one lifespan each."""

    __slots__ = ()

    #: The record's ``"type"`` and the key of its member ids.
    _type: str
    _ids_key: str

    ids = _column(0, "Member ids, one row per record.")
    starts = _column(1, "Lifespan starts.")
    ends = _column(2, "Lifespan ends.")

    def __init__(self, ids: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> None:
        super().__init__(ids, starts, ends)

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

    __slots__ = ()

    p = _column(0, "Anchor ids.")
    q = _column(1, "Partner ids.")
    score = _column(2, "Scores.")

    def __init__(self, p: np.ndarray, q: np.ndarray, score: np.ndarray) -> None:
        super().__init__(p, q, score)

    def _build(self) -> List[PairRecord]:
        return [
            PairRecord(p=a, q=b, score=s)
            for a, b, s in zip(self.p.tolist(), self.q.tolist(), self.score.tolist())
        ]

    def _template(self) -> str:
        return '{"type": "pair", "p": %d, "q": %d, "score": %r}'

    def _rows(self) -> Iterator[tuple]:
        return zip(self.p.tolist(), self.q.tolist(), _float_cells(self.score))
