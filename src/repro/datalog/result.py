"""Evaluation results and the row digest.

:class:`EvaluationResult` is what every evaluation path returns.  The
interpretive path hands it eager
:class:`~repro.datalog.terms.Constant` rows; the columnar path hands it
its :class:`~repro.datalog.columns.ColumnStore`, and
:class:`Constant` tuples are built only when a caller asks for them
(:meth:`EvaluationResult.facts`, :attr:`EvaluationResult.idb`).
:meth:`~EvaluationResult.count` and :meth:`~EvaluationResult.checksum`
read the interned id columns directly.

:func:`rows_checksum` is the one digest format of a relation: the
``repr`` of its sorted bare-value rows.  The columnar checksum writes
that same text from sorted value columns, a chunk of rows at a time,
without building a row tuple, so the two agree byte for byte.
"""

from __future__ import annotations

import hashlib
from itertools import islice
from operator import eq
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..budget import check_deadline
from .database import Database
from .terms import Constant

Row = Tuple[Constant, ...]

_EMPTY: FrozenSet[Row] = frozenset()

#: Rows of digest text hashed between two deadline checks.
_CHUNK = 4096


def _numbers_first(value) -> tuple:
    """The sort key of a value among mixed ints and strs."""
    return isinstance(value, str), value


def _sorted(items, key, mixed) -> list:
    """``sorted(items, key=key)``, or by *mixed* when mixed ints and
    strs make that raise (numbers first: the same order wherever the
    plain sort succeeds)."""
    try:
        return sorted(items, key=key)
    except TypeError:
        return sorted(items, key=mixed)


def rows_checksum(rows) -> str:
    """A process-independent digest of a relation.

    Rows are normalized to plain-value tuples (engine rows hold
    :class:`~repro.datalog.terms.Constant` objects; structural ground
    truth holds bare strings) and sorted, so the digest agrees between
    the engine under test and a graph-walk oracle, across processes
    and ``PYTHONHASHSEED`` values.  This is the ``checksum`` hook every
    evaluation :class:`~repro.session.Decision` carries.
    """
    rows = _sorted([tuple(getattr(value, "value", value) for value in row)
                    for row in rows],
                   None, lambda row: tuple(map(_numbers_first, row)))
    return hashlib.sha1(repr(rows).encode()).hexdigest()[:16]


def _columns_checksum(columns: List[Sequence], n: int) -> str:
    """``rows_checksum(zip(*columns))`` of *n* distinct rows, written
    from the value columns: row positions sort by the first column (by
    every column, last first, when it repeats), and each chunk of rows
    goes into the hash as its ``repr`` text."""
    def by(column, order):
        return _sorted(order, column.__getitem__,
                       lambda i: _numbers_first(column[i]))

    first = columns[0]
    if len(columns) == 1:  # distinct 1-tuples sort as their values do
        columns = [_sorted(first, None, _numbers_first)]
    else:
        order = by(first, range(n))
        if any(map(eq, map(first.__getitem__, order),
                   map(first.__getitem__, islice(order, 1, None)))):
            for column in reversed(columns):
                order = by(column, order)
        columns = [map(column.__getitem__, order) for column in columns]
    # zip recycles its tuple once the row text is built.
    rows = map(("(%r,)" if len(columns) == 1
                else "(" + ", ".join(["%r"] * len(columns)) + ")").__mod__,
               zip(*columns))
    digest = hashlib.sha1(b"[")
    for start in range(0, n, _CHUNK):
        check_deadline()
        text = ", ".join(islice(rows, _CHUNK))
        digest.update(((", " if start else "") + text).encode())
    digest.update(b"]")
    return digest.hexdigest()[:16]


class EvaluationResult:
    """Outcome of a bottom-up evaluation.

    ``idb`` maps each IDB predicate to its derived rows; ``stages`` is
    the number of rounds executed before the fixpoint (or the stage
    bound) was reached; ``fixpoint`` tells whether a fixpoint was
    actually reached.

    Built either from eager *idb* rows or from a columnar *store*
    (anything with ``idb``, ``count``, ``unintern_rows`` and
    ``value_columns``); in the latter case rows are un-interned per
    predicate on first request and cached.
    """

    __slots__ = ("stages", "fixpoint", "_rows", "_store", "_predicates")

    def __init__(self, idb: Optional[Dict[str, FrozenSet[Row]]] = None,
                 stages: int = 0, fixpoint: bool = False, *, store=None):
        self.stages = stages
        self.fixpoint = fixpoint
        self._rows: Dict[str, FrozenSet[Row]] = dict(idb or {})
        self._store = store
        self._predicates = (store.idb if store is not None
                            else frozenset(self._rows))

    @property
    def idb(self) -> Dict[str, FrozenSet[Row]]:
        """Every IDB predicate's rows (un-interning whatever is still
        in columnar form)."""
        if len(self._rows) < len(self._predicates):
            for predicate in self._predicates:
                self.facts(predicate)
        return self._rows

    def facts(self, predicate: str) -> FrozenSet[Row]:
        """Rows derived for *predicate* (empty when none)."""
        rows = self._rows.get(predicate)
        if rows is None:
            if predicate not in self._predicates:
                return _EMPTY
            rows = self._rows[predicate] = self._store.unintern_rows(predicate)
        return rows

    def count(self, predicate: str) -> int:
        """``len(self.facts(predicate))``, without building rows."""
        if predicate in self._rows or predicate not in self._predicates:
            return len(self.facts(predicate))
        return self._store.count(predicate)

    def checksum(self, predicate: str) -> str:
        """``rows_checksum(self.facts(predicate))``; columnar results
        digest the bare-value columns instead, so neither a
        :class:`Constant` nor a row tuple is built."""
        if self._store is None or predicate not in self._predicates:
            return rows_checksum(self.facts(predicate))
        columns = self._store.value_columns(predicate)
        n = self._store.count(predicate)
        check_deadline()
        if not columns:  # nothing derived, or a 0-ary relation's empty row
            return rows_checksum([()] if n else [])
        return _columns_checksum(columns, n)

    def as_database(self, base: Optional[Database] = None) -> Database:
        """The derived facts as a database, optionally merged onto *base*."""
        db = base.copy() if base is not None else Database()
        for predicate, rows in self.idb.items():
            for row in rows:
                db.add(predicate, row)
        return db

    def __eq__(self, other):
        if not isinstance(other, EvaluationResult):
            return NotImplemented
        return ((self.idb, self.stages, self.fixpoint)
                == (other.idb, other.stages, other.fixpoint))

    def __repr__(self):
        sizes = ", ".join(f"{p}:{self.count(p)}"
                          for p in sorted(self._predicates))
        return (f"EvaluationResult({sizes}; stages={self.stages}, "
                f"fixpoint={self.fixpoint})")
