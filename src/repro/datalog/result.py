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
that same text, a chunk of rows at a time, off the relation's packed
id keys: the image interns its values in value order, so the sorted
keys are the rows in digest order, and the two agree byte for byte.
A relation holding an id outside that order (a program constant the
database lacks) is digested by :func:`rows_checksum` itself.
"""

from __future__ import annotations

import hashlib
from itertools import chain, repeat
from typing import Dict, FrozenSet, Optional, Tuple

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


class EvaluationResult:
    """Outcome of a bottom-up evaluation.

    ``idb`` maps each IDB predicate to its derived rows; ``stages`` is
    the number of rounds executed before the fixpoint (or the stage
    bound) was reached; ``fixpoint`` tells whether a fixpoint was
    actually reached.

    Built either from eager *idb* rows or from a columnar *store*
    (anything with ``idb``, ``count``, ``cols``, ``unintern_rows``,
    ``sorted_chunks`` and ``value_rows``); in the latter case rows are
    un-interned per predicate on first request and cached.
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
        write the same text off the sorted packed id keys, a chunk of
        rows at a time, so neither a :class:`Constant` nor a value
        column is built."""
        store = self._store
        if store is None or predicate not in self._predicates:
            return rows_checksum(self.facts(predicate))
        check_deadline()
        n = store.count(predicate)
        arity = len(store.cols(predicate))
        if not arity:  # nothing derived, or a 0-ary relation's empty row
            return rows_checksum([()] if n else [])
        chunks = store.sorted_chunks(predicate, _CHUNK)
        if chunks is None:  # an id outside the value order
            return rows_checksum(store.value_rows(predicate))
        digest = hashlib.sha1(b"[(")
        for index, columns in enumerate(chunks):
            check_deadline()
            # Per row: the separator from the row before, then each
            # cell's repr (a 1-tuple's ends in ","), joined in one run.
            flat = [repeat("), (")]
            for column in columns:
                flat += [map(repr, column), repeat(", ")]
            flat[-1:] = [repeat(",")] if arity == 1 else []
            text = "".join(chain.from_iterable(zip(*flat))).encode()
            digest.update(text[4:] if index == 0 else text)  # no row before
        digest.update(b")]")
        return digest.hexdigest()[:16]

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
