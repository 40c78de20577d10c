"""Databases: finite relational structures over constants.

A database maps predicate symbols to finite sets of tuples of
constants.  This is the extensional input ``D`` on which programs and
queries are evaluated throughout the paper.

Rows are stored as tuples of *bare values* (the payloads of
:class:`~repro.datalog.terms.Constant`), so bulk ingest and the
columnar interner never hash a Python-level dataclass.  The
:class:`Constant` views -- :meth:`Database.relation`,
:meth:`Database.facts`, :meth:`Database.active_domain` -- are built on
first use and cached until the relation next changes.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Set, Tuple

from .atoms import Atom
from .errors import ArityError, ValidationError
from .terms import Constant

Fact = Tuple[str, Tuple[Constant, ...]]


def _bare(row: Iterable) -> tuple:
    """*row* with every :class:`Constant` unwrapped to its value."""
    return tuple(v.value if isinstance(v, Constant) else v for v in row)


def _arity_error(predicate: str, known: int, other: int) -> ArityError:
    return ArityError(
        f"predicate {predicate!r} used with arities {known} and {other}")


class Database:
    """A mutable finite relational structure.

    Use :meth:`add` / :meth:`add_atom` / :meth:`add_rows` to populate,
    or the classmethod constructors :meth:`from_facts` and
    :meth:`from_atoms`.
    """

    def __init__(self):
        #: predicate -> set of bare-value rows.
        self._relations: Dict[str, Set[tuple]] = {}
        self._arity: Dict[str, int] = {}
        #: Cached :class:`Constant` views per predicate (:meth:`relation`
        #: is called inside fixpoint loops).  Invalidated per predicate
        #: on insert.
        self._frozen: Dict[str, FrozenSet[Tuple[Constant, ...]]] = {}
        #: ``(version, view)`` of the cached :meth:`active_domain`.
        self._domain: Optional[Tuple[int, FrozenSet[Constant]]] = None
        #: Mutation counter: bumped by every insert, so derived caches
        #: (the columnar EDB image) can detect staleness cheaply.
        self._version = 0

    @classmethod
    def from_facts(cls, facts: Iterable[Fact]) -> "Database":
        """Build a database from ``(predicate, row)`` pairs; rows may
        mix :class:`Constant` objects and bare values."""
        db = cls()
        for predicate, row in facts:
            db.add(predicate, row)
        return db

    @classmethod
    def from_atoms(cls, atoms: Iterable[Atom]) -> "Database":
        """Build a database from ground atoms."""
        db = cls()
        for atom in atoms:
            db.add_atom(atom)
        return db

    def add(self, predicate: str, row: Iterable) -> None:
        """Insert one tuple; :class:`Constant` entries are stored as
        their bare values."""
        row = _bare(row)
        known = self._arity.setdefault(predicate, len(row))
        if known != len(row):
            raise _arity_error(predicate, known, len(row))
        self._relations.setdefault(predicate, set()).add(row)
        self._frozen.pop(predicate, None)
        self._version += 1

    def add_rows(self, predicate: str, rows: Iterable[tuple]) -> None:
        """Bulk insert of bare-value tuples (no :class:`Constant`
        entries) with one arity check for the whole batch."""
        if not isinstance(rows, (list, tuple, set, frozenset)):
            rows = list(rows)
        if not rows:
            return
        arities = set(map(len, rows))
        if len(arities) != 1:
            raise ArityError(f"predicate {predicate!r} used with arities "
                             f"{sorted(arities)}")
        (arity,) = arities
        known = self._arity.setdefault(predicate, arity)
        if known != arity:
            raise _arity_error(predicate, known, arity)
        self._relations.setdefault(predicate, set()).update(rows)
        self._frozen.pop(predicate, None)
        self._version += 1

    def add_atom(self, atom: Atom) -> None:
        """Insert a ground atom as a fact."""
        if not atom.is_ground():
            raise ValidationError(f"cannot store non-ground atom {atom}")
        self.add(atom.predicate, atom.args)

    def relation(self, predicate: str) -> FrozenSet[Tuple[Constant, ...]]:
        """The set of :class:`Constant` tuples for *predicate* (empty if
        absent).

        The view is built on first use and cached until the predicate
        is next mutated, so repeated lookups inside fixpoint loops are
        O(1)."""
        view = self._frozen.get(predicate)
        if view is None:
            view = frozenset(tuple(map(Constant, row))
                             for row in self._relations.get(predicate, ()))
            self._frozen[predicate] = view
        return view

    def relations(self) -> Iterator[Tuple[str, Set[tuple]]]:
        """Iterate over ``(predicate, row set)`` pairs of *bare-value*
        rows (bulk access for columnar imaging; the sets must not be
        mutated by callers)."""
        return iter(self._relations.items())

    def version(self) -> int:
        """The mutation counter (bumped on every insert); lets derived
        caches validate themselves without hashing the fact set."""
        return self._version

    def predicates(self) -> FrozenSet[str]:
        """All predicates that have at least one declared arity."""
        return frozenset(self._arity)

    def arity(self, predicate: str) -> int:
        """Arity of *predicate* (raises KeyError when unknown)."""
        return self._arity[predicate]

    def facts(self) -> Iterator[Fact]:
        """Iterate over all facts as ``(predicate, row)`` pairs of
        :class:`Constant` tuples."""
        for predicate in self._relations:
            for row in self.relation(predicate):
                yield predicate, row

    def atoms(self) -> Iterator[Atom]:
        """Iterate over all facts as ground atoms."""
        for predicate, row in self.facts():
            yield Atom(predicate, row)

    def active_domain(self) -> FrozenSet[Constant]:
        """All constants occurring in some fact (cached until the next
        insert)."""
        cached = self._domain
        if cached is not None and cached[0] == self._version:
            return cached[1]
        values = set()
        for rows in self._relations.values():
            for row in rows:
                values.update(row)
        view = frozenset(map(Constant, values))
        self._domain = (self._version, view)
        return view

    def contains(self, predicate: str, row: Iterable) -> bool:
        """Membership test; rows may mix constants and bare values."""
        return _bare(row) in self._relations.get(predicate, ())

    def copy(self) -> "Database":
        """An independent copy (bulk set copies; rows are immutable
        tuples)."""
        db = Database()
        db._arity = dict(self._arity)
        db._relations = {p: set(rows) for p, rows in self._relations.items()}
        db._frozen = dict(self._frozen)  # frozen views are immutable
        return db

    def merge(self, other: "Database") -> "Database":
        """A new database holding the union of the two fact sets (bulk
        set unions per predicate; arity mismatches still raise)."""
        db = self.copy()
        for predicate, rows in other._relations.items():
            if not rows:
                continue
            arity = other._arity[predicate]
            known = db._arity.setdefault(predicate, arity)
            if known != arity:
                raise _arity_error(predicate, known, arity)
            db._relations.setdefault(predicate, set()).update(rows)
            db._frozen.pop(predicate, None)
            db._version += 1
        return db

    def restrict(self, predicates: Iterable[str]) -> "Database":
        """A new database keeping only the given predicates (bulk set
        copies)."""
        keep = set(predicates)
        db = Database()
        for predicate, rows in self._relations.items():
            if predicate in keep and rows:
                db._arity[predicate] = self._arity[predicate]
                db._relations[predicate] = set(rows)
        return db

    def __len__(self):
        return sum(len(rows) for rows in self._relations.values())

    def __eq__(self, other):
        if not isinstance(other, Database):
            return NotImplemented
        mine = {p: rows for p, rows in self._relations.items() if rows}
        theirs = {p: rows for p, rows in other._relations.items() if rows}
        return mine == theirs

    def __repr__(self):
        parts = ", ".join(f"{p}:{len(rows)}" for p, rows in sorted(self._relations.items()))
        return f"Database({parts})"
