"""Atoms: applications of a predicate symbol to a tuple of terms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Tuple

from .terms import Constant, Term, Variable, is_variable


@dataclass(frozen=True, slots=True)
class Atom:
    """An atomic formula ``p(t1, ..., tk)``.

    ``predicate`` is the predicate symbol name and ``args`` the tuple of
    terms.  Atoms are immutable; use :meth:`substitute` to produce
    renamed or instantiated copies.
    """

    predicate: str
    args: Tuple[Term, ...]

    def __post_init__(self):
        if not isinstance(self.args, tuple):
            object.__setattr__(self, "args", tuple(self.args))

    @property
    def arity(self) -> int:
        """Number of argument positions."""
        return len(self.args)

    def variables(self) -> Tuple[Variable, ...]:
        """All variable occurrences, in argument order (with repeats)."""
        return tuple(t for t in self.args if is_variable(t))

    def variable_set(self) -> frozenset:
        """The set of variables occurring in the atom."""
        return frozenset(t for t in self.args if is_variable(t))

    def constants(self) -> frozenset:
        """The set of constants occurring in the atom."""
        return frozenset(t for t in self.args if not is_variable(t))

    def is_ground(self) -> bool:
        """True when the atom contains no variables."""
        return all(not is_variable(t) for t in self.args)

    def substitute(self, subst: Mapping[Variable, Term]) -> "Atom":
        """Apply a substitution (variables not in *subst* are kept)."""
        return Atom(self.predicate, tuple([subst.get(t, t) for t in self.args]))

    def __str__(self):
        if not self.args:
            return self.predicate
        return f"{self.predicate}({', '.join(str(t) for t in self.args)})"

    def __repr__(self):
        return f"Atom({str(self)!r})"


def make_atom(predicate: str, *args) -> Atom:
    """Convenience constructor turning bare strings/ints into terms.

    Strings starting with an uppercase letter or underscore become
    variables; all other strings and all integers become constants.
    Terms are passed through unchanged.
    """
    converted = []
    for a in args:
        if isinstance(a, (Variable, Constant)):
            converted.append(a)
        elif isinstance(a, str) and a and (a[0].isupper() or a[0] == "_"):
            converted.append(Variable(a))
        else:
            converted.append(Constant(a))
    return Atom(predicate, tuple(converted))


def atoms_variables(atoms: Iterable[Atom]) -> frozenset:
    """The set of variables occurring in any of *atoms*."""
    result = set()
    for atom in atoms:
        result.update(atom.variable_set())
    return frozenset(result)


def atoms_constants(atoms: Iterable[Atom]) -> frozenset:
    """The set of constants occurring in any of *atoms*."""
    result = set()
    for atom in atoms:
        result.update(atom.constants())
    return frozenset(result)
