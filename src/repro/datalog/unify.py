"""First-order unification for the function-free language.

Since Datalog has no function symbols, unification never needs an
occurs check: a substitution binds variables to variables or constants
only.  Substitutions are kept in triangular form (bindings may chain)
and resolved on demand.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from .atoms import Atom
from .terms import Constant, Term, Variable, is_variable

Substitution = Dict[Variable, Term]


def resolve(term: Term, subst: Substitution) -> Term:
    """Follow variable bindings in *subst* until a fixed term is reached."""
    while is_variable(term) and term in subst:
        term = subst[term]
    return term


def unify_terms(left: Term, right: Term, subst: Substitution) -> Optional[Substitution]:
    """Unify two terms under *subst*; returns the extended substitution
    (a new dict) or None on clash."""
    left = resolve(left, subst)
    right = resolve(right, subst)
    if left == right:
        return subst
    if is_variable(left):
        extended = dict(subst)
        extended[left] = right
        return extended
    if is_variable(right):
        extended = dict(subst)
        extended[right] = left
        return extended
    return None  # two distinct constants


def unify_tuples(left: Sequence[Term], right: Sequence[Term],
                 subst: Optional[Substitution] = None) -> Optional[Substitution]:
    """Unify two equal-length term tuples; None on failure."""
    if len(left) != len(right):
        return None
    current: Substitution = dict(subst or {})
    for l, r in zip(left, right):
        result = unify_terms(l, r, current)
        if result is None:
            return None
        current = result
    return current


def apply_to_atom(atom: Atom, subst: Substitution) -> Atom:
    """Fully resolve every argument of *atom* under *subst*."""
    return Atom(atom.predicate, tuple(resolve(t, subst) for t in atom.args))


def apply_to_atoms(atoms: Iterable[Atom], subst: Substitution) -> Tuple[Atom, ...]:
    """Fully resolve a sequence of atoms under *subst*."""
    return tuple(apply_to_atom(atom, subst) for atom in atoms)
