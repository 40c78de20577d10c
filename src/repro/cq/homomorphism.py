"""Containment mappings / homomorphisms between conjunctive queries.

Implements Definition 2.1 of the paper, extended with constants per
Remark 5.14: a containment mapping from psi to theta renames variables
of psi such that (a) the head of psi maps onto the head of theta
argument-wise, (b) nondistinguished variables may map to variables or
constants of theta, and (c) after renaming every body atom of psi is
among the body atoms of theta.

The search is a backtracking constraint solver over the atoms of psi,
with target atoms indexed by predicate and source atoms ordered
most-constrained-first.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..datalog.atoms import Atom
from ..datalog.terms import Term, Variable

Mapping = Dict[Variable, Term]


def _index_by_predicate(atoms: Sequence[Atom]) -> Dict[str, List[Atom]]:
    index: Dict[str, List[Atom]] = {}
    for atom in atoms:
        index.setdefault(atom.predicate, []).append(atom)
    return index


def _bind(source: Tuple[Term, ...], target: Tuple[Term, ...],
          mapping: Mapping) -> Optional[Mapping]:
    """Extend *mapping* so that the *source* terms map onto the *target*
    terms argument-wise; None when the arities differ or a constant or
    an earlier binding clashes."""
    if len(source) != len(target):
        return None
    extended = dict(mapping)
    for source_term, target_term in zip(source, target):
        if isinstance(source_term, Variable):
            bound = extended.get(source_term)
            if bound is None:
                extended[source_term] = target_term
            elif bound != target_term:
                return None
        elif source_term != target_term:
            return None
    return extended


def order_atoms(atoms: Sequence[Atom], bound: Iterable[Variable]) -> List[Atom]:
    """Order source atoms so that each step shares variables with the
    already-mapped prefix where possible (reduces backtracking)."""
    if len(atoms) < 2:
        return list(atoms)
    remaining = [(atom, atom.variable_set(), len(atom.constants()))
                 for atom in atoms]
    ordered: List[Atom] = []
    seen = set(bound)

    def score(index: int) -> Tuple[int, int]:
        _atom, variables, constants = remaining[index]
        return (len(variables & seen) + constants, -len(variables - seen))

    while remaining:
        atom, variables, _ = remaining.pop(max(range(len(remaining)), key=score))
        ordered.append(atom)
        seen.update(variables)
    return ordered


def enumerate_homomorphisms(source: Sequence[Atom], target: Sequence[Atom],
                            seed: Optional[Mapping] = None) -> Iterator[Mapping]:
    """Yield every mapping of source variables to target terms under
    which each source atom occurs among the target atoms, extending the
    optional *seed* mapping."""
    seed = dict(seed or {})
    yield from _search(order_atoms(source, seed.keys()), target, seed, False)


def _search(ordered: Sequence[Atom], target: Sequence[Atom], seed: Mapping,
            first: bool) -> List[Mapping]:
    """Every extension of *seed* under which the *ordered* source atoms,
    mapped in that order, occur among the target atoms -- or, with
    *first*, only the first one found."""
    index = _index_by_predicate(target)
    found: List[Mapping] = []

    def search(position: int, mapping: Mapping) -> bool:
        if position == len(ordered):
            found.append(mapping)
            return first
        atom = ordered[position]
        for candidate in index.get(atom.predicate, ()):
            extended = _bind(atom.args, candidate.args, mapping)
            if extended is not None and search(position + 1, extended):
                return True
        return False

    search(0, dict(seed))
    return found


def find_homomorphism(source: Sequence[Atom], target: Sequence[Atom],
                      seed: Optional[Mapping] = None) -> Optional[Mapping]:
    """The first homomorphism found, or None."""
    seed = dict(seed or {})
    found = _search(order_atoms(source, seed.keys()), target, seed, True)
    return found[0] if found else None


def containment_mapping(psi, theta) -> Optional[Mapping]:
    """A containment mapping from query *psi* to query *theta*.

    Per Theorem 2.2 such a mapping exists iff theta is contained in psi.
    Head predicates are not compared (only the argument tuples matter);
    repeated head variables and head constants are handled by the seed.
    """
    seed = _bind(psi.head.args, theta.head.args, {})
    if seed is None:
        return None
    found = _search(psi.mapping_order, theta.body, seed, True)
    return found[0] if found else None


def enumerate_containment_mappings(psi, theta) -> Iterator[Mapping]:
    """All containment mappings from *psi* to *theta*."""
    seed = _bind(psi.head.args, theta.head.args, {})
    if seed is None:
        return
    yield from _search(psi.mapping_order, theta.body, seed, False)
