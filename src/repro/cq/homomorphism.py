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

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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


def _search(ordered: Sequence[Atom], target: Sequence[Atom],
            seed: Mapping) -> Optional[Mapping]:
    """The first extension of *seed* under which the *ordered* source
    atoms, mapped in that order, occur among the target atoms, or
    None."""
    index = _index_by_predicate(target)

    def search(position: int, mapping: Mapping) -> Optional[Mapping]:
        if position == len(ordered):
            return mapping
        atom = ordered[position]
        for candidate in index.get(atom.predicate, ()):
            extended = _bind(atom.args, candidate.args, mapping)
            if extended is not None:
                found = search(position + 1, extended)
                if found is not None:
                    return found
        return None

    return search(0, dict(seed))


def find_homomorphism(source: Sequence[Atom], target: Sequence[Atom],
                      seed: Optional[Mapping] = None) -> Optional[Mapping]:
    """The first homomorphism found, or None."""
    seed = dict(seed or {})
    return _search(order_atoms(source, seed.keys()), target, seed)


def containment_mapping(psi, theta) -> Optional[Mapping]:
    """A containment mapping from query *psi* to query *theta*.

    Per Theorem 2.2 such a mapping exists iff theta is contained in psi.
    Head predicates are not compared (only the argument tuples matter);
    repeated head variables and head constants are handled by the seed.
    """
    seed = _bind(psi.head.args, theta.head.args, {})
    if seed is None:
        return None
    return _search(psi.mapping_order, theta.body, seed)
