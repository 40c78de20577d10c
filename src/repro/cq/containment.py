"""Containment and equivalence of (unions of) conjunctive queries.

* Theorem 2.2: theta is contained in psi iff there is a containment
  mapping from psi to theta.
* Theorem 2.3 [SY81]: a union Phi is contained in a union Psi iff each
  disjunct of Phi is contained in some disjunct of Psi.

Both are decided exactly (NP-complete in general; the backtracking
search is fast on the query sizes arising in this reproduction).
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from ..budget import check_deadline
from .homomorphism import Mapping, containment_mapping
from .query import ConjunctiveQuery, UnionOfConjunctiveQueries


def cq_contained_in(theta: ConjunctiveQuery, psi: ConjunctiveQuery) -> bool:
    """True iff ``theta(D) subseteq psi(D)`` for every database D."""
    return containment_mapping(psi, theta) is not None


def cq_equivalent(theta: ConjunctiveQuery, psi: ConjunctiveQuery) -> bool:
    """Mutual containment of two conjunctive queries."""
    return cq_contained_in(theta, psi) and cq_contained_in(psi, theta)


def covering_disjunct(theta: ConjunctiveQuery, union: Iterable[ConjunctiveQuery]
                      ) -> Optional[Tuple[int, Mapping]]:
    """The first disjunct of *union* containing theta, as ``(index,
    containment mapping onto theta)``, or None."""
    for index, psi in enumerate(union):
        check_deadline()
        mapping = containment_mapping(psi, theta)
        if mapping is not None:
            return index, mapping
    return None


def cq_contained_in_ucq(theta: ConjunctiveQuery, union: UnionOfConjunctiveQueries) -> bool:
    """True iff theta is contained in some disjunct of *union*.

    By Theorem 2.3 this is equivalent to containment of theta in the
    union as a whole.
    """
    return covering_disjunct(theta, union) is not None


def ucq_contained_in(phi: UnionOfConjunctiveQueries,
                     psi: UnionOfConjunctiveQueries) -> bool:
    """True iff ``phi(D) subseteq psi(D)`` for every database D (Thm 2.3)."""
    return all(cq_contained_in_ucq(disjunct, psi) for disjunct in phi)


def ucq_equivalent(phi: UnionOfConjunctiveQueries,
                   psi: UnionOfConjunctiveQueries) -> bool:
    """Mutual containment of two unions of conjunctive queries."""
    return ucq_contained_in(phi, psi) and ucq_contained_in(psi, phi)


def minimal_union(union: UnionOfConjunctiveQueries) -> UnionOfConjunctiveQueries:
    """Remove disjuncts contained in another disjunct of the union.

    The result is equivalent to the input and contains no disjunct that
    is redundant relative to the others (a single pass suffices because
    containment between the survivors is unchanged).
    """
    disjuncts = list(union.deduplicated())
    removed = set()
    for i, query in enumerate(disjuncts):
        for j, other in enumerate(disjuncts):
            if i == j or j in removed:
                continue
            if cq_contained_in(query, other):
                if j > i and cq_contained_in(other, query):
                    # Equivalent pair: keep the earlier disjunct.
                    continue
                removed.add(i)
                break
    kept = [query for i, query in enumerate(disjuncts) if i not in removed]
    return UnionOfConjunctiveQueries(kept, union.arity)
