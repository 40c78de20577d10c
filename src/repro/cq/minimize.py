"""Minimization of conjunctive queries (core computation).

A conjunctive query is *minimal* when no body atom can be dropped
without changing its semantics.  The minimal equivalent subquery (the
"core") is unique up to variable renaming; it is computed by repeatedly
removing atoms whose removal preserves equivalence, which by
Theorem 2.2 reduces to a containment-mapping check.
"""

from __future__ import annotations

from ..budget import check_deadline
from .containment import cq_contained_in
from .query import ConjunctiveQuery


def _without(query: ConjunctiveQuery, index: int) -> ConjunctiveQuery:
    body = query.body[:index] + query.body[index + 1 :]
    return ConjunctiveQuery(query.head, body)


def minimize(query: ConjunctiveQuery) -> ConjunctiveQuery:
    """The core of *query*: a minimal equivalent subquery.

    Removing an atom can only enlarge the result, so the subquery always
    contains the original; equivalence therefore reduces to checking
    that the subquery is contained in the original (one homomorphism
    test per candidate removal).
    """
    current = query
    changed = True
    while changed:
        check_deadline()
        changed = False
        for index in range(len(current.body)):
            candidate = _without(current, index)
            if not candidate.is_safe and query.is_safe:
                # Never trade a safe query for an unsafe one; under
                # active-domain semantics they may differ.
                continue
            if cq_contained_in(candidate, current):
                current = candidate
                changed = True
                break
    return current


def is_minimal(query: ConjunctiveQuery) -> bool:
    """True when no single atom can be removed preserving equivalence."""
    for index in range(len(query.body)):
        candidate = _without(query, index)
        if not candidate.is_safe and query.is_safe:
            continue
        if cq_contained_in(candidate, query):
            return False
    return True

