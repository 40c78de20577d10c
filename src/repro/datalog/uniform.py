"""Uniform containment of Datalog programs [Sa88b].

``Pi`` is *uniformly contained* in ``Pi'`` (over the same IDB/EDB
vocabulary) when ``Pi(D) subseteq Pi'(D)`` for every database D that
may already contain IDB facts -- i.e. treating the IDB predicates as
extensional on input.  Uniform containment implies ordinary
containment and, unlike it, is decidable in polynomial time per rule:
Pi is uniformly contained in Pi' iff for every rule of Pi, evaluating
Pi' on the frozen body derives the frozen head [Sa88b].

The paper cites this line of work as the prior art its automata
machinery supersedes for the general (non-uniform) problem; the module
exists both as the classical baseline and as a cheap sufficient check
used by the benchmarks.
"""

from __future__ import annotations

from ..cq.canonical import canonical_database
from ..cq.query import ConjunctiveQuery
from .engine import evaluate
from .errors import ValidationError
from .program import Program
from .rules import Rule


def rule_uniformly_subsumed(rule: Rule, program: Program) -> bool:
    """Does *program* derive the frozen head of *rule* from its frozen
    body (its canonical database)?  (The per-rule test of the
    uniform-containment criterion.)"""
    if not rule.is_safe:
        raise ValidationError(
            f"uniform containment requires safe rules, got {rule}"
        )
    database, head_row = canonical_database(ConjunctiveQuery.from_rule(rule))
    predicate = rule.head.predicate
    if predicate in program.idb_predicates:
        return head_row in evaluate(program, database).facts(predicate)
    return database.contains(predicate, head_row)


def uniformly_contained_in(pi: Program, pi_prime: Program) -> bool:
    """Sound and complete test for uniform containment [Sa88b]:
    every rule of *pi* must be uniformly subsumed by *pi_prime*.

    Uniform containment implies ordinary containment of every common
    IDB predicate; the converse fails (Example 1.1's Pi_1 is contained
    in -- indeed equivalent to -- its rewriting, but not uniformly).
    """
    return all(rule_uniformly_subsumed(rule, pi_prime) for rule in pi.rules)


def uniformly_equivalent(pi: Program, pi_prime: Program) -> bool:
    """Mutual uniform containment."""
    return (uniformly_contained_in(pi, pi_prime)
            and uniformly_contained_in(pi_prime, pi))
