"""Unfolding Datalog programs into (unions of) conjunctive queries.

Two operations from the paper:

* :func:`unfold_nonrecursive` rewrites a nonrecursive program as a
  finite union of conjunctive queries (Section 2.1).  The union may be
  exponentially larger than the program -- that blowup is the subject of
  Section 6 (Examples 6.1 and 6.6) and is measured by the succinctness
  benchmarks.
* :func:`expansions` enumerates the conjunctive queries corresponding
  to unfolding expansion trees (Definition 2.4) of a *recursive*
  program up to a height bound.  The infinite sequence of expansions
  underlies ``Q_Pi(D) = union of expansions (D)`` (Proposition 2.6) and
  the boundedness semi-decision procedure.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ..budget import check_deadline
from ..cq.query import ConjunctiveQuery, UnionOfConjunctiveQueries
from .analysis import is_recursive, slice_for_goal, topological_order
from .atoms import Atom
from .errors import NotNonrecursiveError
from .program import Program
from .terms import FreshVariableFactory, Variable
from .unify import Substitution, apply_to_atom, apply_to_atoms, unify_tuples


def _goal_head(program: Program, goal: str) -> Atom:
    arity = program.arity[goal]
    return Atom(goal, tuple(Variable(f"X{i}") for i in range(arity)))


def _rename_query(query: ConjunctiveQuery, factory: FreshVariableFactory) -> ConjunctiveQuery:
    """Rename every variable of *query* with globally fresh ones.

    Using one factory for the whole unfolding guarantees no accidental
    capture between successive template instantiations, including
    variables that survive only inside the substitution."""
    mapping = {v: factory.fresh() for v in sorted(query.variables, key=lambda v: v.name)}
    return query.substitute(mapping)


def unfold_nonrecursive(program: Program, goal: str,
                        dedupe: bool = True) -> UnionOfConjunctiveQueries:
    """Rewrite a nonrecursive program as a union of conjunctive queries.

    The result has head ``goal(X0, ..., Xk-1)`` with distinct
    distinguished variables.  Raises :class:`NotNonrecursiveError` on
    recursive input.  With ``dedupe`` (default) syntactic duplicates
    (up to the heuristic canonical renaming) are removed.
    """
    program.require_goal(goal)
    sliced = slice_for_goal(program, goal)
    if is_recursive(sliced):
        raise NotNonrecursiveError("cannot unfold a recursive program into a finite union")

    factory = FreshVariableFactory(prefix="U")
    idb = sliced.idb_predicates
    # templates[p] holds CQs with head p(...) whose bodies are EDB-only.
    templates: Dict[str, List[ConjunctiveQuery]] = {}

    for predicate in topological_order(sliced):
        expansions_for: List[ConjunctiveQuery] = []
        for rule in sliced.rules_for(predicate):
            fresh_rule = rule.rename_apart(factory)
            # Partial states: (substitution, collected EDB atoms).
            states: List[Tuple[Substitution, Tuple[Atom, ...]]] = [({}, ())]
            for atom in fresh_rule.body:
                if atom.predicate not in idb:
                    states = [(subst, collected + (atom,)) for subst, collected in states]
                    continue
                next_states: List[Tuple[Substitution, Tuple[Atom, ...]]] = []
                for subst, collected in states:
                    check_deadline()
                    call = apply_to_atom(atom, subst)
                    for template in templates.get(atom.predicate, ()):
                        renamed = _rename_query(template, factory)
                        unified = unify_tuples(renamed.head.args, call.args, subst)
                        if unified is None:
                            continue
                        next_states.append((unified, collected + renamed.body))
                states = next_states
                if not states:
                    break
            for subst, collected in states:
                check_deadline()
                head = apply_to_atom(fresh_rule.head, subst)
                body = apply_to_atoms(collected, subst)
                expansions_for.append(ConjunctiveQuery(head, body))
        templates[predicate] = expansions_for

    head = _goal_head(program, goal)
    factory.avoid(v.name for v in head.variable_set())
    disjuncts: List[ConjunctiveQuery] = []
    for template in templates.get(goal, ()):
        check_deadline()
        renamed = _rename_query(template, factory)
        unified = unify_tuples(renamed.head.args, head.args, {})
        if unified is None:
            continue
        disjuncts.append(
            ConjunctiveQuery(apply_to_atom(head, unified), apply_to_atoms(renamed.body, unified))
        )
    union = UnionOfConjunctiveQueries(disjuncts, arity=head.arity)
    return union.deduplicated() if dedupe else union


def expansions(program: Program, goal: str, max_height: int,
               exact_height: bool = False) -> Iterator[ConjunctiveQuery]:
    """Enumerate expansions of *goal* of height at most *max_height*.

    Each yielded conjunctive query is the query of one unfolding
    expansion tree (Definition 2.4) whose height (rule applications
    along the longest branch) is at most -- or, with ``exact_height``,
    exactly -- *max_height*.  The head is ``goal(X0, ..., Xk-1)``.
    """
    program.require_goal(goal)
    idb = program.idb_predicates
    factory = FreshVariableFactory(prefix="E")
    head = _goal_head(program, goal)
    factory.avoid(v.name for v in head.variable_set())

    # A state is (pending IDB atoms with their remaining height budget,
    # collected EDB atoms, substitution, height actually used).
    def search(pending, collected, subst, used) -> Iterator:
        if not pending:
            if not exact_height or used == max_height:
                yield ConjunctiveQuery(
                    apply_to_atom(head, subst), apply_to_atoms(collected, subst)
                )
            return
        (atom, budget), rest = pending[0], pending[1:]
        if budget <= 0:
            return
        call = apply_to_atom(atom, subst)
        for rule in program.rules_for(atom.predicate):
            check_deadline()
            fresh_rule = rule.rename_apart(factory)
            unified = unify_tuples(fresh_rule.head.args, call.args, subst)
            if unified is None:
                continue
            new_pending = rest + tuple(
                (a, budget - 1) for a in fresh_rule.body if a.predicate in idb
            )
            new_collected = collected + tuple(
                a for a in fresh_rule.body if a.predicate not in idb
            )
            depth_here = max_height - budget + 1
            yield from search(new_pending, new_collected, unified, max(used, depth_here))

    yield from search(((Atom(goal, head.args), max_height),), (), {}, 0)


def expansion_union(program: Program, goal: str, max_height: int,
                    dedupe: bool = True) -> UnionOfConjunctiveQueries:
    """The union of all expansions of height at most *max_height*."""
    disjuncts = list(expansions(program, goal, max_height))
    union = UnionOfConjunctiveQueries(disjuncts, arity=program.arity[goal])
    return union.deduplicated() if dedupe else union


def count_expansions(program: Program, goal: str, max_height: int) -> int:
    """Number of unfolding expansion trees of height <= max_height."""
    return sum(1 for _ in expansions(program, goal, max_height))
