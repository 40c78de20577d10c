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

from heapq import heappop, heappush
from itertools import count
from typing import (Callable, Dict, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

from ..budget import check_deadline
from ..cq.query import ConjunctiveQuery, UnionOfConjunctiveQueries
from .analysis import is_recursive, slice_for_goal, topological_order
from .atoms import Atom
from .errors import NotNonrecursiveError
from .program import Program
from .terms import FreshVariableFactory, Variable, is_variable
from .unify import apply_to_atom, apply_to_atoms, unify_tuples


def _goal_head(program: Program, goal: str) -> Atom:
    arity = program.arity[goal]
    return Atom(goal, tuple(Variable(f"X{i}") for i in range(arity)))


def fresh_copies(factory: FreshVariableFactory
                 ) -> Callable[[ConjunctiveQuery, int], ConjunctiveQuery]:
    """The *rename* of :func:`compositions` that gives each template
    fresh variables from *factory*: one factory for a whole rewriting
    rules out capture between successive template copies."""
    def rename(query: ConjunctiveQuery, _level: int) -> ConjunctiveQuery:
        return query.substitute({v: factory.fresh() for v in sorted(
            query.variables, key=lambda v: v.name)})

    return rename


def compositions(rule, templates: Mapping[str, Sequence[ConjunctiveQuery]],
                 rename: Callable[[ConjunctiveQuery, int], ConjunctiveQuery]
                 ) -> Iterator[Tuple[Tuple[int, ...],
                                     Optional[ConjunctiveQuery]]]:
    """Yield ``(choice, query)`` for every choice of one template per
    body atom of *rule* (a rule or query) whose predicate has templates,
    in lexicographic order: the i-th such atom is replaced by its
    ``choice[i]``-th template, renamed by ``rename(template, i)`` and
    unified at its head.  When a head does not unify, ``query`` is None
    and ``choice`` is the dead prefix, yielded once for all its
    extensions.  *rename* must give variables found nowhere else; it
    runs on each partial composition that unifies, atom by atom, the
    last lazily."""
    body = rule.body
    slots = [k for k, atom in enumerate(body) if atom.predicate in templates]
    starts = [0] + [k + 1 for k in slots]

    def extend(partial, level):
        # A partial composition: (choice, unifier or None, atoms so far).
        atom = body[slots[level]]
        for choice, subst, atoms in partial:
            if subst is None:
                yield choice, None, ()
                continue
            check_deadline()
            atoms += body[starts[level]:slots[level]]
            for j, template in enumerate(templates[atom.predicate]):
                renamed = rename(template, level)
                unified = unify_tuples(renamed.head.args, atom.args, subst)
                yield choice + (j,), unified, atoms + renamed.body

    partial = [((), {}, ())]
    for level in range(len(slots)):
        partial = extend(list(partial), level)
    for choice, subst, atoms in partial:
        check_deadline()
        yield choice, None if subst is None else ConjunctiveQuery(
            apply_to_atom(rule.head, subst),
            apply_to_atoms(atoms + body[starts[-1]:], subst))


def unfold_nonrecursive(program: Program,
                        goal: str) -> UnionOfConjunctiveQueries:
    """Rewrite a nonrecursive program as a union of conjunctive queries.

    The result has head ``goal(X0, ..., Xk-1)`` with distinct
    distinguished variables.  Raises :class:`NotNonrecursiveError` on
    recursive input.  Syntactic duplicates (up to the heuristic
    canonical renaming) are removed.
    """
    program.require_goal(goal)
    sliced = slice_for_goal(program, goal)
    if is_recursive(sliced):
        raise NotNonrecursiveError("cannot unfold a recursive program into a finite union")

    factory = FreshVariableFactory(prefix="U")
    rename = fresh_copies(factory)
    # templates[p] holds CQs with head p(...) whose bodies are EDB-only.
    templates: Dict[str, List[ConjunctiveQuery]] = {}
    for predicate in topological_order(sliced):
        templates[predicate] = [
            query for rule in sliced.rules_for(predicate)
            for _, query in compositions(rule.rename_apart(factory),
                                         templates, rename)
            if query is not None]

    head = _goal_head(program, goal)
    factory.avoid(v.name for v in head.variable_set())
    # Each goal template, composed into the query goal(X0, ...).
    disjuncts = [query for _, query in compositions(
        ConjunctiveQuery(head, (head,)), templates, rename)
        if query is not None]
    return UnionOfConjunctiveQueries(disjuncts,
                                     arity=head.arity).deduplicated()


def expansion_derivations(program: Program, goal: str, max_height: int,
                          exact_height: bool = False) -> Iterator[Tuple]:
    """Enumerate, lazily and in increasing height, the expansions of
    *goal* of height (rule applications on the longest branch) at most
    -- or, with ``exact_height``, exactly -- *max_height*.

    Yields ``(query, steps, subst)``: the conjunctive query of one
    unfolding expansion tree (Definition 2.4), with head
    ``goal(X0, ..., Xk-1)``; its ``(rule, renaming)`` per node, in
    breadth-first order; and the final unifier, still to be applied
    to the renamed rules (:func:`repro.trees.expansion.derivation_tree`).
    """
    program.require_goal(goal)
    idb = program.idb_predicates
    factory = FreshVariableFactory(prefix="E")
    head = _goal_head(program, goal)
    factory.avoid(v.name for v in head.variable_set())
    # Per predicate: each rule; whether its head is distinct variables,
    # bound to the call's terms without unification; the variables its
    # fresh copy renames, in name order; its IDB and EDB body atoms.
    compiled: Dict[str, List[Tuple]] = {}
    for rule in program.rules:
        args = rule.head.args
        rectified = all(map(is_variable, args)) and len(set(args)) == len(args)
        renamed = rule.variables() - set(args) if rectified else rule.variables()
        compiled.setdefault(rule.head.predicate, []).append(
            (rule, rectified, sorted(renamed, key=lambda v: v.name),
             rule.idb_body_atoms(idb), rule.edb_body_atoms(idb)))

    # A partial derivation is (height so far, creation order, pending
    # IDB atoms with their depth, EDB atoms, steps, substitution); its
    # height only grows, so the heap completes them in height order.
    sequence = count()
    queue = [(1, next(sequence), ((Atom(goal, head.args), 1),), (), (), {})]
    while queue:
        height, _, pending, collected, steps, subst = heappop(queue)
        if not pending:
            if not exact_height or height == max_height:
                # Through rectified heads only, nothing is bound.
                yield (ConjunctiveQuery(apply_to_atom(head, subst),
                                        apply_to_atoms(collected, subst))
                       if subst else ConjunctiveQuery(head, collected),
                       steps, subst)
            continue
        check_deadline()
        (atom, depth), rest = pending[0], pending[1:]
        for rule, rectified, names, idb_atoms, edb_atoms in compiled[
                atom.predicate]:
            if idb_atoms and depth == max_height:
                continue
            fresh = {v: factory.fresh() for v in names}
            if rectified:
                fresh.update(zip(rule.head.args, atom.args))
                unified = subst
            else:
                unified = unify_tuples(rule.head.substitute(fresh).args,
                                       atom.args, subst)
                if unified is None:
                    continue
            queued = rest + tuple((a.substitute(fresh), depth + 1)
                                  for a in idb_atoms)
            heappush(queue, (
                queued[-1][1] if queued else height, next(sequence), queued,
                collected + tuple(a.substitute(fresh) for a in edb_atoms),
                steps + ((rule, fresh),), unified))


def expansions(program: Program, goal: str, max_height: int,
               exact_height: bool = False) -> Iterator[ConjunctiveQuery]:
    """The queries of :func:`expansion_derivations`."""
    return (query for query, _steps, _subst in expansion_derivations(
        program, goal, max_height, exact_height))


def expansion_union(program: Program, goal: str,
                    max_height: int) -> UnionOfConjunctiveQueries:
    """The union of all expansions of height at most *max_height*, up
    to syntactic duplicates."""
    disjuncts = list(expansions(program, goal, max_height))
    return UnionOfConjunctiveQueries(
        disjuncts, arity=program.arity[goal]).deduplicated()


def count_expansions(program: Program, goal: str, max_height: int) -> int:
    """Number of unfolding expansion trees of height <= max_height."""
    return sum(1 for _ in expansions(program, goal, max_height))
