"""Materialize the Proposition 5.10 automaton as an explicit
:class:`~repro.automata.tree.TreeAutomaton`.

The containment procedure never needs this (it works with the lazy
automata), but materialization enables the literal Theorem 5.11 check

    T(A^ptrees)  subseteq  union_i T(A^theta_i)

through the *generic* tree-automata substrate -- an end-to-end
cross-validation of the specialized fixpoint, exercised by the tests
and the ablation benchmarks on small inputs.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from ..automata.tree import TreeAutomaton
from ..budget import check_deadline
from ..cq.query import ConjunctiveQuery, UnionOfConjunctiveQueries
from ..datalog.program import Program
from .cq_automaton import CQAutomaton, CQState
from .instances import Label
from .ptree_automaton import PTreeAutomaton


def materialize_cq_automaton(program: Program, goal: str,
                             theta: ConjunctiveQuery) -> TreeAutomaton:
    """The explicit ``A^theta(Q, Pi)`` restricted to reachable states.

    States are the reachable :class:`CQState` triples; the alphabet is
    the shared label alphabet of Proposition 5.9.  Exponential -- use on
    small inputs only.
    """
    ptrees = PTreeAutomaton(program, goal)
    automaton = CQAutomaton(program, goal, theta)

    initial: List[CQState] = []
    for atom in ptrees.initial_atoms():
        state = automaton.initial_state(atom)
        if state is not None:
            initial.append(state)

    states: Set[CQState] = set(initial)
    transitions: List[Tuple[CQState, Label, Tuple[CQState, ...]]] = []
    frontier: List[CQState] = list(initial)
    processed: Set[CQState] = set()
    alphabet: Set[Label] = set()
    while frontier:
        check_deadline()
        state = frontier.pop()
        if state in processed:
            continue
        processed.add(state)
        for label in ptrees.enumerator.labels_for(state.atom):
            for children in automaton.successors_cached(state, label):
                alphabet.add(label)
                transitions.append((state, label, children))
                for child in children:
                    if child not in states:
                        states.add(child)
                        frontier.append(child)
    return TreeAutomaton.build(
        alphabet=alphabet,
        states=states,
        initial=initial,
        transitions=transitions,
    )


def theorem_5_11_via_substrate(program: Program, goal: str,
                               union: UnionOfConjunctiveQueries) -> bool:
    """Decide Theorem 5.11's containment literally through the generic
    tree-automata layer: materialize both sides, take the union of the
    query automata, and call the substrate containment."""
    from ..automata.tree import contained_in

    left = PTreeAutomaton(program, goal).materialize()
    rights = [
        materialize_cq_automaton(program, goal, theta) for theta in union
    ]
    if not rights:
        return left.is_empty()
    combined = rights[0]
    for automaton in rights[1:]:
        combined = combined.union(automaton)
    return contained_in(left, combined)
