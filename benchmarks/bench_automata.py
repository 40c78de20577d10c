"""E15 -- tree-automata substrate (Propositions 4.5, 4.6).

Regenerates the substrate cost model the upper bounds rely on:

* tree emptiness is cheap (a bottom-up fixpoint);
* containment is the expensive operation, decided by the antichain
  search.
"""

import random

import pytest

from repro.automata.tree import TreeAutomaton
from repro.automata.tree import contained_in as tree_contained_in


def random_tree_automaton(rng: random.Random, size: int) -> TreeAutomaton:
    states = [f"s{i}" for i in range(size)]
    transitions = [(s, "a", ()) for s in states]
    for state in states:
        for _ in range(3):
            transitions.append(
                (state, "f", (rng.choice(states), rng.choice(states)))
            )
    return TreeAutomaton.build(["f", "a"], states, [states[0]], transitions)


@pytest.mark.parametrize("size", [4, 8])
def test_tree_emptiness(benchmark, size):
    automaton = random_tree_automaton(random.Random(size), size)
    assert not benchmark(automaton.is_empty)


@pytest.mark.parametrize("size", [3, 5])
def test_tree_containment(benchmark, size):
    rng = random.Random(size)
    left = random_tree_automaton(rng, size)
    verdict = benchmark(lambda: tree_contained_in(left, left))
    assert verdict
