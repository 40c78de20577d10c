"""Tree-automata substrate tests (Propositions 4.4-4.6)."""

import random

import pytest

from repro.automata.tree import (
    BottomUpDeterministic,
    LabeledTree,
    TreeAutomaton,
    complement,
    contained_in,
    contained_in_union,
    equivalent,
    find_counterexample_tree,
    path_tree,
    search_tree_inclusion,
)


def any_tree() -> TreeAutomaton:
    """All trees over f(.,.) / g(.) / a."""
    return TreeAutomaton.build(
        ["f", "g", "a"], ["s"], ["s"],
        [("s", "f", ("s", "s")), ("s", "g", ("s",)), ("s", "a", ())],
    )


def left_comb() -> TreeAutomaton:
    """Trees where every f-node's right child is a leaf."""
    return TreeAutomaton.build(
        ["f", "a"], ["s", "leaf"], ["s"],
        [("s", "f", ("s", "leaf")), ("s", "a", ()), ("leaf", "a", ())],
    )


def random_nta(rng: random.Random) -> TreeAutomaton:
    states = [f"s{i}" for i in range(3)]
    transitions = []
    for state in states:
        if rng.random() < 0.8:
            transitions.append((state, "a", ()))
        for _ in range(rng.randint(0, 3)):
            transitions.append(
                (state, "f", (rng.choice(states), rng.choice(states)))
            )
        if rng.random() < 0.5:
            transitions.append((state, "g", (rng.choice(states),)))
    return TreeAutomaton.build(
        ["f", "g", "a"], states, [rng.choice(states)], transitions
    )


LEAF = LabeledTree("a")
F2 = LabeledTree("f", (LEAF, LEAF))
DEEP = LabeledTree("f", (F2, LEAF))
RIGHT_DEEP = LabeledTree("f", (LEAF, F2))


class TestLabeledTree:
    def test_size_and_depth(self):
        assert LEAF.size() == 1 and LEAF.depth() == 1
        assert DEEP.size() == 5 and DEEP.depth() == 3

    def test_path_tree(self):
        tree = path_tree(["r", "m", "l"])
        assert tree.label == "r"
        assert tree.children[0].children[0].label == "l"
        assert tree.depth() == 3

    def test_nodes_preorder(self):
        labels = [n.label for n in DEEP.nodes()]
        assert labels == ["f", "f", "a", "a", "a"]


class TestAcceptance:
    def test_any_tree_accepts(self):
        automaton = any_tree()
        for tree in (LEAF, F2, DEEP, RIGHT_DEEP):
            assert automaton.accepts(tree)

    def test_left_comb(self):
        automaton = left_comb()
        assert automaton.accepts(DEEP)
        assert not automaton.accepts(RIGHT_DEEP)

    def test_paper_style_accepting_states_normalized(self):
        # Using the paper's convention: leaf transition to an accept
        # state, with F = {accept}.
        automaton = TreeAutomaton.build(
            ["f", "a"], ["s", "accept"], ["s"],
            [("s", "f", ("s", "s")), ("s", "a", ("accept",))],
            accepting=["accept"],
        )
        assert automaton.accepts(LEAF)
        assert automaton.accepts(F2)


class TestEmptiness:
    def test_nonempty_with_witness(self):
        automaton = left_comb()
        assert not automaton.is_empty()
        witness = automaton.find_tree()
        assert automaton.accepts(witness)

    def test_empty_automaton(self):
        automaton = TreeAutomaton.build(
            ["f"], ["s"], ["s"], [("s", "f", ("s", "s"))]
        )
        # No leaf transition: no finite tree accepted.
        assert automaton.is_empty()
        assert automaton.find_tree() is None

    def test_productive_states(self):
        automaton = TreeAutomaton.build(
            ["f", "a"], ["s", "dead"], ["s"],
            [("s", "a", ()), ("dead", "f", ("dead", "dead"))],
        )
        assert automaton.productive_states() == {"s"}


class TestBooleanOperations:
    def test_union(self):
        u = left_comb().union(any_tree())
        assert u.accepts(RIGHT_DEEP)
        assert equivalent(u, any_tree().union(left_comb()))

    def test_intersection(self):
        inter = any_tree().intersection(left_comb())
        assert equivalent(inter, left_comb())

    def test_complement_partitions_sampled(self):
        comp = complement(left_comb())
        for tree in any_tree().enumerate_trees(3):
            assert left_comb().accepts(tree) != comp.accepts(tree)

    def test_complement_reachable_subsets(self):
        det = BottomUpDeterministic(left_comb())
        subsets = det.reachable_subsets(max_subsets=64)
        assert frozenset() in subsets or len(subsets) >= 1

    def test_enumerate_trees(self):
        trees = left_comb().enumerate_trees(3)
        assert all(left_comb().accepts(t) for t in trees)
        assert any(t.depth() == 3 for t in trees)


class TestContainment:
    def test_known(self):
        assert contained_in(left_comb(), any_tree())
        assert not contained_in(any_tree(), left_comb())

    def test_counterexample_genuine(self):
        witness = find_counterexample_tree(any_tree(), left_comb())
        assert witness is not None
        assert any_tree().accepts(witness)
        assert not left_comb().accepts(witness)

    def test_union_containment(self):
        assert contained_in_union(left_comb(), [left_comb(), any_tree()])
        assert contained_in_union(any_tree(), [any_tree()])

    def test_antichain_matches_exact_mode(self):
        rng = random.Random(5)
        for _ in range(25):
            left, right = random_nta(rng), random_nta(rng)
            pruned = search_tree_inclusion(left, right, use_antichain=True)
            exact = search_tree_inclusion(left, right, use_antichain=False)
            assert (pruned[0] is None) == (exact[0] is None)

    def test_agrees_with_tree_sampling(self):
        rng = random.Random(9)
        for _ in range(25):
            left, right = random_nta(rng), random_nta(rng)
            verdict = contained_in(left, right)
            for tree in left.enumerate_trees(3, limit=60):
                if not right.accepts(tree):
                    assert not verdict
                    break
            witness = find_counterexample_tree(left, right)
            if witness is not None:
                assert left.accepts(witness) and not right.accepts(witness)
            else:
                assert verdict

    def test_reflexive(self):
        rng = random.Random(31)
        for _ in range(10):
            automaton = random_nta(rng)
            assert contained_in(automaton, automaton)
