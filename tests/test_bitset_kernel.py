"""Coverage for the bitset automaton kernel against independent oracles.

Every search runs on the bitset kernel (interned states, bitmask
subsets, memoized transitions).  Each one is checked against something
that does not share its bookkeeping: tree inclusion against membership
of its counterexamples and the certificate checker
(:mod:`repro.core.certificate`) on its invariants, the Datalog
containment pathways against the certificate checker on positive
verdicts and against membership / counterexample databases on negative
ones, and the subset construction against enumerated trees.
"""

import random

import pytest

from repro.automata.kernel import BitAntichain, Interner, iter_bits
from repro.automata.tree import (
    BottomUpDeterministic,
    LabeledTree,
    TreeAutomaton,
    path_tree,
    search_tree_inclusion,
)
from repro.core.boundedness import decide_boundedness
from repro.core.certificate import check_certificate, check_invariant
from repro.core.containment import counterexample_database
from repro.core.ptree_automaton import PTreeAutomaton
from repro.core.tree_containment import datalog_contained_in_ucq
from repro.core.word_path import datalog_contained_in_ucq_linear
from repro.cq.canonical import evaluate_ucq
from repro.cq.query import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.datalog.engine import evaluate
from repro.datalog.parser import parse_atom, parse_program
from repro.datalog.unfold import expansion_union, unfold_nonrecursive
from repro.programs import (
    buys_bounded,
    buys_bounded_rewriting,
    chain_program,
    nonlinear_reach,
    transitive_closure,
    widget_certified,
)

def cq(head: str, *body: str) -> ConjunctiveQuery:
    return ConjunctiveQuery(parse_atom(head), tuple(parse_atom(b) for b in body))


# ----------------------------------------------------------------------
# Kernel primitives.
# ----------------------------------------------------------------------

class TestKernelPrimitives:
    def test_interner_ids_are_dense_and_stable(self):
        interner = Interner(["a", "b"])
        assert interner.id_of("a") == 0
        assert interner.intern("c") == 2
        assert interner.intern("a") == 0
        assert len(interner) == 3
        assert "b" in interner and "z" not in interner

    def test_mask_roundtrip(self):
        interner = Interner()
        mask = interner.mask_of(["x", "y", "z"])
        assert interner.subset_of(mask) == {"x", "y", "z"}
        assert list(iter_bits(0b1011)) == [0, 1, 3]

    def test_bit_antichain_keeps_minimal_masks(self):
        chain = BitAntichain()
        assert chain.insert("k", 0b0111, "w1")
        # Superset of a kept mask: dominated, rejected.
        assert not chain.insert("k", 0b1111, "w2")
        assert chain.dominated("k", 0b0111)
        # Subset: inserted, evicts the dominated entry.
        assert chain.insert("k", 0b0011, "w3")
        assert chain.items("k") == [(0b0011, "w3")]
        # Incomparable mask coexists.
        assert chain.insert("k", 0b1100, "w4")
        assert chain.total() == 2
        assert chain.keys() == ["k"]


# ----------------------------------------------------------------------
# Generic tree automata against the checker and enumerated trees.
# ----------------------------------------------------------------------

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


class TestTreeAutomatonDifferential:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_containment_agrees(self, seed):
        # A counterexample is checked by membership, a positive verdict
        # by the certificate checker on the returned invariant.
        rng = random.Random(seed)
        left, right = random_nta(rng), random_nta(rng)
        witness, invariant = search_tree_inclusion(left, right)
        if witness is not None:
            assert invariant is None
            assert left.accepts(witness)
            assert not right.accepts(witness)
        else:
            check_invariant(invariant)

    @pytest.mark.parametrize("seed", range(10))
    def test_exact_mode_agrees_with_antichain(self, seed):
        rng = random.Random(seed)
        left, right = random_nta(rng), random_nta(rng)
        pruned = search_tree_inclusion(left, right, use_antichain=True)
        exact = search_tree_inclusion(left, right, use_antichain=False)
        assert (pruned[0] is None) == (exact[0] is None)
        for _witness, invariant in (pruned, exact):
            if invariant is not None:
                check_invariant(invariant)

    def test_productive_states_cached_and_correct(self):
        rng = random.Random(11)
        automaton = random_nta(rng)
        first = automaton.productive_states()
        assert automaton.productive_states() is first  # cached on the instance
        # The cache does not change the emptiness verdict.
        assert automaton.is_empty() == (not (first & automaton.initial))

    @pytest.mark.parametrize("seed", range(8))
    def test_productive_states_match_witness_trees(self, seed):
        # A state is productive iff some tree is accepted from it: a
        # productive state yields a find_tree witness that accepts(),
        # and an unproductive one accepts no tree of depth <= |states|
        # (a productive state always has a witness that shallow).
        automaton = random_nta(random.Random(seed))
        productive = automaton.productive_states()
        depth = len(automaton.states) + 1
        for state in automaton.states:
            rooted = TreeAutomaton(automaton.alphabet, automaton.states,
                                   frozenset([state]), automaton.transitions)
            if state in productive:
                tree = rooted.find_tree()
                assert tree is not None and rooted.accepts(tree)
            else:
                assert not rooted.enumerate_trees(depth, limit=1)

    @pytest.mark.parametrize("seed", range(8))
    def test_reachable_subsets_match_enumerated_trees(self, seed):
        # Close a set of representative trees under every (symbol,
        # arity) the automaton reads, keyed by state_of() -- the
        # bottom-up acceptance of concrete trees.
        det = BottomUpDeterministic(random_nta(random.Random(seed)))
        shapes = sorted({(symbol, len(tuple_))
                         for (_, symbol), tuples in det.source.transitions.items()
                         for tuple_ in tuples})
        representatives = {}
        changed = True
        while changed:
            changed = False
            pool = list(representatives.values())
            for symbol, arity in shapes:
                combos = [()]
                for _ in range(arity):
                    combos = [c + (t,) for c in combos for t in pool]
                for combo in combos:
                    tree = LabeledTree(symbol, combo)
                    subset = det.state_of(tree)
                    if subset not in representatives:
                        representatives[subset] = tree
                        changed = True
        assert det.reachable_subsets(max_subsets=512) == set(representatives)

    def test_reachable_subsets_matches_seed_semantics(self):
        # left_comb from the tree-automata tests: the subset automaton
        # has a known, small reachable state space.
        automaton = TreeAutomaton.build(
            ["f", "a"], ["s", "leaf"], ["s"],
            [("s", "f", ("s", "leaf")), ("s", "a", ()), ("leaf", "a", ())],
        )
        from repro.automata.tree import complement

        det = complement(automaton)
        subsets = det.reachable_subsets(max_subsets=64)
        assert frozenset(["s", "leaf"]) in subsets
        assert all(isinstance(subset, frozenset) for subset in subsets)


class TestDeepTrees:
    def test_labeled_tree_methods_are_iterative(self):
        deep = path_tree(["g"] * 4999 + ["a"])
        assert deep.size() == 5000
        assert deep.depth() == 5000
        assert sum(1 for _ in deep.nodes()) == 5000

    def test_nodes_stays_preorder(self):
        tree = LabeledTree("f", (LabeledTree("a"), LabeledTree("g", (LabeledTree("b"),))))
        assert [node.label for node in tree.nodes()] == ["f", "a", "g", "b"]

    def test_acceptance_on_deep_tree(self):
        automaton = TreeAutomaton.build(
            ["g", "a"], ["s"], ["s"],
            [("s", "g", ("s",)), ("s", "a", ())],
        )
        deep = path_tree(["g"] * 4999 + ["a"])
        assert automaton.accepts(deep)

    def test_acceptance_on_shared_subtree_dag(self):
        # The counterexample searches return witnesses whose subtrees
        # are shared; acceptance must evaluate each node once, not once
        # per root-to-node path (2^200 here).
        automaton = TreeAutomaton.build(
            ["f", "a"], ["s"], ["s"],
            [("s", "f", ("s", "s")), ("s", "a", ())],
        )
        node = LabeledTree("a")
        for _ in range(200):
            node = LabeledTree("f", (node, node))
        assert automaton.accepts(node)


# ----------------------------------------------------------------------
# The decision stack: program containment / boundedness, every
# positive verdict through the certificate checker and every negative
# one through its counterexample database.
# ----------------------------------------------------------------------

def covering_union() -> UnionOfConjunctiveQueries:
    return UnionOfConjunctiveQueries(
        [
            cq("p(X0, X1)", "e0(X0, X1)"),
            cq("p(X0, X1)", "g0(X0, Z)"),
        ]
    )


TREE_CASES = [
    ("tc_depth1", transitive_closure, "p",
     lambda program: expansion_union(program, "p", 1)),
    ("tc_depth2", transitive_closure, "p",
     lambda program: expansion_union(program, "p", 2)),
    ("chain1_covered", lambda: chain_program(1), "p",
     lambda program: covering_union()),
    ("buys_depth2", buys_bounded, "buys",
     lambda program: expansion_union(program, "buys", 2)),
    ("widget_depth2", widget_certified, "ok",
     lambda program: expansion_union(program, "ok", 2)),
    ("nonlinear_depth2", lambda: nonlinear_reach(1), "p",
     lambda program: expansion_union(program, "p", 2)),
]


class TestContainmentDifferential:
    @pytest.mark.parametrize(
        "name,make_program,goal,make_union",
        TREE_CASES, ids=[case[0] for case in TREE_CASES],
    )
    def test_tree_pathway_agrees(self, name, make_program, goal, make_union):
        program = make_program()
        union = make_union(program)
        result = datalog_contained_in_ucq(program, goal, union)
        if result.contained:
            assert result.invariant.pathway == "tree"
            check_invariant(result.invariant)
        else:
            assert result.invariant is None
            self._check_refutation(result, program, goal, union)

    @staticmethod
    def _check_refutation(result, program, goal, union):
        assert PTreeAutomaton(program, goal).accepts_proof_tree(result.witness)
        database, row = counterexample_database(result, program)
        assert row in evaluate(program, database).facts(goal)
        assert row not in evaluate_ucq(union, database)

    @pytest.mark.parametrize("depth", [1, 2])
    def test_word_pathway_agrees(self, depth):
        program = transitive_closure()
        union = expansion_union(program, "p", depth)
        result = datalog_contained_in_ucq_linear(program, "p", union)
        assert not result.contained
        self._check_refutation(result, program, "p", union)

    def test_word_pathway_positive_case_agrees(self):
        program = buys_bounded()
        union = expansion_union(program, "buys", 2)
        word = datalog_contained_in_ucq_linear(program, "buys", union)
        tree = datalog_contained_in_ucq(program, "buys", union)
        assert word.contained and tree.contained
        assert word.invariant.pathway == "word"
        for result in (word, tree):
            check_invariant(result.invariant)

    def test_antichain_ablation_agrees(self):
        program = transitive_closure()
        union = expansion_union(program, "p", 2)
        for use_antichain in (True, False):
            result = datalog_contained_in_ucq(
                program, "p", union, use_antichain=use_antichain)
            assert not result.contained
            self._check_refutation(result, program, "p", union)
        program = buys_bounded()
        union = expansion_union(program, "buys", 2)
        for use_antichain in (True, False):
            result = datalog_contained_in_ucq(
                program, "buys", union, use_antichain=use_antichain)
            assert result.contained
            check_invariant(result.invariant)

    def test_nonrecursive_equivalence_agrees(self):
        from repro.core.equivalence import is_equivalent_to_nonrecursive

        program = buys_bounded()
        rewriting = buys_bounded_rewriting()
        result = is_equivalent_to_nonrecursive(program, rewriting, "buys")
        assert result.equivalent
        check_certificate(program, "buys",
                          unfold_nonrecursive(rewriting, "buys"), result)

    def test_boundedness_agrees(self):
        program = buys_bounded()
        result = decide_boundedness(program, "buys", max_depth=3)
        assert result.bounded and result.depth == 2
        check_certificate(program, "buys", result.witness_union, result)
