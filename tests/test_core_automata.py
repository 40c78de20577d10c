"""Tests for the Proposition 5.9 / 5.10 automata."""

import pytest

from repro.cq.query import ConjunctiveQuery
from repro.core.cq_automaton import CQAutomaton
from repro.core.instances import InstanceEnumerator
from repro.core.ptree_automaton import (
    PTreeAutomaton,
    labeled_tree_to_proof_tree,
    proof_tree_to_labeled_tree,
)
from repro.datalog.errors import ValidationError
from repro.datalog.parser import parse_atom, parse_program
from repro.trees.proof import proof_trees, root_atoms, var_space
from repro.trees.strong import has_strong_containment_mapping


def cq(head: str, *body: str) -> ConjunctiveQuery:
    return ConjunctiveQuery(parse_atom(head), tuple(parse_atom(b) for b in body))


class TestInstanceEnumerator:
    def test_labels_for_tc(self, tc_program):
        enum = InstanceEnumerator(tc_program)
        space = var_space(tc_program)
        atom = parse_atom("p(_pv0, _pv1)")
        labels = enum.labels_for(atom)
        # Recursive rule: 6 choices of Z; base rule: 1 instance.
        assert len(labels) == 7
        assert all(label.atom == atom for label in labels)
        leaf_labels = [l for l in labels if l.is_leaf()]
        assert len(leaf_labels) == 1
        assert leaf_labels[0].edb_atoms[0].predicate == "e0"

    def test_cache_hits(self, tc_program):
        enum = InstanceEnumerator(tc_program)
        atom = parse_atom("p(_pv0, _pv1)")
        assert enum.labels_for(atom) is enum.labels_for(atom)

    def test_repeated_head_vars_constrain_instances(self):
        program = parse_program(
            """
            p(X, X) :- e(X, X).
            p(X, Y) :- e(X, Z), p(Z, Y).
            """
        )
        enum = InstanceEnumerator(program)
        distinct = parse_atom("p(_pv0, _pv1)")
        same = parse_atom("p(_pv0, _pv0)")
        # The diagonal rule can only label nodes with equal arguments.
        assert all(
            len(l.idb_atoms) == 1 for l in enum.labels_for(distinct)
        )
        assert any(len(l.idb_atoms) == 0 for l in enum.labels_for(same))


class TestPTreeAutomaton:
    def test_accepts_exactly_proof_trees(self, tc_program):
        automaton = PTreeAutomaton(tc_program, "p")
        for tree in proof_trees(tc_program, "p", 2):
            assert automaton.accepts_proof_tree(tree)

    def test_rejects_non_proof_tree(self, tc_program):
        from repro.trees.expansion import unfolding_trees

        automaton = PTreeAutomaton(tc_program, "p")
        deep = next(t for t in unfolding_trees(tc_program, "p", 2) if t.height() == 2)
        # Unfolding trees use W/X variables outside var(Pi).
        assert not automaton.accepts_proof_tree(deep)

    def test_materialized_language_matches_enumeration(self, tc_program):
        automaton = PTreeAutomaton(tc_program, "p")
        explicit = automaton.materialize()
        trees = list(proof_trees(tc_program, "p", 2))
        assert all(
            explicit.accepts(proof_tree_to_labeled_tree(t, tc_program)) for t in trees
        )
        # And the automaton accepts nothing of depth <= 2 beyond them.
        accepted = explicit.enumerate_trees(2)
        assert len(accepted) == len(trees)

    def test_roundtrip_labeled_tree(self, tc_program):
        tree = next(iter(proof_trees(tc_program, "p", 2)))
        labeled = proof_tree_to_labeled_tree(tree, tc_program)
        assert labeled_tree_to_proof_tree(labeled).to_query(
            tc_program
        ).head == tree.to_query(tc_program).head

    def test_size_estimate(self, tc_program):
        automaton = PTreeAutomaton(tc_program, "p")
        estimate = automaton.size_estimate()
        assert estimate["states"] == 36
        assert estimate["symbols"] == 252  # 216 recursive + 36 base instances


#: Oracle inputs: (program, goal, queries).  ``tc`` has one IDB child
#: per label; the others reach the multi-child placements, condition 3
#: (a variable split across children that share no term), condition 4
#: (a mapped variable whose name recurs, disconnected, in a leaf),
#: theta constants, repeated theta variables and repeated rule-head
#: variables.
ORACLE_CASES = {
    "tc": (
        """
        p(X, Y) :- e(X, Z), p(Z, Y).
        p(X, Y) :- e0(X, Y).
        """,
        "p",
        [
            cq("p(X0, X1)", "e0(X0, X1)"),
            cq("p(X0, X1)", "e(X0, Z)", "e0(Z, X1)"),
            cq("p(X0, X1)", "e(X0, Z)"),
            cq("p(X0, X0)", "e0(X0, X0)"),
            cq("p(X0, X1)", "e0(Z, X1)"),
        ],
    ),
    "nonlinear_split": (
        """
        p(X, Y) :- p(X, Z), p(Z, Y).
        p(X, Y) :- e(X, Y).
        """,
        "p",
        [
            cq("p(X0, X1)", "e(X0, Z)", "e(Z, X1)"),
            cq("p(X0, X1)", "e(X0, Z)", "e(Z, W)"),
            cq("p(X0, X1)", "e(Z, W)", "e(W, X1)"),
        ],
    ),
    "nonlinear_disjoint_children": (
        """
        p(X) :- p(Y), p(Z), a(X).
        p(X) :- b(X).
        p(X) :- c(X).
        """,
        "p",
        [cq("p(X0)", "a(X0)", "b(Z)", "c(Z)")],
    ),
    "reused_variable_name": (
        """
        p(X, Y) :- e(X, Z), p(Z, Y).
        p(X, Y) :- e0(X, Y, W).
        """,
        "p",
        [cq("p(X0, X1)", "e0(Z, X1, X0)")],
    ),
    "theta_constant": (
        """
        p(X, Y) :- e(X, a), p(a, Y).
        p(X, Y) :- p(X, Z), p(Z, Y).
        p(X, Y) :- e(X, Y).
        """,
        "p",
        [
            cq("p(X0, X1)", "e(X0, a)"),
            cq("p(X0, X1)", "e(a, X1)"),
        ],
    ),
    "theta_repeated_variable": (
        """
        p(X, Y) :- p(X, Z), p(Z, Y).
        p(X, Y) :- e(X, Y).
        """,
        "p",
        [
            cq("p(X0, X1)", "e(Z, Z)"),
            cq("p(X0, X1)", "e(X0, X0)", "e(X0, X1)"),
        ],
    ),
    "repeated_head_variables": (
        """
        p(X, X) :- e(X, Y).
        p(X, Y) :- p(X, Z), p(Z, Y).
        p(X, Y) :- e(X, Y).
        """,
        "p",
        [
            cq("p(X0, X1)", "e(X0, Z)", "e(Z, X1)"),
            cq("p(X0, X0)", "e(X0, Z)"),
        ],
    ),
}


class TestCQAutomaton:
    def test_rejects_idb_atoms_in_query(self, tc_program):
        with pytest.raises(ValidationError):
            CQAutomaton(tc_program, "p", cq("p(X, Y)", "p(X, Y)"))

    def test_rejects_arity_mismatch(self, tc_program):
        with pytest.raises(ValidationError):
            CQAutomaton(tc_program, "p", cq("p(X)", "e0(X, X)"))

    def test_initial_state_repeated_head(self, tc_program):
        automaton = CQAutomaton(tc_program, "p", cq("p(X, X)", "e0(X, X)"))
        space = var_space(tc_program)
        distinct = parse_atom("p(_pv0, _pv1)")
        same = parse_atom("p(_pv0, _pv0)")
        assert automaton.initial_state(distinct) is None
        assert automaton.initial_state(same) is not None

    def test_agrees_with_strong_mapping_oracle(self):
        """Proposition 5.10: T(A^theta) = proof trees with a strong
        containment mapping from theta (differential, heights <= 2)."""
        for case, (source, goal, queries) in ORACLE_CASES.items():
            program = parse_program(source)
            trees = list(proof_trees(program, goal, 2))
            verdicts = set()
            for theta in queries:
                automaton = CQAutomaton(program, goal, theta)
                for tree in trees:
                    expected = has_strong_containment_mapping(theta, tree, program)
                    got = _automaton_accepts(automaton, program, tree)
                    assert got == expected, (case, theta, str(tree))
                    verdicts.add(got)
            assert verdicts == {True, False}, case  # not vacuous


def _automaton_accepts(automaton, program, tree) -> bool:
    """Run A^theta on a proof tree directly (recursive simulation)."""
    from repro.core.instances import InstanceEnumerator, Label

    idb = program.idb_predicates

    def label_of(node):
        return Label(
            atom=node.atom,
            rule=node.rule,
            idb_atoms=node.rule.idb_body_atoms(idb),
            edb_atoms=node.rule.edb_body_atoms(idb),
        )

    def run(state, node) -> bool:
        label = label_of(node)
        for children_states in automaton.successors(state, label):
            if len(children_states) != len(node.children):
                continue
            if all(run(s, c) for s, c in zip(children_states, node.children)):
                return True
        return False

    initial = automaton.initial_state(tree.atom)
    if initial is None:
        return False
    return run(initial, tree)
