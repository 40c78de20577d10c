"""Linear / chain-form pathway tests (Theorem 5.12 EXPSPACE case)."""

import pytest

from repro.core.word_path import (
    datalog_contained_in_ucq_linear,
    is_chain_program,
    to_chain_form,
)
from repro.cq.query import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.datalog.engine import query
from repro.datalog.errors import NotLinearError
from repro.datalog.parser import parse_atom, parse_program
from repro.datalog.unfold import expansion_union


def cq(head: str, *body: str) -> ConjunctiveQuery:
    return ConjunctiveQuery(parse_atom(head), tuple(parse_atom(b) for b in body))


class TestChainForm:
    def test_tc_is_chain(self, tc_program):
        assert is_chain_program(tc_program)

    def test_nonlinear_is_not_chain(self):
        program = parse_program(
            "p(X, Y) :- p(X, Z), p(Z, Y).\np(X, Y) :- e(X, Y)."
        )
        assert not is_chain_program(program)

    def test_linear_with_auxiliary_idb_not_chain(self):
        program = parse_program(
            """
            p(X, Y) :- aux(X, Z), p(Z, Y).
            p(X, Y) :- e0(X, Y).
            aux(X, Y) :- f(X, Y).
            aux(X, Y) :- g(X, Y).
            """
        )
        assert not is_chain_program(program)
        chained = to_chain_form(program, "p")
        assert is_chain_program(chained)
        # Two aux expansions split the recursive rule in two.
        recursive_rules = [r for r in chained.rules if r.head.predicate == "p"
                           and any(a.predicate == "p" for a in r.body)]
        assert len(recursive_rules) == 2

    def test_chain_form_preserves_semantics(self):
        program = parse_program(
            """
            p(X, Y) :- aux(X, Z), p(Z, Y).
            p(X, Y) :- e0(X, Y).
            aux(X, Y) :- f(X, Y).
            aux(X, Y) :- g(X, Y).
            """
        )
        chained = to_chain_form(program, "p")
        from repro.datalog.database import Database

        db = Database.from_facts(
            [("f", ("a", "b")), ("g", ("b", "c")), ("e0", ("c", "d"))]
        )
        assert query(program, db, "p") == query(chained, db, "p")

    def test_chain_form_fresh_names_avoid_the_rule_variables(self):
        # The inlined q-expansion's fresh variable must not capture the
        # rule's own C1.
        source = ("p(X, Y) :- q(X, {v}), p({v}, Y). p(X, Y) :- e(X, Y). "
                  "q(X, Y) :- e(X, Z), e(Z, Y).")
        for name in ("C1", "W"):
            chained = to_chain_form(parse_program(source.format(v=name)), "p")
            assert str(chained.rules[0]) == \
                f"p(X, Y) :- e(X, C0), e(C0, {name}), p({name}, Y)."

    def test_chain_form_rejects_nonlinear(self):
        program = parse_program(
            "p(X, Y) :- p(X, Z), p(Z, Y).\np(X, Y) :- e(X, Y)."
        )
        with pytest.raises(NotLinearError):
            to_chain_form(program, "p")

    def test_word_pathway_rejects_nonchain(self):
        program = parse_program(
            "p(X, Y) :- p(X, Z), p(Z, Y).\np(X, Y) :- e(X, Y)."
        )
        with pytest.raises(NotLinearError):
            datalog_contained_in_ucq_linear(
                program, "p", UnionOfConjunctiveQueries([], arity=2)
            )


class TestWordContainment:
    def test_matches_tree_on_truncations(self, tc_program):
        from repro.core.tree_containment import datalog_contained_in_ucq

        for height in (1, 2, 3):
            union = expansion_union(tc_program, "p", height)
            word = datalog_contained_in_ucq_linear(tc_program, "p", union)
            tree = datalog_contained_in_ucq(tc_program, "p", union)
            assert word.contained == tree.contained == False  # noqa: E712

    def test_word_pathway_positive(self, buys1):
        union = UnionOfConjunctiveQueries(
            [cq("buys(X0, X1)", "likes(Z, X1)")]
        )
        assert datalog_contained_in_ucq_linear(buys1, "buys", union).contained

    def test_word_witness_is_valid_proof_tree(self, tc_program):
        union = expansion_union(tc_program, "p", 2)
        result = datalog_contained_in_ucq_linear(tc_program, "p", union)
        assert not result.contained
        tree = result.witness
        tree.validate(tc_program)
        from repro.trees.proof import is_proof_tree

        assert is_proof_tree(tree, tc_program)
        # And it is genuinely not covered: no strong mapping from any
        # disjunct.
        from repro.trees.strong import ucq_covers_proof_tree

        assert not ucq_covers_proof_tree(union, tree, tc_program)

    def test_antichain_ablation(self, tc_program):
        union = expansion_union(tc_program, "p", 2)
        a = datalog_contained_in_ucq_linear(tc_program, "p", union, use_antichain=True)
        b = datalog_contained_in_ucq_linear(tc_program, "p", union, use_antichain=False)
        assert a.contained == b.contained


def test_word_pathway_reports_ptree_states():
    """The word pathway reports the distinct goal atoms its antichain
    reached as ``ptree_states`` (nonzero), and its witness refutes the
    containment on its counterexample database."""
    from repro.core.certificate import witness_refutes
    from repro.workloads.scenarios import get_scenario

    payload = get_scenario("contain_tc_trunc2_word").build()
    args = (payload["program"], payload["goal"], payload["union"])
    result = datalog_contained_in_ucq_linear(*args)
    assert result.contained is False
    assert result.stats["ptree_states"] > 0
    assert witness_refutes(*args, result)


class TestSymmetry:
    """The word search keeps one goal atom per orbit of ``var(Pi)``
    renamings; these tests check the renaming itself, outside the
    search."""

    PROGRAM = """
        p(X, Y) :- e(X, Z), p(Z, Y).
        p(X, Y) :- f(X, a), e0(X, Y).
    """

    def test_canonical_renaming_is_a_permutation_fixing_constants(self):
        from math import perm

        from repro.core.word_path import Symmetry
        from repro.trees.proof import root_atoms, var_space

        program = parse_program(self.PROGRAM)
        symmetry = Symmetry(program)
        space = var_space(program)
        for atom in root_atoms(program, "p"):
            canonical, sigma = symmetry.canonical(atom)
            used = list(dict.fromkeys(t for t in canonical.args if t in space))
            assert used == list(space[:len(used)])
            if sigma is None:
                assert canonical == atom
                continue
            assert sorted(sigma, key=repr) == sorted(space, key=repr)
            assert sorted(sigma.values(), key=repr) == sorted(space, key=repr)
            assert atom.substitute(sigma) == canonical
            assert symmetry.canonical(canonical) == (canonical, None)
            orbit = list(symmetry.orbit(atom))
            assert orbit[0] == canonical
            assert len(set(orbit)) == perm(len(space), len(used))
            assert {symmetry.canonical(other)[0] for other in orbit} == {canonical}

    def test_query_automaton_commutes_with_renaming(self):
        from repro.core.cq_automaton import CQAutomaton
        from repro.core.instances import InstanceEnumerator
        from repro.trees.proof import root_atoms, var_space

        program = parse_program(self.PROGRAM)
        enumerator = InstanceEnumerator(program)
        space = var_space(program)
        for theta in expansion_union(program, "p", 2):
            automaton = CQAutomaton(program, "p", theta)
            # A swap, a rotation and the reversal of var(Pi).
            for images in (space[1::-1] + space[2:], space[1:] + space[:1],
                           space[::-1]):
                sigma = dict(zip(space, images))
                for root in root_atoms(program, "p"):
                    state = automaton.initial_state(root)
                    moved = automaton.initial_state(root.substitute(sigma))
                    if state is None:
                        assert moved is None
                        continue
                    assert automaton.renamed(state, sigma) is moved
                    for label in enumerator.labels_for(root):
                        rule = label.rule.substitute(sigma)
                        image = next(other for other in
                                     enumerator.labels_for(moved.atom)
                                     if other.rule == rule)
                        expected = {tuple(automaton.renamed(child, sigma)
                                          for child in children)
                                    for children in
                                    automaton.successors_cached(state, label)}
                        assert set(automaton.successors_cached(
                            moved, image)) == expected

    @pytest.mark.parametrize("height", [1, 2, 3])
    def test_witness_is_rebuilt_in_the_root_frame(self, height):
        """Every step below the root moves its child onto a canonical
        atom, so the witness is only a proof tree when the renamings
        are composed back."""
        from repro.core.certificate import witness_refutes
        from repro.trees.proof import is_proof_tree
        from repro.trees.strong import ucq_covers_proof_tree

        program = parse_program(self.PROGRAM)
        union = expansion_union(program, "p", height)
        result = datalog_contained_in_ucq_linear(program, "p", union)
        assert not result.contained
        tree = result.witness
        assert tree.height() == height + 1
        tree.validate(program)
        assert is_proof_tree(tree, program)
        assert not ucq_covers_proof_tree(union, tree, program)
        assert witness_refutes(program, "p", union, result)
