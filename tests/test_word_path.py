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
