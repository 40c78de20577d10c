"""Theorem 6.5 equivalence and the boundedness semi-decision tests."""

import pytest

from repro.core.boundedness import bounded_at_depth, decide_boundedness
from repro.core.equivalence import equivalent_to_ucq, is_equivalent_to_nonrecursive
from repro.core.tree_containment import datalog_contained_in_ucq
from repro.core.word_path import datalog_contained_in_ucq_linear
from repro.cq.canonical import evaluate_ucq
from repro.cq.query import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.datalog.engine import evaluate
from repro.datalog.errors import NotNonrecursiveError, ValidationError
from repro.datalog.parser import parse_atom, parse_program
from repro.datalog.unfold import unfold_nonrecursive
from repro.programs import (
    buys_bounded,
    buys_bounded_rewriting,
    buys_recursive,
    buys_recursive_rewriting,
    transitive_closure,
    widget_certified,
    widget_certified_rewriting,
)


class TestExample11:
    """The paper's flagship example, both halves."""

    def test_pi1_equivalent(self):
        result = is_equivalent_to_nonrecursive(
            buys_bounded(), buys_bounded_rewriting(), goal="buys"
        )
        assert result.equivalent
        assert result.forward_holds and result.backward_holds

    def test_pi2_not_equivalent(self):
        result = is_equivalent_to_nonrecursive(
            buys_recursive(), buys_recursive_rewriting(), goal="buys"
        )
        assert not result.equivalent
        assert result.backward_holds  # the rewriting IS contained in Pi2
        assert not result.forward_holds
        assert result.forward_witness is not None

    def test_pi2_witness_is_semantic(self):
        result = is_equivalent_to_nonrecursive(
            buys_recursive(), buys_recursive_rewriting(), goal="buys"
        )
        from repro.core.containment import counterexample_database
        from repro.core.tree_containment import ContainmentResult

        containment = ContainmentResult(False, result.forward_witness)
        db, row = counterexample_database(containment, buys_recursive())
        union = unfold_nonrecursive(buys_recursive_rewriting(), "buys")
        assert row in evaluate(buys_recursive(), db).facts("buys")
        assert row not in evaluate_ucq(union, db)

    def test_word_pathway_matches(self):
        cases = ((buys_bounded(), buys_bounded_rewriting(), True),
                 (buys_recursive(), buys_recursive_rewriting(), False))
        for program, rewriting, forward in cases:
            union = unfold_nonrecursive(rewriting, "buys")
            for pathway in (datalog_contained_in_ucq_linear,
                            datalog_contained_in_ucq):
                result = pathway(program, "buys", union)
                assert result.contained == forward, pathway.__name__


class TestEquivalenceAPI:
    def test_rejects_recursive_second_program(self):
        with pytest.raises(NotNonrecursiveError):
            is_equivalent_to_nonrecursive(
                transitive_closure(), transitive_closure(), goal="p"
            )

    def test_rejects_arity_mismatch(self):
        nr = parse_program("buys(X) :- likes(X, X).")
        with pytest.raises(ValidationError):
            is_equivalent_to_nonrecursive(buys_bounded(), nr, goal="buys")

    def test_different_goal_names(self):
        nr = parse_program(
            """
            purchases(X, Y) :- likes(X, Y).
            purchases(X, Y) :- trendy(X), likes(Z, Y).
            """
        )
        result = is_equivalent_to_nonrecursive(
            buys_bounded(), nr, goal="buys", nonrecursive_goal="purchases"
        )
        assert result.equivalent

    def test_equivalent_to_ucq_direct(self):
        union = UnionOfConjunctiveQueries(
            [
                ConjunctiveQuery(parse_atom("q(X0, X1)"), (parse_atom("likes(X0, X1)"),)),
                ConjunctiveQuery(
                    parse_atom("q(X0, X1)"),
                    (parse_atom("trendy(X0)"), parse_atom("likes(Z, X1)")),
                ),
            ]
        )
        assert equivalent_to_ucq(buys_bounded(), "buys", union).equivalent

    def test_stats_populated(self):
        result = is_equivalent_to_nonrecursive(
            buys_bounded(), buys_bounded_rewriting(), goal="buys"
        )
        assert result.stats["union_disjuncts"] == 2

    def test_domain_example(self):
        assert is_equivalent_to_nonrecursive(
            widget_certified(), widget_certified_rewriting(), goal="ok"
        ).equivalent


class TestBoundedness:
    def test_pi1_bounded_at_depth_2(self):
        program = buys_bounded()
        assert not bounded_at_depth(program, "buys", 1)
        assert bounded_at_depth(program, "buys", 2)
        result = decide_boundedness(program, "buys", max_depth=4)
        assert result.bounded and result.depth == 2

    def test_witness_union_is_equivalent(self):
        program = buys_bounded()
        result = decide_boundedness(program, "buys", max_depth=4)
        assert equivalent_to_ucq(program, "buys", result.witness_union).equivalent

    def test_tc_not_certified(self):
        result = decide_boundedness(transitive_closure(), "p", max_depth=3)
        assert result.bounded is None

    def test_pi2_not_certified(self):
        result = decide_boundedness(buys_recursive(), "buys", max_depth=3)
        assert result.bounded is None

    def test_nonrecursive_program_certified(self):
        program = parse_program(
            """
            q(X) :- mid(X).
            mid(X) :- base(X).
            """
        )
        result = decide_boundedness(program, "q", max_depth=4)
        assert result.bounded

    def test_trivially_empty_goal(self):
        program = parse_program("q(X) :- q(X).")
        result = decide_boundedness(program, "q", max_depth=3)
        # No expansion exists; the relation is empty, hence bounded...
        # but with no witness union our procedure reports unknown
        # rather than fabricate an empty certificate at depth 0.
        assert result.bounded is None or result.bounded
