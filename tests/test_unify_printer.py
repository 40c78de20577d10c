"""Unification and printer tests."""

import pytest

from repro.datalog.parser import parse_atom, parse_program
from repro.datalog.printer import program_to_source
from repro.datalog.terms import Constant, Variable
from repro.datalog.unify import (
    apply_to_atom,
    resolve,
    unify_terms,
    unify_tuples,
)


class TestUnify:
    def test_variable_to_constant(self):
        subst = unify_terms(Variable("X"), Constant("a"), {})
        assert resolve(Variable("X"), subst) == Constant("a")

    def test_constant_clash(self):
        assert unify_terms(Constant("a"), Constant("b"), {}) is None

    def test_variable_chain_resolution(self):
        subst = unify_terms(Variable("X"), Variable("Y"), {})
        subst = unify_terms(Variable("Y"), Constant("c"), subst)
        assert resolve(Variable("X"), subst) == Constant("c")

    def test_tuples(self):
        left = parse_atom("p(X, Y, a)").args
        right = parse_atom("p(b, X, Z)").args
        subst = unify_tuples(left, right, {})
        assert resolve(Variable("X"), subst) == Constant("b")
        assert resolve(Variable("Y"), subst) == Constant("b")
        assert resolve(Variable("Z"), subst) == Constant("a")

    def test_tuples_length_mismatch(self):
        assert unify_tuples((Variable("X"),), (), {}) is None

    def test_repeated_variable_forces_equality(self):
        subst = unify_tuples(
            parse_atom("p(X, X)").args, parse_atom("p(A, B)").args, {}
        )
        assert resolve(Variable("A"), subst) == resolve(Variable("B"), subst)

    def test_occurs_free_is_sound(self):
        # Function-free: unification always terminates and resolves.
        subst = unify_tuples(
            parse_atom("p(X, Y, Z)").args, parse_atom("p(Y, Z, X)").args, {}
        )
        terms = {resolve(Variable(v), subst) for v in "XYZ"}
        assert len(terms) == 1

    def test_apply_to_atom(self):
        subst = {Variable("X"): Variable("Y"), Variable("Y"): Constant("c")}
        assert apply_to_atom(parse_atom("p(X, Y)"), subst) == parse_atom("p(c, c)")

    def test_does_not_mutate_input(self):
        subst = {}
        unify_terms(Variable("X"), Constant("a"), subst)
        assert subst == {}


class TestPrinter:
    def test_roundtrip(self):
        program = parse_program(
            """
            p(X, Y) :- e(X, Z), p(Z, Y).
            p(X, Y) :- e0(X, Y).
            q(a).
            """
        )
        assert parse_program(program_to_source(program)).rules == program.rules

    def test_grouped_output(self):
        program = parse_program(
            """
            p(X) :- a(X).
            q(X) :- b(X).
            p(X) :- c(X).
            """
        )
        grouped = program_to_source(program, group_by_predicate=True)
        assert parse_program(grouped).rules != program.rules  # reordered
        blocks = grouped.split("\n\n")
        assert len(blocks) == 2
