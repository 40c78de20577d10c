"""Edge cases and failure-path tests across modules."""

import pytest

from repro.automata.tree import LabeledTree, TreeAutomaton, path_tree
from repro.core.tree_containment import datalog_contained_in_ucq
from repro.cq.query import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.datalog.atoms import Atom, make_atom
from repro.datalog.database import Database
from repro.datalog.engine import evaluate, query
from repro.datalog.errors import (
    ArityError,
    NotLinearError,
    NotNonrecursiveError,
    ParseError,
    ReproError,
    ValidationError,
)
from repro.datalog.parser import parse_atom, parse_program
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Variable


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [ArityError, NotLinearError, NotNonrecursiveError, ParseError, ValidationError],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            parse_program("p(X")


class TestProgramEdgeCases:
    def test_empty_program(self):
        program = Program(())
        assert program.idb_predicates == frozenset()
        assert program.size() == 0

    def test_arity_clash_rejected(self):
        with pytest.raises(ArityError):
            parse_program("p(X) :- e(X).\np(X, Y) :- e(X).")

    def test_predicate_used_as_idb_and_edb(self):
        # 'q' is IDB (appears in a head) even though also used in a body.
        program = parse_program("p(X) :- q(X).\nq(X) :- e(X).")
        assert program.idb_predicates == {"p", "q"}
        assert program.edb_predicates == {"e"}

    def test_extend(self):
        program = parse_program("p(X) :- e(X).")
        extended = program.extend(parse_program("q(X) :- p(X).").rules)
        assert extended.idb_predicates == {"p", "q"}
        assert len(program) == 1  # original untouched

    def test_goal_validation_error_message(self):
        program = parse_program("p(X) :- e(X).")
        with pytest.raises(ValidationError, match="goal"):
            program.require_goal("missing")


class TestZeroArity:
    def test_zero_ary_goal_containment(self):
        """Boolean goals (like the lower-bound encodings' C) flow
        through the whole pipeline."""
        program = parse_program("c :- trigger(X), c.\nc :- base(X).")
        union = UnionOfConjunctiveQueries(
            [ConjunctiveQuery(Atom("c", ()), (parse_atom("base(Z)"),))]
        )
        assert datalog_contained_in_ucq(program, "c", union).contained

    def test_zero_ary_goal_noncontainment(self):
        program = parse_program("c :- trigger(X), c.\nc :- base(X).")
        union = UnionOfConjunctiveQueries(
            [
                ConjunctiveQuery(
                    Atom("c", ()),
                    (parse_atom("base(Z)"), parse_atom("trigger(Z)")),
                )
            ]
        )
        result = datalog_contained_in_ucq(program, "c", union)
        assert not result.contained


class TestConstantsEndToEnd:
    def test_program_with_constants_containment(self):
        """Remark 5.14: constants in rules and queries."""
        program = parse_program(
            """
            p(X) :- e(X, root), p(X).
            p(X) :- b(X, root).
            """
        )
        theta = ConjunctiveQuery(parse_atom("p(X0)"), (parse_atom("b(Z, root)"),))
        assert datalog_contained_in_ucq(
            program, "p", UnionOfConjunctiveQueries([theta])).contained
        theta_wrong = ConjunctiveQuery(
            parse_atom("p(X0)"), (parse_atom("b(Z, other)"),)
        )
        assert not datalog_contained_in_ucq(
            program, "p", UnionOfConjunctiveQueries([theta_wrong])).contained

    def test_constant_binding_through_recursion(self):
        program = parse_program(
            """
            p(X) :- e(X, Z), p(Z).
            p(root).
            """
        )
        # Every derivation bottoms out at the fact p(root): with no EDB
        # atom in the leaf rule, only a trivially-true theta covers it.
        theta = ConjunctiveQuery(parse_atom("p(X0)"), ())
        assert datalog_contained_in_ucq(
            program, "p", UnionOfConjunctiveQueries([theta])).contained

    def test_head_constant_query(self):
        program = parse_program("p(root) :- e(root, root).")
        theta = ConjunctiveQuery(
            Atom("p", (Constant("root"),)), (parse_atom("e(root, root)"),)
        )
        assert datalog_contained_in_ucq(
            program, "p", UnionOfConjunctiveQueries([theta])).contained


class TestTreeAutomatonEdges:
    def test_single_node_language(self):
        automaton = TreeAutomaton.build(["a"], ["s"], ["s"], [("s", "a", ())])
        assert automaton.accepts(LabeledTree("a"))
        assert not automaton.accepts(LabeledTree("a", (LabeledTree("a"),)))

    def test_path_tree_validation(self):
        with pytest.raises(ValidationError):
            path_tree([])

    def test_unknown_symbol_rejected(self):
        automaton = TreeAutomaton.build(["a"], ["s"], ["s"], [("s", "a", ())])
        assert not automaton.accepts(LabeledTree("z"))


class TestEngineEdges:
    def test_fact_only_program(self):
        program = parse_program("p(a, b).\np(b, c).")
        result = evaluate(program, Database())
        assert len(result.facts("p")) == 2

    def test_rule_with_goal_in_own_body_and_no_base(self):
        program = parse_program("p(X) :- p(X).")
        db = Database.from_facts([("e", ("a",))])
        assert query(program, db, "p") == frozenset()

    def test_duplicate_rules_harmless(self):
        program = parse_program("p(X) :- e(X).\np(X) :- e(X).")
        db = Database.from_facts([("e", ("a",))])
        assert len(query(program, db, "p")) == 1
