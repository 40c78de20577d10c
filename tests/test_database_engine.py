"""Database and evaluation-engine tests."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.database import Database
from repro.datalog.engine import evaluate, naive_evaluate, query, seminaive_evaluate
from repro.datalog.errors import ArityError, ValidationError
from repro.datalog.parser import parse_program
from repro.datalog.terms import Constant

from .conftest import random_graph_database


class TestDatabase:
    def test_add_and_contains(self):
        db = Database()
        db.add("e", ("a", "b"))
        assert db.contains("e", ("a", "b"))
        assert not db.contains("e", ("b", "a"))

    def test_arity_enforced(self):
        db = Database()
        db.add("e", ("a", "b"))
        with pytest.raises(ArityError):
            db.add("e", ("a",))

    def test_non_ground_atom_rejected(self):
        from repro.datalog.atoms import make_atom

        db = Database()
        with pytest.raises(ValidationError):
            db.add_atom(make_atom("p", "X"))

    def test_from_source_reads_ground_facts(self):
        db = Database.from_source("e(a, b). e(b, c). f(1).")
        assert db == Database.from_facts(
            [("e", ("a", "b")), ("e", ("b", "c")), ("f", (1,))])

    @pytest.mark.parametrize("source", ["p(X).", "p(a) :- q(a)."])
    def test_from_source_rejects_rules_and_variables(self, source):
        with pytest.raises(ValidationError,
                           match="a facts literal holds ground facts only"):
            Database.from_source(source)

    def test_active_domain(self):
        db = Database.from_facts([("e", ("a", "b")), ("f", ("c",))])
        assert db.active_domain() == {Constant("a"), Constant("b"), Constant("c")}

    def test_merge_and_restrict(self):
        left = Database.from_facts([("e", ("a", "b"))])
        right = Database.from_facts([("f", ("c",))])
        merged = left.merge(right)
        assert len(merged) == 2
        assert merged.restrict(["e"]).predicates() == {"e"}

    def test_copy_is_independent(self):
        db = Database.from_facts([("e", ("a", "b"))])
        copy = db.copy()
        copy.add("e", ("b", "c"))
        assert len(db) == 1 and len(copy) == 2

    def test_equality_ignores_empty_relations(self):
        a = Database.from_facts([("e", ("a", "b"))])
        b = Database.from_facts([("e", ("a", "b"))])
        b._relations.setdefault("ghost", set())
        assert a == b


TC = """
p(X, Y) :- e(X, Z), p(Z, Y).
p(X, Y) :- e(X, Y).
"""


class TestEvaluation:
    def test_transitive_closure_matches_networkx(self):
        rng = random.Random(7)
        program = parse_program(TC)
        for _ in range(10):
            db = random_graph_database(rng, nodes=6)
            graph = nx.DiGraph(
                (a.value, b.value) for a, b in db.relation("e")
            )
            closure = nx.transitive_closure(graph, reflexive=False)
            expected = set(closure.edges())
            got = {(a.value, b.value) for a, b in query(program, db, "p")}
            assert got == expected

    def test_naive_equals_seminaive(self):
        rng = random.Random(3)
        program = parse_program(TC)
        for _ in range(10):
            db = random_graph_database(rng, nodes=5)
            assert naive_evaluate(program, db).facts("p") == seminaive_evaluate(
                program, db
            ).facts("p")

    def test_stage_bound_semantics(self):
        # A chain a->b->c->d: stage i of the TC program derives paths
        # of length at most i.
        program = parse_program(TC)
        db = Database.from_facts(
            [("e", ("a", "b")), ("e", ("b", "c")), ("e", ("c", "d"))]
        )
        s1 = query(program, db, "p", max_stages=1)
        assert {(a.value, b.value) for a, b in s1} == {
            ("a", "b"), ("b", "c"), ("c", "d")
        }
        s2 = query(program, db, "p", max_stages=2)
        assert ("a", "d") not in {(a.value, b.value) for a, b in s2}
        s3 = query(program, db, "p", max_stages=3)
        assert ("a", "d") in {(a.value, b.value) for a, b in s3}

    def test_stage_monotone(self):
        program = parse_program(TC)
        db = Database.from_facts([("e", ("a", "b")), ("e", ("b", "a"))])
        previous = frozenset()
        for stage in range(1, 5):
            current = query(program, db, "p", max_stages=stage)
            assert previous <= current
            previous = current

    def test_fixpoint_flag(self):
        program = parse_program(TC)
        db = Database.from_facts([("e", ("a", "b"))])
        result = evaluate(program, db)
        assert result.fixpoint

    def test_empty_database(self):
        program = parse_program(TC)
        assert query(program, Database(), "p") == frozenset()

    def test_mutual_recursion(self):
        program = parse_program(
            """
            even(X) :- zero(X).
            even(X) :- succ(Y, X), odd(Y).
            odd(X) :- succ(Y, X), even(Y).
            """
        )
        db = Database.from_facts(
            [("zero", ("0",))] + [("succ", (str(i), str(i + 1))) for i in range(5)]
        )
        evens = {a.value for (a,) in query(program, db, "even")}
        odds = {a.value for (a,) in query(program, db, "odd")}
        assert evens == {"0", "2", "4"}
        assert odds == {"1", "3", "5"}

    def test_unsafe_empty_body_rule_uses_active_domain(self):
        program = parse_program(
            """
            d(X, X) :- .
            d(X, Y) :- e(X, Y).
            """
        )
        db = Database.from_facts([("e", ("a", "b"))])
        got = {(a.value, b.value) for a, b in query(program, db, "d")}
        assert got == {("a", "a"), ("b", "b"), ("a", "b")}

    def test_unsafe_head_variable(self):
        program = parse_program("pick(X, W) :- chosen(X).")
        db = Database.from_facts([("chosen", ("a",)), ("other", ("b",))])
        got = {(a.value, b.value) for a, b in query(program, db, "pick")}
        assert got == {("a", "a"), ("a", "b")}

    def test_constants_in_rules(self):
        program = parse_program("p(X) :- e(X, target).")
        db = Database.from_facts([("e", ("a", "target")), ("e", ("b", "c"))])
        assert {(a.value,) for (a,) in query(program, db, "p")} == {("a",)}

    def test_propositional_program(self):
        program = parse_program("yes :- a, b.")
        db = Database.from_facts([("a", ()), ("b", ())])
        assert query(program, db, "yes") == frozenset({()})
        db2 = Database.from_facts([("a", ())])
        assert query(program, db2, "yes") == frozenset()

    def test_goal_must_be_idb(self):
        program = parse_program(TC)
        with pytest.raises(ValidationError):
            query(program, Database(), "e")

    def test_as_database_merges(self):
        program = parse_program(TC)
        db = Database.from_facts([("e", ("a", "b"))])
        merged = evaluate(program, db).as_database(db)
        assert merged.contains("e", ("a", "b"))
        assert merged.contains("p", ("a", "b"))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 20))
    def test_naive_equals_seminaive_property(self, seed):
        rng = random.Random(seed)
        program = parse_program(TC)
        db = random_graph_database(rng, nodes=4)
        assert naive_evaluate(program, db).facts("p") == seminaive_evaluate(
            program, db
        ).facts("p")
