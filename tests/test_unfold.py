"""Unfolding tests: nonrecursive -> UCQ, bounded expansions,
Proposition 2.6, the Section 6 blowup examples, and the composition
step behind the unfolding, the chain form and the closure test."""

import hashlib
import random
import time

import pytest

from repro.core.word_path import to_chain_form
from repro.cq.canonical import evaluate_cq, evaluate_ucq
from repro.cq.query import ConjunctiveQuery
from repro.datalog.engine import query
from repro.datalog.errors import NotNonrecursiveError
from repro.datalog.parser import parse_atom, parse_program, parse_rule
from repro.datalog.unfold import (
    compositions,
    count_expansions,
    expansion_union,
    expansions,
    unfold_nonrecursive,
)
from repro.datalog.terms import Variable
from repro.programs import dist, dist_le, equal, transitive_closure, word

from .conftest import random_graph_database


class TestUnfoldNonrecursive:
    def test_dist_single_exponential_disjunct(self):
        # Example 6.1: dist_n unfolds to ONE conjunctive query with 2^n
        # body atoms.
        for n in (1, 2, 3, 4):
            union = unfold_nonrecursive(dist(n), f"dist{n}")
            assert len(union) == 1
            assert len(union.disjuncts[0].body) == 2 ** n

    def test_word_exponentially_many_small_disjuncts(self):
        # Example 6.6: word_n unfolds to 2^n disjuncts of size O(n).
        for n in (1, 2, 3, 4):
            union = unfold_nonrecursive(word(n), f"word{n}")
            assert len(union) == 2 ** n
            assert all(len(q.body) <= 2 * n for q in union)

    def test_dist_le_handles_empty_body_rules(self):
        union = unfold_nonrecursive(dist_le(1), "dist1")
        # Paths of length 0, 1, 2 (deduplicated).
        lengths = sorted(len(q.body) for q in union)
        assert lengths[0] == 0 and lengths[-1] == 2

    def test_semantics_match_engine(self):
        rng = random.Random(11)
        for n in (1, 2):
            program = dist_le(n)
            union = unfold_nonrecursive(program, f"dist{n}")
            for _ in range(5):
                db = random_graph_database(rng, nodes=5)
                assert evaluate_ucq(union, db) == query(program, db, f"dist{n}")

    def test_equal_semantics(self):
        # equal_1(x,y,u,v): paths of length 2 with matching labels.
        program = equal(1)
        union = unfold_nonrecursive(program, "equal1")
        from repro.datalog.database import Database

        db = Database.from_facts(
            [
                ("e", ("a", "b")), ("e", ("b", "c")),
                ("e", ("p", "q")), ("e", ("q", "r")),
                ("zero", ("a",)), ("zero", ("p",)),
                ("one", ("b",)), ("one", ("q",)),
            ]
        )
        rows = {tuple(c.value for c in row) for row in evaluate_ucq(union, db)}
        assert ("a", "c", "p", "r") in rows
        assert ("a", "c", "a", "c") in rows
        engine_rows = query(program, db, "equal1")
        assert evaluate_ucq(union, db) == engine_rows

    def test_rejects_recursive_program(self):
        with pytest.raises(NotNonrecursiveError):
            unfold_nonrecursive(transitive_closure(), "p")

    def test_dedupe_removes_renamed_duplicates(self):
        program = parse_program(
            """
            q(X) :- e(X, Y).
            q(X) :- e(X, Z).
            """
        )
        assert len(unfold_nonrecursive(program, "q")) == 1

    def test_constant_unification(self):
        program = parse_program(
            """
            q(X) :- mid(X, a).
            mid(X, Y) :- e(X, Y).
            """
        )
        union = unfold_nonrecursive(program, "q")
        assert len(union) == 1
        assert "e(X0, a)" in str(union.disjuncts[0])


#: sha1 of ``str(unfold_nonrecursive(...))``: the union's size and text
#: depend on the order in which fresh variables are drawn.
UNFOLD_PINS = [
    (word(8), "word8", 256, "a409bc8730e055c67bb821b0cfe60e285b0bee1e"),
    (dist_le(3), "dist3", 27, "5950abe932f5bb2eb0108f6d61e49cbb177fe593"),
    (dist_le(3), "distlt3", 19, "4cda2f873b4cb9de926e0f311a46c3047cf3c649"),
    (equal(3), "equal3", 256, "270b86289ce78bb604aca02df5af4934205159f6"),
]


@pytest.mark.parametrize("program,goal,size,digest", UNFOLD_PINS,
                         ids=[pin[1] for pin in UNFOLD_PINS])
def test_unfolding_text_is_pinned(program, goal, size, digest):
    union = unfold_nonrecursive(program, goal)
    assert len(union) == size
    assert hashlib.sha1(str(union).encode()).hexdigest() == digest


def test_chain_form_text_is_pinned():
    program = parse_program(
        """
        p(X, Y) :- a(X, Z), p(Z, W), b(W, Y).
        p(X, Y) :- e(X, Y).
        a(X, Y) :- f(X, Y).
        a(X, Y) :- f(X, Z), g(Z, Y).
        b(X, X) :- h(X).
        b(X, Y) :- a(X, Y).
        """
    )
    assert str(to_chain_form(program, "p")).splitlines() == [
        "p(X, Y) :- f(X, Z), p(Z, Y), h(Y).",
        "p(X, Y) :- f(X, Z), p(Z, W), f(W, Y).",
        "p(X, Y) :- f(X, Z), p(Z, W), f(W, C8), g(C8, Y).",
        "p(X, Y) :- f(X, C2), g(C2, Z), p(Z, Y), h(Y).",
        "p(X, Y) :- f(X, C2), g(C2, Z), p(Z, W), f(W, Y).",
        "p(X, Y) :- f(X, C2), g(C2, Z), p(Z, W), f(W, C14), g(C14, Y).",
        "p(X, Y) :- e(X, Y).",
    ]


class TestCompositions:
    TEMPLATES = {"q": [ConjunctiveQuery(parse_atom("q(A, a)"),
                                        (parse_atom("f(A)"),)),
                       ConjunctiveQuery(parse_atom("q(A, B)"),
                                        (parse_atom("g(A, B)"),))]}

    @staticmethod
    def tag(template, level):
        return template.substitute({v: Variable(f"{v.name}{level}")
                                    for v in template.variables})

    def test_every_choice_in_order_with_none_where_a_head_clashes(self):
        rule = parse_rule("p(X) :- q(X, b), e(X), q(X, Y).")
        found = [(choice, None if query is None else str(query))
                 for choice, query in compositions(rule, self.TEMPLATES,
                                                   self.tag)]
        # The dead prefix (0,) stands for (0, 0) and (0, 1).
        assert found == [
            ((0,), None),
            ((1, 0), "p(X) :- g(X, b), e(X), f(X)."),
            ((1, 1), "p(X) :- g(X, b), e(X), g(X, Y)."),
        ]

    def test_a_dead_prefix_is_not_expanded(self, frozen_heap):
        # r(X, a) never unifies with r(X, b), so the union is empty
        # however many of the 8 s rules could follow it: 8^8 tails.
        program = parse_program(
            "q(X) :- r(X, a), " + ", ".join(["s(X)"] * 8) + ".\n"
            "r(X, b) :- e(X).\n"
            + "\n".join(f"s(X) :- f{i}(X)." for i in range(8)))
        timings = []
        for _ in range(3):
            started = time.perf_counter()
            assert len(unfold_nonrecursive(program, "q")) == 0
            timings.append(time.perf_counter() - started)
        assert min(timings) < 0.005

    def test_no_templates_leaves_the_rule(self):
        rule = parse_rule("p(X) :- e(X, Y).")
        assert [(c, str(q)) for c, q in compositions(rule, {}, self.tag)] \
            == [((), "p(X) :- e(X, Y).")]

    def test_the_last_replaced_atom_is_composed_lazily(self):
        calls = []

        def rename(template, level):
            calls.append(level)
            return self.tag(template, level)

        rule = parse_rule("p(X, Y) :- q(X, Y).")
        steps = compositions(rule, self.TEMPLATES, rename)
        next(steps)
        assert calls == [0]


class TestExpansions:
    def test_tc_expansion_counts(self, tc_program):
        # Heights 1..k: paths e^(h-1) e0, so one expansion per height.
        assert count_expansions(tc_program, "p", 1) == 1
        assert count_expansions(tc_program, "p", 2) == 2
        assert count_expansions(tc_program, "p", 5) == 5

    def test_expansion_shapes(self, tc_program):
        for q in expansions(tc_program, "p", 3):
            predicates = [a.predicate for a in q.body]
            assert predicates[-1] == "e0"
            assert all(p == "e" for p in predicates[:-1])

    def test_exact_height(self, tc_program):
        exact = list(expansions(tc_program, "p", 3, exact_height=True))
        assert len(exact) == 1
        assert len(exact[0].body) == 3

    def test_proposition_2_6_bounded(self, tc_program):
        # Q_Pi(D) restricted to stage k equals the union of expansions
        # of height <= k, and the full fixpoint is reached for chains.
        rng = random.Random(5)
        for _ in range(5):
            db = random_graph_database(rng, nodes=4, edge_pred="e")
            # add a base relation
            for a, b in list(db.relation("e"))[:2]:
                db.add("e0", (a, b))
            full = query(tc_program, db, "p")
            union = expansion_union(tc_program, "p", 6)
            assert evaluate_ucq(union, db) == full  # 6 >= longest path here

    def test_nonlinear_expansions_branch(self):
        program = parse_program(
            """
            p(X, Y) :- p(X, Z), p(Z, Y).
            p(X, Y) :- e(X, Y).
            """
        )
        # height 2: e, e·e ; height 3 adds 3 bracketings of e^3 and e^4
        assert count_expansions(program, "p", 1) == 1
        assert count_expansions(program, "p", 2) == 2
        assert count_expansions(program, "p", 3) == 1 + 1 + 2 + 1  # e, e2, 2x e3, e4
