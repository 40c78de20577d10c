"""End-to-end containment tests (Theorems 5.8, 5.11, 5.12) with
differential validation against the brute-force oracle and against
semantic evaluation on counterexample databases."""

import random

import pytest

from repro.cq.canonical import evaluate_ucq
from repro.cq.query import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.core.containment import (
    contained_in_cq,
    contained_in_nonrecursive,
    contained_in_ucq,
    counterexample_database,
    cq_contained_in_datalog,
    nonrecursive_contained_in_datalog,
    ucq_contained_in_datalog,
)
from repro.core.tree_containment import datalog_contained_in_ucq
from repro.core.word_path import (
    datalog_contained_in_ucq_linear,
    is_chain_program,
)
from repro.datalog.engine import evaluate
from repro.datalog.errors import ValidationError
from repro.datalog.parser import parse_atom, parse_program
from repro.datalog.unfold import expansion_union, unfold_nonrecursive
from repro.trees.strong import brute_force_contained
from repro.workloads.generators import automata_pair
from repro.workloads.scenarios import REGISTRY


def cq(head: str, *body: str) -> ConjunctiveQuery:
    return ConjunctiveQuery(parse_atom(head), tuple(parse_atom(b) for b in body))


def ucq(*queries) -> UnionOfConjunctiveQueries:
    return UnionOfConjunctiveQueries(list(queries))


class TestKnownAnswers:
    def test_tc_not_contained_in_single_step(self, tc_program):
        result = contained_in_cq(tc_program, "p", cq("p(X0, X1)", "e0(X0, X1)"))
        assert not result.contained
        assert result.witness is not None

    def test_tc_not_contained_in_any_truncation(self, tc_program):
        for height in (1, 2, 3):
            union = expansion_union(tc_program, "p", height)
            assert not datalog_contained_in_ucq(tc_program, "p", union)

    def test_bounded_program_contained(self, buys1, buys1_nr):
        union = unfold_nonrecursive(buys1_nr, "buys")
        assert datalog_contained_in_ucq(buys1, "buys", union).contained
        assert datalog_contained_in_ucq_linear(buys1, "buys", union).contained

    def test_unbounded_program_not_contained(self, buys2, buys2_nr):
        union = unfold_nonrecursive(buys2_nr, "buys")
        result = datalog_contained_in_ucq(buys2, "buys", union)
        assert not result.contained
        # The witness must be a depth->=3 derivation.
        assert result.witness.height() >= 3

    def test_containment_in_weaker_query_holds(self, tc_program):
        # Every expansion starts with an edge out of X0... no: the base
        # case is a bare e0 edge.  A disjunction covering both rule
        # shapes at the top level works:
        union = ucq(
            cq("p(X0, X1)", "e0(X0, X1)"),
            cq("p(X0, X1)", "e(X0, Z)"),
        )
        assert datalog_contained_in_ucq(tc_program, "p", union).contained

    def test_single_cq_covering_projection(self, buys1):
        # buys(X, Y) always ends in a likes(., Y) fact.
        assert contained_in_cq(buys1, "buys", cq("buys(X0, X1)", "likes(Z, X1)"))

    def test_nonlinear_program(self):
        program = parse_program(
            """
            p(X, Y) :- p(X, Z), p(Z, Y).
            p(X, Y) :- e(X, Y).
            """
        )
        # Contained in 'there is an edge out of X0' union 'edge into X1'?
        # Every expansion is an e-path from X0 to X1, so 'edge out of
        # X0' alone covers everything.
        assert contained_in_cq(program, "p", cq("p(X0, X1)", "e(X0, Z)")).contained
        assert not contained_in_cq(program, "p", cq("p(X0, X1)", "e(X0, X1)")).contained

    def test_empty_union_containment_fails_for_productive_program(self, tc_program):
        union = UnionOfConjunctiveQueries([], arity=2)
        assert not datalog_contained_in_ucq(tc_program, "p", union).contained

    def test_goal_with_no_rules_is_contained_in_anything(self):
        program = parse_program("p(X, Y) :- q(X, Y), never(X).\nq(X, Y) :- q(Y, X).")
        # q has only the self-recursive rule: no finite proof tree.
        union = UnionOfConjunctiveQueries([], arity=2)
        assert datalog_contained_in_ucq(program, "q", union).contained


class TestCounterexamples:
    def test_counterexample_database_refutes(self, tc_program):
        result = datalog_contained_in_ucq(
            tc_program, "p", ucq(cq("p(X0, X1)", "e0(X0, X1)"))
        )
        db, row = counterexample_database(result, tc_program)
        derived = evaluate(tc_program, db).facts("p")
        assert row in derived
        assert row not in evaluate_ucq(
            ucq(cq("p(X0, X1)", "e0(X0, X1)")), db
        )

    def test_counterexample_requires_failure(self, buys1, buys1_nr):
        union = unfold_nonrecursive(buys1_nr, "buys")
        result = contained_in_ucq(buys1, "buys", union)
        with pytest.raises(ValidationError):
            counterexample_database(result, buys1)

    def test_word_path_counterexample_also_refutes(self, buys2, buys2_nr):
        union = unfold_nonrecursive(buys2_nr, "buys")
        result = datalog_contained_in_ucq_linear(buys2, "buys", union)
        assert not result.contained
        db, row = counterexample_database(result, buys2)
        assert row in evaluate(buys2, db).facts("buys")
        assert row not in evaluate_ucq(union, db)


class TestDifferential:
    def test_brute_force_agreement_tc(self, tc_program):
        unions = [
            expansion_union(tc_program, "p", 1),
            expansion_union(tc_program, "p", 2),
            ucq(cq("p(X0, X1)", "e0(X0, X1)"), cq("p(X0, X1)", "e(X0, Z)")),
            ucq(cq("p(X0, X0)", "e0(X0, X0)")),
        ]
        for union in unions:
            auto = datalog_contained_in_ucq(tc_program, "p", union).contained
            brute, _ = brute_force_contained(tc_program, "p", union, max_height=3)
            # brute force is exact for "no" and sound up to height 3.
            if not brute:
                assert not auto
            if auto:
                assert brute

    def test_tree_and_word_pathways_agree(self, tc_program, buys1, buys2):
        cases = [
            (tc_program, "p", expansion_union(tc_program, "p", 2)),
            (tc_program, "p",
             ucq(cq("p(X0, X1)", "e0(X0, X1)"), cq("p(X0, X1)", "e(X0, Z)"))),
            (buys1, "buys", ucq(cq("buys(X0, X1)", "likes(Z, X1)"))),
            (buys2, "buys", ucq(cq("buys(X0, X1)", "likes(Z, X1)"))),
        ]
        for program, goal, union in cases:
            tree = datalog_contained_in_ucq(program, goal, union).contained
            word = datalog_contained_in_ucq_linear(
                program, goal, union).contained
            assert tree == word, (goal, str(union))

    def test_antichain_ablation_agrees(self, tc_program):
        union = ucq(cq("p(X0, X1)", "e0(X0, X1)"), cq("p(X0, X1)", "e(X0, Z)"))
        with_ac = datalog_contained_in_ucq(tc_program, "p", union, use_antichain=True)
        without = datalog_contained_in_ucq(tc_program, "p", union, use_antichain=False)
        assert with_ac.contained == without.contained

    def test_random_databases_never_refute_a_yes(self, buys1, buys1_nr):
        union = unfold_nonrecursive(buys1_nr, "buys")
        assert contained_in_ucq(buys1, "buys", union).contained
        rng = random.Random(77)
        for _ in range(25):
            from .conftest import random_database

            db = random_database(
                rng, [("likes", 2), ("trendy", 1)], constants=("a", "b", "c")
            )
            assert evaluate(buys1, db).facts("buys") <= evaluate_ucq(union, db)


class TestReverseDirection:
    def test_cq_contained_in_datalog(self, tc_program):
        # A 3-step path query is contained in transitive closure.
        theta = cq("p(X, Y)", "e(X, A)", "e(A, B)", "e0(B, Y)")
        assert cq_contained_in_datalog(theta, tc_program, "p")
        # But a disconnected query is not.
        theta2 = cq("p(X, Y)", "e(X, A)", "e0(B, Y)")
        assert not cq_contained_in_datalog(theta2, tc_program, "p")

    def test_ucq_contained_in_datalog(self, tc_program):
        union = expansion_union(tc_program, "p", 3)
        assert ucq_contained_in_datalog(union, tc_program, "p")

    def test_nonrecursive_contained_in_datalog(self, buys1, buys1_nr):
        assert nonrecursive_contained_in_datalog(buys1_nr, "buys", buys1, "buys")

    def test_unsafe_query_rejected(self, tc_program):
        with pytest.raises(ValidationError):
            cq_contained_in_datalog(cq("p(X, W)", "e0(X, X)"), tc_program, "p")

    def test_contained_in_nonrecursive_wrapper(self, buys1, buys1_nr, buys2, buys2_nr):
        assert contained_in_nonrecursive(buys1, "buys", buys1_nr).contained
        assert not contained_in_nonrecursive(buys2, "buys", buys2_nr).contained


class TestRoute:
    """No caller selects the automata: ``contained_in_ucq`` takes the
    word pathway (its stats carry ``pairs``) exactly for chain-form
    programs and the tree pathway (``profiles``) for every other."""

    @staticmethod
    def _forward_containments():
        """Every registry containment and equivalence outside tag:stress
        as (name, program, goal, union), plus the two
        :func:`~repro.workloads.generators.automata_pair` pairs, which
        neither front decides: right-linear transitive closure and the
        nonlinear one, which is not chain-form."""
        cases = []
        for name, scenario in sorted(REGISTRY.items()):
            if "stress" in scenario.tags or \
                    scenario.kind not in ("containment", "equivalence"):
                continue
            payload = scenario.build()
            union = payload.get("union") or unfold_nonrecursive(
                payload["nonrecursive"],
                payload.get("nonrecursive_goal") or payload["goal"])
            cases.append((name, payload["program"], payload["goal"], union))
        for pathway in ("word", "tree"):
            cases.append((f"automata_{pathway}", *automata_pair(pathway)))
        return cases

    def test_route_follows_the_program_shape(self):
        routed = []
        for name, program, goal, union in self._forward_containments():
            result = contained_in_ucq(program, goal, union)
            if result.stats["probe_decided"] or \
                    result.stats["closure_decided"]:
                assert not {"pairs", "profiles"} & set(result.stats), name
                continue
            routed.append(name)
            chain = is_chain_program(program)
            assert ("pairs" in result.stats) == chain, name
            assert ("profiles" in result.stats) == (not chain), name
        assert routed == ["automata_word", "automata_tree"]
