"""The counterexample probe in front of every containment.

:func:`repro.core.containment.probe_counterexample` walks the expansions
of Pi in increasing height and stops at the first one no disjunct
contains (Proposition 2.6 with Theorems 2.2/2.3).  It may only ever
answer "not contained", its witness -- the escaping expansion's
unfolding tree -- must refute the containment on its counterexample
database, and a containment it cannot refute must reach the closure
test and the automata unchanged.

The automata keep their own negative answers under test: every
negative registry containment and equivalence is decided again by the
pathway functions directly, which the probe never runs in front of.
"""

import random

import pytest

from repro.budget import BudgetExhausted, time_budget
from repro.core.certificate import witness_refutes
from repro.core.containment import (
    PROBE_TREES,
    contained_in_ucq,
    probe_counterexample,
)
from repro.core.tree_containment import (
    ContainmentResult,
    datalog_contained_in_ucq,
)
from repro.core.word_path import datalog_contained_in_ucq_linear, is_chain_program
from repro.cq.containment import cq_equivalent
from repro.cq.query import UnionOfConjunctiveQueries
from repro.datalog.errors import NotLinearError
from repro.datalog.parser import parse_program
from repro.datalog.unfold import (
    expansion_derivations,
    expansion_union,
    unfold_nonrecursive,
)
from repro.programs import dist
from repro.trees.expansion import unfolding_trees
from repro.trees.proof import proof_tree_to_expansion_tree
from repro.trees.render import render_tree
from repro.trees.strong import ucq_covers_proof_tree
from repro.workloads import generators as gen
from repro.workloads.scenarios import REGISTRY

from .test_differential import random_program, random_union


def _assert_refuting_witness(program, goal, union, witness):
    witness.validate(program)
    assert not ucq_covers_proof_tree(union, witness, program)
    assert witness_refutes(program, goal, union,
                           ContainmentResult(False, witness))


class TestProbe:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_truncation_is_escaped_one_height_up(self, tc_program, depth):
        union = expansion_union(tc_program, "p", depth)
        witness, tested = probe_counterexample(tc_program, "p", union)
        assert witness.height() == depth + 1
        assert tested == depth + 1  # one expansion per height
        _assert_refuting_witness(tc_program, "p", union, witness)

    def test_witness_does_not_depend_on_hash_seed(self, tc_program):
        """The walk order and the fresh names follow rule order and
        variable names only; CI runs this under two hash seeds."""
        union = expansion_union(tc_program, "p", 2)
        witness, _ = probe_counterexample(tc_program, "p", union)
        assert render_tree(witness).splitlines() == [
            "p(X0, X1)  <-  e(X0, E0), p(E0, X1)",
            "`-- p(E0, X1)  <-  e(E0, E1), p(E1, X1)",
            "    `-- p(E1, X1)  <-  e0(E1, X1)",
        ]

    def test_never_answers_contained(self, buys1, buys1_nr):
        union = unfold_nonrecursive(buys1_nr, "buys")
        witness, tested = probe_counterexample(buys1, "buys", union)
        assert witness is None and tested == 3  # heights 1..3
        result = contained_in_ucq(buys1, "buys", union)
        assert result.contained
        assert result.stats["probe_decided"] == 0
        assert result.stats["probe_trees"] == 3
        assert result.stats["closure_decided"] == 1  # the closure test did
        # A pair the closure test leaves open reaches the automata.
        result = contained_in_ucq(*gen.automata_pair("word"))
        assert result.contained
        assert result.stats["probe_decided"] == 0
        assert result.stats["pairs"] > 0

    def test_decides_before_any_automaton(self):
        union = unfold_nonrecursive(dist(1), "dist1")
        result = contained_in_ucq(dist(2), "dist2", union)
        assert not result.contained
        assert result.stats == {"probe_trees": 1, "probe_decided": 1,
                                "closure_tests": 0, "closure_decided": 0}
        assert set(result.timings) == {"probe_s", "closure_s"}
        _assert_refuting_witness(dist(2), "dist2", union, result.witness)

    def test_unsafe_programs_are_not_probed(self):
        program = parse_program("""
            p(X, Y) :- e(X).
            p(X, Y) :- f(X, Z), p(Z, Y).
        """)
        union = expansion_union(program, "p", 1)
        assert probe_counterexample(program, "p", union) == (None, 0)
        result = contained_in_ucq(program, "p", union)
        assert result.stats["probe_decided"] == 0

    def test_tree_count_is_capped(self):
        # Four guards branch four ways per height: far more expansions
        # up to the union's height than the cap, all of them contained.
        program = gen.bounded_program(4, seed=1)
        union = expansion_union(program, "p", 4)
        witness, tested = probe_counterexample(program, "p", union)
        assert witness is None
        assert tested == PROBE_TREES

    def test_probe_checks_the_deadline(self):
        program = gen.bounded_program(4, seed=1)
        union = expansion_union(program, "p", 4)
        with pytest.raises(BudgetExhausted):
            with time_budget(1e-9):
                probe_counterexample(program, "p", union)

    def test_word_method_still_requires_chain_form(self):
        program = parse_program("""
            p(X, Y) :- p(X, Z), p(Z, Y).
            p(X, Y) :- e(X, Y).
        """)
        union = UnionOfConjunctiveQueries([], arity=2)
        with pytest.raises(NotLinearError):
            datalog_contained_in_ucq_linear(program, "p", union)

    @pytest.mark.parametrize("seed", range(20))
    def test_probe_agrees_with_the_automata(self, seed):
        rng = random.Random(seed)
        program = random_program(rng)
        union = random_union(rng, program)
        witness, _ = probe_counterexample(program, "p", union)
        automata = datalog_contained_in_ucq(program, "p", union)
        if witness is not None:
            assert not automata.contained
            _assert_refuting_witness(program, "p", union, witness)


class TestExpansionWalk:
    def test_derivations_come_in_increasing_height(self):
        program = gen.bounded_program(2, seed=3)
        heights = [tree.height() for tree in unfolding_trees(program, "p", 4)]
        assert heights == sorted(heights)
        assert heights.count(4) == 8

    def test_exact_height_filters_the_same_walk(self, tc_program):
        exact = [query for query, _steps, _subst in expansion_derivations(
            tc_program, "p", 3, exact_height=True)]
        assert [len(query.body) for query in exact] == [3]

    def test_unfolding_trees_survive_the_witness_renaming(self):
        """counterexample_database renames a witness by connectedness
        classes (Proposition 5.5); on an unfolding tree every variable
        is one class, so the query stays the same up to renaming
        (checked as mutual containment: the renaming is a bijection)."""
        program = parse_program("""
            p(X, Y) :- e(X, Z), q(Z, Y).
            q(W, W) :- loop(W).
            q(X, Y) :- f(X, Z), p(Z, Y).
        """)
        for tree in unfolding_trees(program, "p", 4):
            tree.validate(program)
            back = proof_tree_to_expansion_tree(tree).to_query(program)
            original = tree.to_query(program)
            assert len(back.variables) == len(original.variables)
            assert cq_equivalent(back, original)


# ----------------------------------------------------------------------
# The automata's own negative answers, without the probe in front.
# ----------------------------------------------------------------------

def _negative_registry_containments():
    """Every negative containment and equivalence outside tag:stress
    (the stress pairs are the automata's budgeted wall), as
    (name, program, goal, union)."""
    cases = []
    for name, scenario in sorted(REGISTRY.items()):
        if "stress" in scenario.tags:
            continue
        if scenario.kind == "containment" and not scenario.expected["contained"]:
            payload = scenario.build()
            cases.append((name, payload["program"], payload["goal"],
                          payload["union"]))
        elif scenario.kind == "equivalence" and not scenario.expected["forward"]:
            payload = scenario.build()
            union = unfold_nonrecursive(
                payload["nonrecursive"],
                payload.get("nonrecursive_goal") or payload["goal"])
            cases.append((name, payload["program"], payload["goal"], union))
    return cases


NEGATIVE_CASES = _negative_registry_containments()


def test_negative_registry_set_is_complete():
    assert [case[0] for case in NEGATIVE_CASES] == [
        "contain_alternating_trunc2", "contain_sirup_s11_uncovered",
        "contain_tc_trunc1", "contain_tc_trunc2", "contain_tc_trunc2_word",
        "contain_tc_trunc3", "equiv_buys_recursive", "equiv_dist_mismatch",
    ]


@pytest.mark.parametrize("name,program,goal,union", NEGATIVE_CASES,
                         ids=[case[0] for case in NEGATIVE_CASES])
def test_automata_refute_every_negative_registry_containment(
        name, program, goal, union):
    pathways = [datalog_contained_in_ucq]
    if is_chain_program(program):
        pathways.append(datalog_contained_in_ucq_linear)
    for pathway in pathways:
        result = pathway(program, goal, union)
        assert not result.contained, pathway.__name__
        assert "probe_trees" not in result.stats
        assert witness_refutes(program, goal, union, result), pathway.__name__
