"""The closure test between the counterexample probe and the automata.

:func:`repro.core.containment.closure_certificate` proves ``Q_Pi
subseteq union`` by showing that every rule, with each goal atom
replaced by a renamed disjunct, gives a query some disjunct contains
(``T_Pi(union) subseteq union``).  It may only ever answer "contained",
it must agree with the automata wherever it answers, and on the
truncation unions of a single-IDB program it is exact, so the
boundedness search decides such programs without any automaton.
:func:`repro.core.certificate.check_closure` checks its certificate and
must reject each tampered one.
"""

import random

import pytest

from repro import Session
from repro.budget import BudgetExhausted, time_budget
from repro.core.boundedness import bounded_at_depth
from repro.core.certificate import CertificateError, check_closure
from repro.core.containment import closure_certificate, contained_in_ucq
from repro.core.tree_containment import datalog_contained_in_ucq
from repro.core.word_path import datalog_contained_in_ucq_linear, is_chain_program
from repro.cq.query import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.datalog.parser import parse_atom, parse_program
from repro.datalog.unfold import expansion_union, unfold_nonrecursive
from repro.programs import buys_bounded, nonlinear_reach
from repro.workloads import generators as gen
from repro.workloads.scenarios import REGISTRY

from .test_differential import random_program, random_union


def _registry_pairs(holds):
    """``(name, program, goal, union)`` of every registry containment and
    equivalence outside tag:stress whose forward containment is
    *holds*."""
    pairs = []
    for name, scenario in sorted(REGISTRY.items()):
        if "stress" in scenario.tags or \
                scenario.kind not in ("containment", "equivalence"):
            continue
        expected = dict(scenario.expected)
        if expected.get("contained", expected.get("forward")) != holds:
            continue
        payload = scenario.build()
        union = payload.get("union") or unfold_nonrecursive(
            payload["nonrecursive"],
            payload.get("nonrecursive_goal") or payload["goal"])
        pairs.append((name, payload["program"], payload["goal"], union))
    return pairs


def _automata(program, goal, union):
    pathway = (datalog_contained_in_ucq_linear if is_chain_program(program)
               else datalog_contained_in_ucq)
    return pathway(program, goal, union).contained


POSITIVES = _registry_pairs(True)
NEGATIVES = _registry_pairs(False)


@pytest.mark.parametrize("name,program,goal,union", NEGATIVES,
                         ids=[pair[0] for pair in NEGATIVES])
def test_never_contained_on_a_negative_registry_pair(name, program, goal,
                                                     union):
    closure, tested = closure_certificate(program, goal, union)
    assert closure is None


@pytest.mark.parametrize("seed", range(20))
def test_sound_on_random_programs(seed):
    rng = random.Random(seed)
    program = random_program(rng)
    union = random_union(rng, program)
    closure, _ = closure_certificate(program, "p", union)
    if closure is not None:
        check_closure(program, "p", union, closure)
        assert datalog_contained_in_ucq(program, "p", union).contained


def test_random_programs_are_sometimes_proved():
    proved = 0
    for seed in range(20):
        rng = random.Random(seed)
        program = random_program(rng)
        union = random_union(rng, program)
        proved += closure_certificate(program, "p", union)[0] is not None
    assert proved > 0


@pytest.mark.parametrize("name,program,goal,union", POSITIVES,
                         ids=[pair[0] for pair in POSITIVES])
def test_agrees_with_the_automata_on_every_positive_registry_pair(
        name, program, goal, union):
    closure, tested = closure_certificate(program, goal, union)
    assert closure is not None and len(closure) == tested
    check_closure(program, goal, union, closure)
    assert _automata(program, goal, union)


def test_every_positive_registry_pair_skips_the_automata():
    assert len(POSITIVES) >= 6
    for name, program, goal, union in POSITIVES:
        session = Session()
        with session:
            result = contained_in_ucq(program, goal, union)
        assert result.contained and result.closure is not None, name
        assert result.stats["closure_decided"] == 1, name
        assert session.caches.total_entries() == 0, name


def _union(text):
    return UnionOfConjunctiveQueries([ConjunctiveQuery.from_rule(rule)
                                      for rule in parse_program(text).rules])


NONLINEAR_TC = "p(X, Y) :- e(X, Y). p(X, Y) :- p(X, Z), p(Z, Y)."
#: Branching programs with a union closed under their rules: each
#: recursive composition chooses two disjuncts, so the proof threads
#: one unifier across both goal atoms.  In the third, ``p(X, b)`` then
#: ``p(a, Y)`` clash on ``Z`` at the second goal atom.
NONLINEAR = [
    ("tc_first_edge", parse_program(NONLINEAR_TC),
     _union("p(X0, X1) :- e(X0, Z).")),
    ("reach_first_and_last_edge", nonlinear_reach(),
     _union("p(X, Y) :- e(X, Y). p(X, Y) :- e(X, Z), e(W, Y).")),
    ("tc_clashing_constants", parse_program(NONLINEAR_TC),
     _union("p(X, Y) :- e(X, Z). p(X, b) :- e(X, b). p(a, Y) :- e(a, Y).")),
]


@pytest.mark.parametrize("name,program,union", NONLINEAR,
                         ids=[case[0] for case in NONLINEAR])
def test_proves_nonlinear_programs(name, program, union):
    closure, tested = closure_certificate(program, "p", union)
    assert closure is not None and len(closure) == tested
    assert sum(len(step.choice) == 2 for step in closure) == len(union) ** 2
    check_closure(program, "p", union, closure)
    assert datalog_contained_in_ucq(program, "p", union).contained


def test_nonlinear_clash_at_the_second_goal_atom_is_an_empty_entry():
    _, program, union = NONLINEAR[2]
    closure, _ = closure_certificate(program, "p", union)
    empty = [step.choice for step in closure if step.cover is None]
    assert empty == [(1, 2)]


def test_nonlinear_tampering_is_caught():
    _, program, union = NONLINEAR[1]
    closure, _ = closure_certificate(program, "p", union)
    pair = next(step for step in closure if step.choice == (1, 1))
    with pytest.raises(CertificateError) as caught:
        check_closure(program, "p", union,
                      tuple(step for step in closure if step is not pair))
    assert caught.value.condition == "coverage"
    # Forget where the second disjunct's existential variable goes.
    mapping = {variable: term for variable, term in pair.mapping.items()
               if variable.name != "W"}
    tampered = tuple(pair._replace(mapping=mapping) if step is pair
                     else step for step in closure)
    with pytest.raises(CertificateError) as caught:
        check_closure(program, "p", union, tampered)
    assert caught.value.condition == "mapping"


BOUNDEDNESS = sorted(name for name, scenario in REGISTRY.items()
                     if scenario.kind == "boundedness"
                     and not {"stress", "scale"} & set(scenario.tags))


@pytest.mark.parametrize("name", BOUNDEDNESS)
def test_boundedness_registry_needs_no_automaton(name):
    session = Session()
    decision = session.run_scenario(name)
    assert decision.ok, decision.verdict
    stats = decision.stats
    assert stats["containments_run"] == stats["probe_trees"] == 0
    assert stats["closure_decided"] == stats["depths_probed"] > 0
    assert session.caches.total_entries() == 0


def test_generated_bounded_programs_get_their_exact_depth():
    for program, goal, is_bounded in gen.bounded_unbounded_pairs(6, seed=3):
        session = Session()
        result = session.bounded(program, goal, max_depth=3)
        expected = {"bounded": True, "depth": 2} if is_bounded \
            else {"bounded": None, "depth": None}
        assert result.verdict == expected
        assert result.stats["containments_run"] == 0
        assert session.caches.total_entries() == 0
        if is_bounded:
            raw = result.raw
            check_closure(program, goal, raw.witness_union, raw.closure)


def test_nonlinear_tc_depth_5_is_unknown_within_the_budget():
    program = parse_program("p(X, Y) :- e(X, Y). p(X, Y) :- p(X, Z), p(Z, Y).")
    with time_budget(10):
        decision = Session().bounded(program, "p", 5)
    assert decision.verdict == {"bounded": None, "depth": None}
    assert decision.stats["closure_decided"] == 5
    assert decision.stats["containments_run"] == 0


def test_bounded_at_depth_takes_the_same_exact_route():
    session = Session()
    with time_budget(10), session:
        assert not bounded_at_depth(parse_program(NONLINEAR_TC), "p", 5)
        assert bounded_at_depth(buys_bounded(), "buys", 2)
    assert session.caches.total_entries() == 0


def test_multi_idb_programs_are_out_of_scope():
    program = gen.alternating_recursion()
    union = expansion_union(program, "p", 2)
    assert closure_certificate(program, "p", union) == (None, 0)


def test_closure_checks_the_deadline():
    program = gen.bounded_program(4, seed=1)
    union = expansion_union(program, "p", 3)
    with pytest.raises(BudgetExhausted):
        with time_budget(1e-9):
            closure_certificate(program, "p", union)


# ----------------------------------------------------------------------
# Tampered certificates.
# ----------------------------------------------------------------------

def _certified():
    program = buys_bounded()
    union = expansion_union(program, "buys", 2)
    closure, _ = closure_certificate(program, "buys", union)
    check_closure(program, "buys", union, closure)
    return program, union, closure


def _rejected_by(program, union, closure):
    with pytest.raises(CertificateError) as caught:
        check_closure(program, "buys", union, closure)
    return caught.value.condition


def test_dropped_entry_fails_coverage():
    program, union, closure = _certified()
    assert _rejected_by(program, union, closure[1:]) == "coverage"


def test_wrong_cover_fails_mapping():
    program, union, closure = _certified()
    step = next(step for step in closure if step.cover is not None)
    wrong = step._replace(cover=(step.cover + 1) % len(union))
    tampered = tuple(wrong if entry is step else entry for entry in closure)
    assert _rejected_by(program, union, tampered) == "mapping"


def test_mapping_off_the_body_fails_mapping():
    program, union, closure = _certified()
    step = next(step for step in closure
                if step.cover is not None
                and len(list(union)[step.cover].body) > 1)
    disjunct = list(union)[step.cover]
    # Send one existential variable somewhere no atom of the composition
    # reaches.
    variable = next(iter(disjunct.existential_variables))
    mapping = {**step.mapping, variable: variable}
    tampered = tuple(step._replace(mapping=mapping) if entry is step
                     else entry for entry in closure)
    assert _rejected_by(program, union, tampered) == "mapping"


def test_clashing_heads_need_an_empty_entry():
    program = parse_program("p(X, Y) :- e(X, Y). p(X, Y) :- p(X, a), f(Y).")
    union = UnionOfConjunctiveQueries([
        ConjunctiveQuery(parse_atom("p(X0, X1)"), (parse_atom("e(X0, X1)"),)),
        ConjunctiveQuery(parse_atom("p(X0, b)"), (parse_atom("g(X0)"),)),
        ConjunctiveQuery(parse_atom("p(X0, X1)"), (parse_atom("f(X1)"),)),
    ])
    closure, _ = closure_certificate(program, "p", union)
    check_closure(program, "p", union, closure)
    # p(X0, b) cannot replace p(X, a): that composition is empty.
    empty = next(step for step in closure if step.cover is None)
    assert empty.choice == (1,)
    claimed = empty._replace(cover=2, mapping={})
    tampered = tuple(claimed if entry is empty else entry for entry in closure)
    with pytest.raises(CertificateError) as caught:
        check_closure(program, "p", union, tampered)
    assert caught.value.condition == "mapping"


def test_an_unsafe_rule_fails_scope():
    program, union, closure = _certified()
    widened = parse_program(str(program) + "\nbuys(X, Y) :- likes(X, Z).")
    with pytest.raises(CertificateError) as caught:
        check_closure(widened, "buys", union, closure)
    assert caught.value.condition == "scope"


def test_a_second_idb_predicate_fails_scope():
    program, union, closure = _certified()
    widened = parse_program(str(program) + "\nbuys(X, Y) :- q(X, Y).\n"
                            "q(X, Y) :- likes(X, Y).")
    with pytest.raises(CertificateError) as caught:
        check_closure(widened, "buys", union, closure)
    assert caught.value.condition == "scope"
