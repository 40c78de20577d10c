"""The certificate checker (:mod:`repro.core.certificate`).

Every positive containment the registry's decision scenarios reach --
directly, inside an equivalence, or at a boundedness depth -- returns
a certificate its checker accepts (the closure test decides all of
them), and every negative one a witness whose counterexample database
refutes it.  The automata's invariants come from
:func:`~repro.workloads.generators.automata_pair`, which neither front
decides, and from the nonlinear programs below, run on the pathway
functions directly.  Tampered invariants are rejected by exactly the
check they break.
"""

import dataclasses

import pytest

from repro import Session
from repro.core import boundedness, equivalence
from repro.core import containment as containment_module
from repro.core.certificate import (CertificateError, check_certificate,
                                    check_invariant, witness_refutes)
from repro.core.tree_containment import ContainmentResult
from repro.core.tree_containment import datalog_contained_in_ucq
from repro.core.word_path import datalog_contained_in_ucq_linear
from repro.cq.query import ConjunctiveQuery, UnionOfConjunctiveQueries
from repro.datalog.parser import parse_atom, parse_program
from repro.datalog.unfold import expansion_union
from repro.programs import buys_bounded
from repro.workloads.generators import automata_pair
from repro.workloads.scenarios import DECISION_KINDS, REGISTRY, get_scenario

from .test_bitset_kernel import TREE_CASES

DECISION_SCENARIOS = sorted(
    name for name in REGISTRY if get_scenario(name).kind in DECISION_KINDS)


def cq(head: str, *body: str) -> ConjunctiveQuery:
    return ConjunctiveQuery(parse_atom(head), tuple(parse_atom(b) for b in body))


def doubling():
    return parse_program("""
        p(X, Y) :- p(X, Z), p(Z, Y).
        p(X, Y) :- e(X, Y).
    """)


def same_generation():
    return parse_program("""
        sg(X, Y) :- flat(X, Y).
        sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
    """)


def fork():
    """Two IDB children, the second of which keeps gaining new
    profiles for three rounds: the depth-2 q subtree meets the early
    p profile only in round 4, through the second child."""
    return parse_program("""
        r(X) :- p(X), q(X).
        p(X) :- a(X).
        q(X) :- b(X).
        q(X) :- c(X, Y), q(Y).
    """)


FORK_UNION = [cq("r(X)", "a(X)", "b(X)"),
              cq("r(X)", "a(X)", "c(X, Y)", "b(Y)"),
              cq("r(X)", "a(X)", "c(X, Y)", "c(Y, Z)")]


# ----------------------------------------------------------------------
# Every containment the registry's decision scenarios reach.
# ----------------------------------------------------------------------

@pytest.fixture
def captured(monkeypatch):
    """Record ``(program, goal, union, result)`` for every containment
    the scenario runs decide, including the ones inside equivalence
    and boundedness (a depth the closure test proves is recorded as a
    positive result carrying its closure certificate)."""
    calls = []
    decide = containment_module.contained_in_ucq
    close = boundedness.closure_certificate

    def spy(program, goal, union, **kwargs):
        result = decide(program, goal, union, **kwargs)
        calls.append((program, goal, union, result))
        return result

    def closure_spy(program, goal, union):
        closure, tested = close(program, goal, union)
        if closure is not None:
            calls.append((program, goal, union,
                          ContainmentResult(True, closure=closure)))
        return closure, tested

    for module in (containment_module, equivalence, boundedness):
        monkeypatch.setattr(module, "contained_in_ucq", spy)
    monkeypatch.setattr(boundedness, "closure_certificate", closure_spy)
    return calls


@pytest.mark.parametrize("name", DECISION_SCENARIOS)
def test_registry_decisions_are_certified(name, captured):
    decision = Session().run_scenario(name)
    assert decision.ok, decision.verdict
    # Negative results include the counterexample probe's witnesses
    # (boundedness depths too); a budgeted stress scenario may reach
    # no verdict and capture none.
    for program, goal, union, result in captured:
        if result.contained:
            check_certificate(program, goal, union, result)
        else:
            assert result.invariant is None and result.closure is None
            assert witness_refutes(program, goal, union, result)


def test_registry_positives_carry_closure_certificates(captured):
    for name in DECISION_SCENARIOS:
        if "stress" not in get_scenario(name).tags:
            Session().run_scenario(name)
    positives = [result for *_, result in captured if result.contained]
    assert len(positives) >= 9
    assert all(result.closure is not None and result.invariant is None
               for result in positives)


@pytest.mark.parametrize("pathway", ["word", "tree"])
def test_automata_pairs_reach_positive_invariants(pathway):
    program, goal, union = automata_pair(pathway)
    result = containment_module.contained_in_ucq(program, goal, union)
    assert result.contained and result.closure is None
    assert result.invariant.pathway == pathway
    check_invariant(result.invariant)


# ----------------------------------------------------------------------
# Positive tree-pathway runs.
# ----------------------------------------------------------------------

TREE_POSITIVES = [
    ("doubling", doubling, "p",
     lambda program: UnionOfConjunctiveQueries([cq("p(X0, X1)", "e(X0, M)")])),
    ("same_generation", same_generation, "sg",
     lambda program: UnionOfConjunctiveQueries([cq("sg(X0, X1)", "flat(A, B)")])),
    ("fork", fork, "r", lambda program: UnionOfConjunctiveQueries(FORK_UNION)),
] + [case for case in TREE_CASES if case[0] in
     ("chain1_covered", "buys_depth2", "widget_depth2")]


@pytest.mark.parametrize("name,make_program,goal,make_union", TREE_POSITIVES,
                         ids=[case[0] for case in TREE_POSITIVES])
def test_tree_pathway_positives_are_certified(name, make_program, goal,
                                              make_union):
    program = make_program()
    result = datalog_contained_in_ucq(program, goal, make_union(program))
    assert result.contained
    assert result.invariant.pathway == "tree"
    chains = result.invariant.chains
    assert sum(map(len, chains.values())) == result.stats["profiles"]
    check_invariant(result.invariant)


TREE_NEGATIVES = [
    ("doubling", doubling, "p",
     [cq("p(X0, X1)", "e(X0, X1)"), cq("p(X0, X1)", "e(X0, A)", "e(A, X1)")]),
    ("same_generation", same_generation, "sg",
     [cq("sg(X0, X1)", "flat(X0, B)")]),
    ("fork", fork, "r", FORK_UNION[:2]),
]


@pytest.mark.parametrize("name,make_program,goal,disjuncts", TREE_NEGATIVES,
                         ids=[case[0] for case in TREE_NEGATIVES])
def test_tree_pathway_negatives_are_refuted(name, make_program, goal,
                                            disjuncts):
    program = make_program()
    union = UnionOfConjunctiveQueries(disjuncts)
    result = datalog_contained_in_ucq(program, goal, union)
    assert not result.contained and result.invariant is None
    assert witness_refutes(program, goal, union, result)


# ----------------------------------------------------------------------
# Tampered invariants: one per check.
# ----------------------------------------------------------------------

def _tree_invariant():
    program = doubling()
    union = UnionOfConjunctiveQueries([cq("p(X0, X1)", "e(X0, M)")])
    return datalog_contained_in_ucq(program, "p", union).invariant


def _word_invariant():
    program = buys_bounded()
    union = expansion_union(program, "buys", 2)
    result = datalog_contained_in_ucq_linear(program, "buys", union)
    return result.invariant


def _rejected_by(invariant) -> str:
    with pytest.raises(CertificateError) as caught:
        check_invariant(invariant)
    return caught.value.condition


def _with_chains(invariant, chains):
    return dataclasses.replace(invariant, chains=chains)


def test_dropped_atom_fails_closure():
    invariant = _tree_invariant()
    check_invariant(invariant)
    ptrees = invariant.automata[0]
    # Every atom of the doubling program has an all-EDB (leaf) label,
    # so an atom without entries breaks closure at that leaf.
    atom = next(iter(invariant.chains))
    assert any(not children for parent, _, children
               in ptrees.transitions_list() if parent == atom)
    chains = {key: chain for key, chain in invariant.chains.items()
              if key != atom}
    assert _rejected_by(_with_chains(invariant, chains)) == "closure"


def test_entry_missing_initial_states_fails_safety():
    invariant = _tree_invariant()
    ptrees = invariant.automata[0]
    root = next(atom for atom in ptrees.initial_atoms()
                if atom in invariant.chains)
    chains = dict(invariant.chains)
    chains[root] = list(chains[root]) + [(0, None, 0)]   # the empty set
    assert _rejected_by(_with_chains(invariant, chains)) == "safety"


def test_dropped_root_entry_fails_start():
    invariant = _word_invariant()
    check_invariant(invariant)
    ptrees = invariant.automata[0]
    root = next(atom for atom in ptrees.initial_atoms()
                if atom in invariant.chains)
    chains = {key: chain for key, chain in invariant.chains.items()
              if key != root}
    assert _rejected_by(_with_chains(invariant, chains)) == "start"


def test_entry_rejecting_a_leaf_fails_leaf():
    invariant = _word_invariant()
    ptrees = invariant.automata[0]
    atom = next(atom for atom in invariant.chains
                if any(label.is_leaf()
                       for label in ptrees.enumerator.labels_for(atom)))
    chains = dict(invariant.chains)
    chains[atom] = list(chains[atom]) + [0]   # the empty V accepts nothing
    assert _rejected_by(_with_chains(invariant, chains)) == "leaf"

