"""Workload generators and the scenario registry.

Covers the two properties the subsystem exists to provide:

* **determinism** -- the same seed yields byte-identical programs,
  databases, and expected verdicts (generators never read global RNG
  state);
* **ground truth** -- the labels the generators attach by construction
  (bounded/unbounded, contained/not, expected evaluation rows) agree
  with the decision procedures, whose positive verdicts pass the
  certificate checker.
"""

import pytest

from repro.core.boundedness import decide_boundedness
from repro.core.certificate import check_invariant
from repro.core.containment import contained_in_ucq
from repro.core.equivalence import is_equivalent_to_nonrecursive
from repro.datalog.printer import program_to_source
from repro.workloads import (
    DECISION_KINDS,
    REGISTRY,
    bounded_program,
    bounded_rewriting,
    bounded_unbounded_pairs,
    get_scenario,
    random_graph_edges,
    reachable_pairs,
    run_scenario,
    same_depth_pair_count,
    same_depth_pairs,
    scenario_names,
    sirup,
    sirup_covering_union,
    unbounded_program,
)

# ----------------------------------------------------------------------
# Determinism.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 7, 11, 12345])
def test_sirup_deterministic(seed):
    first = sirup(2, seed=seed)
    second = sirup(2, seed=seed)
    assert program_to_source(first) == program_to_source(second)
    assert str(sirup_covering_union(2, seed=seed)) == str(
        sirup_covering_union(2, seed=seed))


@pytest.mark.parametrize("seed", [0, 3, 99])
def test_bounded_family_deterministic(seed):
    assert program_to_source(bounded_program(2, seed=seed)) == \
        program_to_source(bounded_program(2, seed=seed))
    assert program_to_source(bounded_rewriting(2, seed=seed)) == \
        program_to_source(bounded_rewriting(2, seed=seed))
    assert program_to_source(unbounded_program(seed)) == \
        program_to_source(unbounded_program(seed))


def test_seeds_vary_programs():
    sources = {program_to_source(sirup(2, seed=s)) for s in range(8)}
    assert len(sources) > 1


def test_random_graph_deterministic_and_seed_sensitive():
    assert random_graph_edges(20, 40, seed=5) == random_graph_edges(20, 40, seed=5)
    assert random_graph_edges(20, 40, seed=5) != random_graph_edges(20, 40, seed=6)
    edges = random_graph_edges(10, 30, seed=1)
    assert len(edges) == len(set(edges)) == 30
    assert all(a != b for a, b in edges)


def test_pair_stream_deterministic():
    first = bounded_unbounded_pairs(6, seed=21)
    second = bounded_unbounded_pairs(6, seed=21)
    assert [(program_to_source(p), g, label) for p, g, label in first] == \
        [(program_to_source(p), g, label) for p, g, label in second]
    assert {label for _, _, label in bounded_unbounded_pairs(12, seed=2)} == \
        {True, False}


def test_scenario_builds_deterministic():
    # Payload programs must be value-equal across builds (Program is a
    # frozen dataclass), so worker processes reconstruct identical jobs.
    for name in scenario_names():
        scenario = get_scenario(name)
        first, second = scenario.build(), scenario.build()
        if "program" in first:
            assert first["program"] == second["program"]


# ----------------------------------------------------------------------
# Ground truth.
# ----------------------------------------------------------------------

def test_generated_pairs_ground_truth():
    for program, goal, is_bounded in bounded_unbounded_pairs(4, seed=42):
        result = decide_boundedness(program, goal, max_depth=3)
        if is_bounded:
            assert result.bounded is True and result.depth == 2
            check_invariant(result.invariant)
        else:
            assert result.bounded is None


def test_bounded_pair_equivalence_ground_truth():
    program = bounded_program(2, seed=17)
    rewriting = bounded_rewriting(2, seed=17)
    result = is_equivalent_to_nonrecursive(program, rewriting, "p")
    assert result.equivalent
    check_invariant(result.invariant)


@pytest.mark.parametrize("seed", [1, 7])
def test_sirup_covering_ground_truth(seed):
    program = sirup(1, seed=seed)
    union = sirup_covering_union(1, seed=seed)
    result = contained_in_ucq(program, "p", union)
    assert result.contained
    check_invariant(result.invariant)


def test_structural_oracles_agree():
    # The closed-form count and the explicit pair set must match.
    assert len(same_depth_pairs(4, 2)) == same_depth_pair_count(4, 2)
    chain = [("a", "b"), ("b", "c")]
    assert reachable_pairs(chain) == {("a", "b"), ("b", "c"), ("a", "c")}


# ----------------------------------------------------------------------
# Registry invariants.
# ----------------------------------------------------------------------

def test_registry_shape():
    assert len(scenario_names()) >= 12
    decision = [n for n in scenario_names()
                if REGISTRY[n].kind in DECISION_KINDS]
    assert len(decision) >= 12
    assert scenario_names(kind="evaluation")
    assert scenario_names(tag="generated")


def test_unknown_scenario_error_lists_names():
    with pytest.raises(KeyError, match="unknown scenario"):
        get_scenario("no_such_scenario")


def test_all_decision_scenarios_hit_ground_truth():
    """Every registered decision scenario's verdict matches its
    constructed expectation (the registry's core guarantee;
    evaluation/magic kinds are covered in test_runner.py)."""
    for name in scenario_names():
        scenario = get_scenario(name)
        if scenario.kind not in DECISION_KINDS:
            continue
        result = run_scenario(scenario)
        assert result["ok"], (name, result["verdict"],
                              dict(scenario.expected))
