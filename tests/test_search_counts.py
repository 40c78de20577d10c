"""The decision searches explore a pinned search space.

Every decision scenario outside ``tag:stress`` and ``tag:scale`` runs
on a fresh :class:`~repro.session.Session`, and its search counters in
``Decision.stats`` must equal the values recorded here.  The fronts
decide all of them, so the automata's counters are pinned on
:func:`~repro.workloads.generators.automata_pair`, which reaches the
word and the tree automata.  A change to the query automaton's
representation (how states, mappings or labels are encoded) must leave
the reachable states, their order and hence these counts untouched; a
change that means to alter the search must update this table on
purpose.
"""

import pytest

from repro.session import Session
from repro.workloads.generators import automata_pair
from repro.workloads.scenarios import REGISTRY

#: The counters pinned per scenario (only those the procedure reports).
#: ``probe_trees`` counts the expansions the counterexample probe
#: tested and ``closure_tests`` the compositions the closure test
#: tested; a scenario a front decides reports no automata counters.
PINNED_KEYS = ("pairs", "profiles", "rounds", "live_b_states", "probe_trees",
               "closure_tests")

EXPECTED_COUNTS = {
    "bounded_buys": {"probe_trees": 0, "closure_tests": 4},
    "bounded_family_s5": {"probe_trees": 0, "closure_tests": 14},
    "bounded_widget": {"probe_trees": 0, "closure_tests": 4},
    "contain_alternating_trunc2": {"probe_trees": 3, "closure_tests": 0},
    "contain_chain_w1": {"probe_trees": 2, "closure_tests": 3},
    "contain_chain_w2": {"probe_trees": 2, "closure_tests": 3},
    "contain_sirup_s11_uncovered": {"probe_trees": 1, "closure_tests": 0},
    "contain_sirup_s7": {"probe_trees": 2, "closure_tests": 3},
    "contain_tc_trunc1": {"probe_trees": 2, "closure_tests": 0},
    "contain_tc_trunc2": {"probe_trees": 3, "closure_tests": 0},
    "contain_tc_trunc2_word": {"probe_trees": 3, "closure_tests": 0},
    "contain_tc_trunc3": {"probe_trees": 4, "closure_tests": 0},
    "equiv_bounded_family_s3": {"probe_trees": 7, "closure_tests": 7},
    "equiv_buys_bounded": {"probe_trees": 3, "closure_tests": 3},
    "equiv_buys_recursive": {"probe_trees": 3, "closure_tests": 0},
    "equiv_dist_mismatch": {"probe_trees": 1, "closure_tests": 0},
    "equiv_widget": {"probe_trees": 3, "closure_tests": 3},
    "unbounded_sirup_s9": {"probe_trees": 0, "closure_tests": 3},
    "unbounded_tc": {"probe_trees": 0, "closure_tests": 3},
}

#: The automata's counters on the two pairs no front decides.
AUTOMATA_COUNTS = {
    "word": {"pairs": 4, "probe_trees": 2, "closure_tests": 2},
    "tree": {"profiles": 36, "rounds": 2, "live_b_states": 234,
             "probe_trees": 2, "closure_tests": 3},
}


def test_pinned_set_is_every_light_decision_scenario():
    light = sorted(
        name for name, scenario in REGISTRY.items()
        if scenario.kind in ("containment", "equivalence", "boundedness")
        and not {"stress", "scale"} & set(scenario.tags)
    )
    assert light == sorted(EXPECTED_COUNTS)


def _pinned(stats):
    return {key: stats[key] for key in PINNED_KEYS if key in stats}


@pytest.mark.parametrize("name", sorted(EXPECTED_COUNTS))
def test_search_counts_are_pinned(name):
    decision = Session().run_scenario(name)
    assert decision.ok
    assert _pinned(decision.stats) == EXPECTED_COUNTS[name]


@pytest.mark.parametrize("pathway", sorted(AUTOMATA_COUNTS))
def test_automata_counts_are_pinned(pathway):
    decision = Session().contains(*automata_pair(pathway))
    assert decision.verdict == {"contained": True}
    assert _pinned(decision.stats) == AUTOMATA_COUNTS[pathway]
