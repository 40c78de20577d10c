"""The decision searches explore a pinned search space.

Every decision scenario outside ``tag:stress`` and ``tag:scale`` runs
on a fresh :class:`~repro.session.Session`, and its search counters in
``Decision.stats`` must equal the values recorded here.  A change to
the query automaton's representation (how states, mappings or labels
are encoded) must leave the reachable states, their order and hence
these counts untouched; a change that means to alter the search must
update this table on purpose.
"""

import pytest

from repro.session import Session
from repro.workloads.scenarios import REGISTRY

#: The counters pinned per scenario (only those the procedure reports).
#: ``probe_trees`` counts the expansions the counterexample probe
#: tested; a scenario the probe decides reports no automata counters.
PINNED_KEYS = ("pairs", "profiles", "rounds", "live_b_states", "probe_trees")

EXPECTED_COUNTS = {
    "bounded_buys": {"probe_trees": 5},
    "bounded_family_s5": {"probe_trees": 15},
    "bounded_widget": {"probe_trees": 5},
    "contain_alternating_trunc2": {"probe_trees": 3},
    "contain_chain_w1": {"pairs": 4, "probe_trees": 2},
    "contain_chain_w2": {"pairs": 4, "probe_trees": 2},
    "contain_sirup_s11_uncovered": {"probe_trees": 1},
    "contain_sirup_s7": {"pairs": 4, "probe_trees": 2},
    "contain_tc_trunc1": {"probe_trees": 2},
    "contain_tc_trunc2": {"probe_trees": 3},
    "contain_tc_trunc2_word": {"probe_trees": 3},
    "contain_tc_trunc3": {"probe_trees": 4},
    "equiv_bounded_family_s3": {"pairs": 6, "probe_trees": 7},
    "equiv_buys_bounded": {"pairs": 4, "probe_trees": 3},
    "equiv_buys_recursive": {"probe_trees": 3},
    "equiv_dist_mismatch": {"probe_trees": 1},
    "equiv_widget": {"pairs": 4, "probe_trees": 3},
    "unbounded_sirup_s9": {"probe_trees": 9},
    "unbounded_tc": {"probe_trees": 9},
}


def test_pinned_set_is_every_light_decision_scenario():
    light = sorted(
        name for name, scenario in REGISTRY.items()
        if scenario.kind in ("containment", "equivalence", "boundedness")
        and not {"stress", "scale"} & set(scenario.tags)
    )
    assert light == sorted(EXPECTED_COUNTS)


@pytest.mark.parametrize("name", sorted(EXPECTED_COUNTS))
def test_search_counts_are_pinned(name):
    decision = Session().run_scenario(name)
    assert decision.ok
    counts = {key: decision.stats[key] for key in PINNED_KEYS
              if key in decision.stats}
    assert counts == EXPECTED_COUNTS[name]
