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
PINNED_KEYS = ("pairs", "profiles", "rounds", "live_b_states")

EXPECTED_COUNTS = {
    "bounded_buys": {},
    "bounded_family_s5": {},
    "bounded_widget": {},
    "contain_alternating_trunc2": {"pairs": 3},
    "contain_chain_w1": {"pairs": 4},
    "contain_chain_w2": {"pairs": 4},
    "contain_sirup_s11_uncovered": {"pairs": 1},
    "contain_sirup_s7": {"pairs": 4},
    "contain_tc_trunc1": {"pairs": 2},
    "contain_tc_trunc2": {"pairs": 3},
    "contain_tc_trunc2_word": {"pairs": 3},
    "contain_tc_trunc3": {"pairs": 4},
    "equiv_bounded_family_s3": {"pairs": 6},
    "equiv_buys_bounded": {"pairs": 4},
    "equiv_buys_recursive": {"pairs": 3},
    "equiv_dist_mismatch": {"profiles": 73, "rounds": 3, "live_b_states": 804},
    "equiv_widget": {"pairs": 4},
    "unbounded_sirup_s9": {},
    "unbounded_tc": {},
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
