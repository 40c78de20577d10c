"""Scenario workloads: generated program/EDB families with known
ground truth, and the named-scenario registry the batch runner, the
benchmark suite, and CI all draw from.

See :mod:`repro.workloads.generators` for the families and
:mod:`repro.workloads.scenarios` for the catalogue;
``docs/BENCHMARKS.md`` is the user-facing reference.

    >>> from repro.workloads import scenario_names
    >>> len(scenario_names()) >= 12
    True
"""

from .generators import (
    alternating_recursion,
    bounded_program,
    bounded_rewriting,
    bounded_unbounded_pairs,
    chain_edges,
    covering_union,
    edges_database,
    grid_edges,
    guarded_chain,
    power_law_edges,
    random_graph_edges,
    random_program,
    reachable_from,
    reachable_pairs,
    road_network_edges,
    same_depth_pair_count,
    same_depth_pairs,
    single_source_reach,
    sirup,
    sirup_covering_union,
    star_edges,
    tree_edges,
    tree_updown_database,
    two_hop_pairs,
    two_hop_program,
    unbounded_program,
)
from .scenarios import (
    DECISION_KINDS,
    KINDS,
    LazyExpected,
    REGISTRY,
    Scenario,
    get_scenario,
    register,
    rows_checksum,
    run_scenario,
    scenario_names,
)
from . import stress  # noqa: F401,E402  (registers the tag:stress tier)

__all__ = [
    "DECISION_KINDS",
    "KINDS",
    "LazyExpected",
    "REGISTRY",
    "Scenario",
    "alternating_recursion",
    "bounded_program",
    "bounded_rewriting",
    "bounded_unbounded_pairs",
    "chain_edges",
    "covering_union",
    "edges_database",
    "get_scenario",
    "grid_edges",
    "guarded_chain",
    "power_law_edges",
    "random_graph_edges",
    "random_program",
    "reachable_from",
    "reachable_pairs",
    "register",
    "road_network_edges",
    "rows_checksum",
    "run_scenario",
    "same_depth_pair_count",
    "same_depth_pairs",
    "scenario_names",
    "single_source_reach",
    "sirup",
    "sirup_covering_union",
    "star_edges",
    "tree_edges",
    "tree_updown_database",
    "two_hop_pairs",
    "two_hop_program",
    "unbounded_program",
]
