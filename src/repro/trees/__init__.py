"""Expansion trees, proof trees, and strong containment mappings
(Sections 2.3 and 5.1 of the paper)."""

from ..lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".expansion": "ExpansionTree expansion_queries unfolding_trees",
    ".proof": "OccurrenceClasses is_proof_tree proof_tree_to_expansion_tree"
              " proof_trees var_space varnum",
    ".render": "render_figure render_tree",
    ".strong": "brute_force_contained find_strong_containment_mapping"
               " has_strong_containment_mapping ucq_covers_proof_tree",
})

__all__ = [
    "ExpansionTree",
    "OccurrenceClasses",
    "brute_force_contained",
    "expansion_queries",
    "find_strong_containment_mapping",
    "has_strong_containment_mapping",
    "is_proof_tree",
    "proof_tree_to_expansion_tree",
    "proof_trees",
    "render_figure",
    "render_tree",
    "ucq_covers_proof_tree",
    "unfolding_trees",
    "var_space",
    "varnum",
]
