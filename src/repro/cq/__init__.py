"""Conjunctive queries: representation, homomorphisms, containment.

Implements Section 2.2 of the paper (containment mappings,
Theorem 2.2, and the Sagiv-Yannakakis union theorem 2.3) together with
canonical databases, direct evaluation, and minimization (cores).
"""

from ..lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".canonical": "canonical_database evaluate_cq evaluate_ucq"
                  " freeze_variable",
    ".containment": "cq_contained_in cq_contained_in_ucq cq_equivalent"
                    " minimal_union ucq_contained_in ucq_equivalent",
    ".homomorphism": "containment_mapping find_homomorphism",
    ".minimize": "is_minimal minimize",
    ".query": "UCQ ConjunctiveQuery UnionOfConjunctiveQueries",
})

__all__ = [
    "ConjunctiveQuery",
    "UCQ",
    "UnionOfConjunctiveQueries",
    "canonical_database",
    "containment_mapping",
    "cq_contained_in",
    "cq_contained_in_ucq",
    "cq_equivalent",
    "evaluate_cq",
    "evaluate_ucq",
    "find_homomorphism",
    "freeze_variable",
    "is_minimal",
    "minimal_union",
    "minimize",
    "ucq_contained_in",
    "ucq_equivalent",
]
