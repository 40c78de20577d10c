"""Automata substrate (Section 4 of the paper).

Word automata (Propositions 4.1-4.3) and top-down tree automata
(Propositions 4.4-4.6) with boolean operations, emptiness, and
containment; containment is decided by antichain searches that avoid
materializing the exponential subset constructions.
"""

from ..lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".kernel": "BitAntichain Interner Invariant",
    ".word": "NFA nfa_contained_in=contained_in"
             " nfa_contained_in_union=contained_in_union"
             " nfa_contained_in_via_complement=contained_in_via_complement"
             " enumerate_words find_counterexample_word"
             " nfa_equivalent=equivalent",
    ".tree": "BottomUpDeterministic LabeledTree TreeAutomaton complement"
             " find_counterexample_tree path_tree search_tree_inclusion"
             " tree_contained_in=contained_in"
             " tree_contained_in_union=contained_in_union"
             " tree_equivalent=equivalent",
})

__all__ = [
    "BitAntichain",
    "BottomUpDeterministic",
    "Interner",
    "Invariant",
    "LabeledTree",
    "NFA",
    "TreeAutomaton",
    "complement",
    "enumerate_words",
    "find_counterexample_tree",
    "find_counterexample_word",
    "nfa_contained_in",
    "nfa_contained_in_union",
    "nfa_contained_in_via_complement",
    "nfa_equivalent",
    "path_tree",
    "search_tree_inclusion",
    "tree_contained_in",
    "tree_contained_in_union",
    "tree_equivalent",
]
