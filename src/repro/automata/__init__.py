"""Automata substrate (Section 4 of the paper).

Top-down tree automata (Propositions 4.4-4.6) with boolean
operations, emptiness and containment, decided by an antichain search
that avoids materializing the exponential subset construction, on the
shared bitset kernel.  The word automata of Propositions 4.1-4.3 have
no library of their own: the linear word pathway
(:mod:`repro.core.word_path`) runs its subset search on the kernel.
"""

from ..lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".kernel": "BitAntichain Interner Invariant",
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
    "TreeAutomaton",
    "complement",
    "find_counterexample_tree",
    "path_tree",
    "search_tree_inclusion",
    "tree_contained_in",
    "tree_contained_in_union",
    "tree_equivalent",
]
