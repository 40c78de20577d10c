"""Automata substrate (Section 4 of the paper).

Word automata (Propositions 4.1-4.3) and top-down tree automata
(Propositions 4.4-4.6) with boolean operations, emptiness, and
containment; containment is decided by antichain searches that avoid
materializing the exponential subset constructions.
"""

from .kernel import (
    BitAntichain,
    Interner,
    Invariant,
)
from .word import NFA
from .word import contained_in as nfa_contained_in
from .word import contained_in_union as nfa_contained_in_union
from .word import contained_in_via_complement as nfa_contained_in_via_complement
from .word import enumerate_words, find_counterexample_word
from .word import equivalent as nfa_equivalent
from .tree import (
    BottomUpDeterministic,
    LabeledTree,
    TreeAutomaton,
    complement,
    find_counterexample_tree,
    path_tree,
    search_tree_inclusion,
)
from .tree import contained_in as tree_contained_in
from .tree import contained_in_union as tree_contained_in_union
from .tree import equivalent as tree_equivalent

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
