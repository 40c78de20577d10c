"""The paper's contribution (Sections 5 and 6): containment of
recursive Datalog programs in unions of conjunctive queries, and
equivalence to nonrecursive programs, via proof-tree automata."""

from .boundedness import (
    BoundednessResult,
    bounded_at_depth,
    decide_boundedness,
    search_boundedness,
)
from .certificate import CertificateError, check_invariant, witness_refutes
from .containment import (
    contained_in_cq,
    contained_in_nonrecursive,
    contained_in_ucq,
    counterexample_database,
    cq_contained_in_datalog,
    nonrecursive_contained_in_datalog,
    ucq_contained_in_datalog,
)
from .cq_automaton import CQAutomaton, CQState
from .equivalence import (
    EquivalenceResult,
    equivalent_to_ucq,
    is_equivalent_to_nonrecursive,
)
from .materialize import (
    materialize_cq_automaton,
    materialize_fixpoint,
    theorem_5_11_via_substrate,
)
from .instances import (
    InstanceEnumerator,
    Label,
    clear_shared_caches,
    warm_shared_caches,
)
from .ptree_automaton import (
    PTreeAutomaton,
    labeled_tree_to_proof_tree,
    proof_tree_to_labeled_tree,
)
from .tree_containment import (
    ContainmentResult,
    datalog_contained_in_cq,
    datalog_contained_in_ucq,
)
from .word_path import (
    datalog_contained_in_ucq_linear,
    is_chain_program,
    to_chain_form,
)

__all__ = [
    "BoundednessResult",
    "CQAutomaton",
    "CQState",
    "CertificateError",
    "ContainmentResult",
    "EquivalenceResult",
    "InstanceEnumerator",
    "Label",
    "PTreeAutomaton",
    "bounded_at_depth",
    "check_invariant",
    "clear_shared_caches",
    "contained_in_cq",
    "contained_in_nonrecursive",
    "contained_in_ucq",
    "counterexample_database",
    "cq_contained_in_datalog",
    "datalog_contained_in_cq",
    "datalog_contained_in_ucq",
    "datalog_contained_in_ucq_linear",
    "decide_boundedness",
    "equivalent_to_ucq",
    "is_chain_program",
    "is_equivalent_to_nonrecursive",
    "labeled_tree_to_proof_tree",
    "materialize_cq_automaton",
    "materialize_fixpoint",
    "nonrecursive_contained_in_datalog",
    "proof_tree_to_labeled_tree",
    "search_boundedness",
    "theorem_5_11_via_substrate",
    "to_chain_form",
    "ucq_contained_in_datalog",
    "warm_shared_caches",
    "witness_refutes",
]
