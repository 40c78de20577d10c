"""The paper's contribution (Sections 5 and 6): containment of
recursive Datalog programs in unions of conjunctive queries, and
equivalence to nonrecursive programs, via proof-tree automata."""

from ..lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".boundedness": "BoundednessResult bounded_at_depth decide_boundedness"
                    " search_boundedness",
    ".certificate": "CertificateError check_certificate check_closure"
                    " check_invariant witness_refutes",
    ".containment": "contained_in_cq contained_in_nonrecursive"
                    " contained_in_ucq counterexample_database"
                    " cq_contained_in_datalog"
                    " nonrecursive_contained_in_datalog"
                    " ucq_contained_in_datalog",
    ".cq_automaton": "CQAutomaton CQState",
    ".equivalence": "EquivalenceResult equivalent_to_ucq"
                    " is_equivalent_to_nonrecursive",
    ".materialize": "materialize_cq_automaton theorem_5_11_via_substrate",
    ".instances": "InstanceEnumerator Label clear_shared_caches",
    ".ptree_automaton": "PTreeAutomaton labeled_tree_to_proof_tree"
                        " proof_tree_to_labeled_tree",
    ".tree_containment": "ContainmentResult datalog_contained_in_ucq",
    ".word_path": "datalog_contained_in_ucq_linear is_chain_program"
                  " to_chain_form",
})

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
    "check_certificate",
    "check_closure",
    "check_invariant",
    "clear_shared_caches",
    "contained_in_cq",
    "contained_in_nonrecursive",
    "contained_in_ucq",
    "counterexample_database",
    "cq_contained_in_datalog",
    "datalog_contained_in_ucq",
    "datalog_contained_in_ucq_linear",
    "decide_boundedness",
    "equivalent_to_ucq",
    "is_chain_program",
    "is_equivalent_to_nonrecursive",
    "labeled_tree_to_proof_tree",
    "materialize_cq_automaton",
    "nonrecursive_contained_in_datalog",
    "proof_tree_to_labeled_tree",
    "search_boundedness",
    "theorem_5_11_via_substrate",
    "to_chain_form",
    "ucq_contained_in_datalog",
    "witness_refutes",
]
