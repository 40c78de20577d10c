"""The word-automaton pathway for linear programs (Theorem 5.12,
EXPSPACE case).

When every rule of Pi has at most one IDB atom in its body ("chain
form"), every proof tree is a path: the sequence of node labels from
the root to the unique leaf is a word, and ``ptrees(Q, Pi)`` is a
regular *word* language.  Containment in a union of conjunctive
queries then reduces to word-automaton containment, decidable in
polynomial space in the automata (Proposition 4.3) -- exponential
space in the input overall.

A linear program in the paper's sense (at most one *recursive*
subgoal) may still have several IDB body atoms; :func:`to_chain_form`
removes non-recursive IDB subgoals by inlining their (finitely many)
expansions, after which the word pathway applies.  The inlining can
blow up the program; the tree pathway never needs it.

The search is the forward antichain of Proposition 4.3: pairs
``(goal atom, V)`` where V is the set of union-automaton states
reachable on the path so far; a path ending in an all-EDB label with
no accepting V-member is a counterexample.  When none exists, the
final antichain is returned as an
:class:`~repro.automata.kernel.Invariant` for
:mod:`repro.core.certificate` to check.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..automata.kernel import Interner, Invariant
from ..budget import check_deadline
from ..cq.query import UnionOfConjunctiveQueries
from ..datalog.analysis import is_linear, recursive_body_atoms, recursive_predicates
from ..datalog.atoms import Atom
from ..datalog.errors import NotLinearError
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.terms import FreshVariableFactory
from ..datalog.unfold import unfold_nonrecursive
from ..datalog.unify import apply_to_atom, apply_to_atoms, unify_tuples
from ..trees.expansion import ExpansionTree
from .cq_automaton import CQAutomaton, CQState, shared_cq_automaton
from .instances import Label
from .ptree_automaton import PTreeAutomaton, shared_ptree_automaton
from .tree_containment import ContainmentResult


def is_chain_program(program: Program) -> bool:
    """True when every rule body has at most one IDB atom."""
    return all(len(program.idb_atoms_of(rule)) <= 1 for rule in program.rules)


def to_chain_form(program: Program, goal: str) -> Program:
    """Inline non-recursive IDB subgoals of a *linear* program so that
    every rule has at most one IDB body atom.

    Raises :class:`NotLinearError` when the program is not linear (then
    no chain form exists).  May enlarge the program exponentially.
    """
    if not is_linear(program):
        raise NotLinearError("only linear programs admit a chain form")
    recursive = recursive_predicates(program)
    factory = FreshVariableFactory(prefix="C")
    rules: List[Rule] = []
    for rule in program.rules:
        recursive_positions = set(recursive_body_atoms(program, rule))
        # Partial bodies: (substitution, atoms) where non-recursive IDB
        # atoms have been replaced by their unfoldings.
        states: List[Tuple[dict, Tuple[Atom, ...]]] = [({}, ())]
        for position, atom in enumerate(rule.body):
            if atom.predicate not in program.idb_predicates or position in recursive_positions:
                states = [(subst, atoms + (atom,)) for subst, atoms in states]
                continue
            expansions = unfold_nonrecursive(
                _slice_without_goal(program, atom.predicate), atom.predicate
            )
            next_states: List[Tuple[dict, Tuple[Atom, ...]]] = []
            for subst, atoms in states:
                call = apply_to_atom(atom, subst)
                for expansion in expansions:
                    mapping = {
                        v: factory.fresh()
                        for v in sorted(expansion.variables, key=lambda v: v.name)
                    }
                    renamed = expansion.substitute(mapping)
                    unified = unify_tuples(renamed.head.args, call.args, subst)
                    if unified is None:
                        continue
                    next_states.append((unified, atoms + renamed.body))
            states = next_states
        for subst, atoms in states:
            rules.append(
                Rule(apply_to_atom(rule.head, subst), apply_to_atoms(atoms, subst))
            )
    chained = Program(rules)
    # Rules for now-unreachable non-recursive IDB predicates are kept
    # only if the goal still depends on them.
    from ..datalog.analysis import slice_for_goal

    return slice_for_goal(chained, goal)


def _slice_without_goal(program: Program, predicate: str) -> Program:
    from ..datalog.analysis import slice_for_goal

    return slice_for_goal(program, predicate)


def datalog_contained_in_ucq_linear(program: Program, goal: str,
                                    union: UnionOfConjunctiveQueries,
                                    use_antichain: bool = True) -> ContainmentResult:
    """Containment for chain-form programs via word automata.

    Raises :class:`NotLinearError` when some rule has more than one IDB
    body atom (use :func:`to_chain_form` first, or the tree pathway).
    """
    if not is_chain_program(program):
        raise NotLinearError(
            "word pathway requires chain form (at most one IDB atom per body); "
            "call to_chain_form() or use the tree pathway"
        )
    ptrees = shared_ptree_automaton(program, goal)
    automata = [shared_cq_automaton(program, goal, theta) for theta in union]
    return _linear_search_bitset(ptrees, automata, use_antichain)


def _linear_search_bitset(ptrees: PTreeAutomaton,
                          automata: List[CQAutomaton],
                          use_antichain: bool) -> ContainmentResult:
    """The forward antichain on the bitset kernel: B-states are
    interned to dense ids as discovered, V subsets are int masks, and
    per-(B-state, label) successor masks / leaf verdicts are memoized
    (the search revisits the same states under many different V's)."""
    interner = Interner()

    def initial_v(root: Atom) -> int:
        mask = 0
        for index, automaton in enumerate(automata):
            state = automaton.initial_state(root)
            if state is not None:
                mask |= 1 << interner.intern((index, state))
        return mask

    succ_masks: Dict[Tuple[int, Label], int] = {}
    leaf_accepts: Dict[Tuple[int, Label], bool] = {}

    chains: Dict[Atom, List[int]] = {}
    stats = {"pairs": 0, "ptree_states": 0}

    def insert(atom: Atom, mask: int) -> bool:
        chain = chains.get(atom)
        if chain is None:
            chains[atom] = [mask]
            return True
        if use_antichain:
            for known in chain:
                if known & mask == known:
                    return False
            chain[:] = [known for known in chain if mask & known != mask]
        elif mask in chain:
            return False
        chain.append(mask)
        return True

    frontier: List[Tuple[Atom, int, Tuple[Label, ...]]] = []
    for root in ptrees.initial_atoms():
        mask = initial_v(root)
        if insert(root, mask):
            frontier.append((root, mask, ()))

    while frontier:
        check_deadline()
        atom, mask, path = frontier.pop()
        stats["pairs"] += 1
        for label in ptrees.enumerator.labels_for(atom):
            check_deadline()
            if label.is_leaf():
                accepted = False
                remaining = mask
                while remaining:
                    low = remaining & -remaining
                    remaining ^= low
                    bid = low.bit_length() - 1
                    key = (bid, label)
                    verdict = leaf_accepts.get(key)
                    if verdict is None:
                        index, state = interner.object_of(bid)
                        verdict = automata[index].accepts_leaf(state, label)
                        leaf_accepts[key] = verdict
                    if verdict:
                        accepted = True
                        break
                if not accepted:
                    witness = _path_to_tree(path + (label,))
                    stats["ptree_states"] = len(chains)
                    return ContainmentResult(False, witness, stats)
                continue
            if len(label.idb_atoms) != 1:
                raise NotLinearError(f"non-chain label {label} encountered")
            child = label.idb_atoms[0]
            next_mask = 0
            remaining = mask
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                bid = low.bit_length() - 1
                key = (bid, label)
                succ = succ_masks.get(key)
                if succ is None:
                    index, state = interner.object_of(bid)
                    succ = 0
                    for children in automata[index].successors_cached(state, label):
                        succ |= 1 << interner.intern((index, children[0]))
                    succ_masks[key] = succ
                next_mask |= succ
            if insert(child, next_mask):
                frontier.append((child, next_mask, path + (label,)))
    stats["ptree_states"] = len(chains)
    return ContainmentResult(True, None, stats,
                             Invariant("word", chains, interner, (ptrees, automata)))


def _path_to_tree(path: Tuple[Label, ...]) -> ExpansionTree:
    """Rebuild the (path-shaped) proof tree from its label word."""
    node: Optional[ExpansionTree] = None
    for label in reversed(path):
        children = (node,) if node is not None and not label.is_leaf() else ()
        node = ExpansionTree(label.atom, label.rule, children)
    assert node is not None
    return node
