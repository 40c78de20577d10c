"""Deciding ``Pi contained-in union of theta_i`` (Theorems 5.11/5.12).

By Theorem 5.11, containment holds iff

    T(A^ptrees(Q, Pi))  subseteq  union_i T(A^theta_i(Q, Pi)).

Both automata are exponential in the input, so this module never
materializes them.  The tree-automaton containment is decided by a
bottom-up *profile* fixpoint:

* first the union automaton ``B = disjoint-union A^theta_i`` is closed
  forward (top-down) from its start states, yielding the finite set of
  live B-states and a per-state transition table;
* then profiles ``(goal atom, U)`` are derived bottom-up, where U is
  the exact set of live B-states accepting the witness proof tree
  rooted at that goal atom.  A profile whose goal atom is a start state
  of A^ptrees and whose U misses every start state of B certifies
  non-containment, and its witness proof tree is returned.

Antichain pruning keeps only minimal U per goal atom: the profile
successor map is monotone in U and the failure condition is downward
closed, so pruning preserves completeness (ablation: ``use_antichain``).

The fixpoint runs on the bitset kernel: live B-states are interned to
dense ids after the forward closure, every U is an int bitmask, the
per-``(goal atom, label)`` successor structure is compiled to id tuples
once, and profile images are memoized per child profile combination.
When no counterexample exists, the final profiles are returned as an
:class:`~repro.automata.kernel.Invariant` that
:mod:`repro.core.certificate` checks without the search's memo or
round scheduler.

This procedure realizes the doubly exponential upper bound of
Theorem 5.12; the matching lower bound (Section 5.3) shows the blowup
is unavoidable in general.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..automata.kernel import Interner, Invariant, thaw_witness
from ..budget import check_deadline
from ..cq.query import UnionOfConjunctiveQueries
from ..datalog.atoms import Atom
from ..datalog.program import Program
from ..trees.expansion import ExpansionTree
from .cq_automaton import CQState, shared_cq_automaton
from .instances import Label
from .ptree_automaton import PTreeAutomaton, shared_ptree_automaton

BState = Tuple[int, CQState]  # (disjunct index, CQ-automaton state)


@dataclass
class ContainmentResult:
    """Outcome of a containment decision.

    ``contained`` is the verdict; when False, ``witness`` is a proof
    tree in ptrees(Q, Pi) admitting no strong containment mapping from
    any disjunct (Theorem 5.8's certificate) -- or, when the
    counterexample probe decided, the unfolding tree (Definition 2.4)
    of an expansion no disjunct contains.  When True, ``invariant`` is
    the search's final antichain, the certificate that
    :func:`repro.core.certificate.check_invariant` verifies, or
    ``closure`` the closure test's, which ``check_closure`` verifies.
    ``stats`` carries search metrics and ``timings`` their seconds.
    """

    contained: bool
    witness: Optional[ExpansionTree] = None
    stats: Dict[str, int] = field(default_factory=dict)
    invariant: Optional[Invariant] = field(default=None, repr=False,
                                           compare=False)
    closure: Optional[Tuple] = field(default=None, repr=False, compare=False)
    timings: Dict[str, float] = field(default_factory=dict, repr=False,
                                      compare=False)

    def __bool__(self):
        return self.contained


class _UnionAutomaton:
    """The disjoint union of the per-disjunct query automata, closed
    forward from its start states and cached per (state, label)."""

    def __init__(self, program: Program, goal: str,
                 union: UnionOfConjunctiveQueries):
        self.automata = [shared_cq_automaton(program, goal, theta) for theta in union]
        self._successors: Dict[Tuple[BState, Label], Tuple[Tuple[BState, ...], ...]] = {}
        self._by_atom: Dict[Atom, List[BState]] = {}
        self._known: Set[BState] = set()

    def initial_states(self, root_atom: Atom) -> Tuple[BState, ...]:
        states = []
        for index, automaton in enumerate(self.automata):
            state = automaton.initial_state(root_atom)
            if state is not None:
                states.append((index, state))
        return tuple(states)

    def register(self, state: BState) -> None:
        if state not in self._known:
            self._known.add(state)
            self._by_atom.setdefault(state[1].atom, []).append(state)

    def states_for_atom(self, atom: Atom) -> List[BState]:
        return self._by_atom.get(atom, [])

    def successors(self, state: BState, label: Label) -> Tuple[Tuple[BState, ...], ...]:
        key = (state, label)
        cached = self._successors.get(key)
        if cached is not None:
            return cached
        index, cq_state = state
        tuples = tuple(
            tuple((index, child) for child in children)
            for children in self.automata[index].successors_cached(cq_state, label)
        )
        self._successors[key] = tuples
        for children in tuples:
            for child in children:
                self.register(child)
        return tuples

    def close(self, ptrees: PTreeAutomaton) -> None:
        """Forward (top-down) closure of the live B-state space over
        every label reachable in the proof-tree automaton."""
        frontier: List[BState] = []
        for atom in ptrees.initial_atoms():
            for state in self.initial_states(atom):
                if state not in self._known:
                    self.register(state)
                    frontier.append(state)
        processed: Set[BState] = set()
        while frontier:
            check_deadline()
            state = frontier.pop()
            if state in processed:
                continue
            processed.add(state)
            for label in ptrees.enumerator.labels_for(state[1].atom):
                for children in self.successors(state, label):
                    for child in children:
                        if child not in processed:
                            frontier.append(child)

    def live_count(self) -> int:
        return len(self._known)


def datalog_contained_in_ucq(program: Program, goal: str,
                             union: UnionOfConjunctiveQueries,
                             use_antichain: bool = True) -> ContainmentResult:
    """Decide ``Q_Pi(D) subseteq union(D)`` for all D (Theorem 5.12).

    Complete and sound for arbitrary (recursive) programs; runs in time
    doubly exponential in the input in the worst case.
    """
    ptrees = shared_ptree_automaton(program, goal)
    bunion = _UnionAutomaton(program, goal, union)
    bunion.close(ptrees)
    return _profile_search_bitset(ptrees, bunion, goal, use_antichain)


def _base_stats(ptrees: PTreeAutomaton, bunion: _UnionAutomaton,
                goal_transitions: Sequence) -> Dict[str, int]:
    return {
        "live_b_states": bunion.live_count(),
        "ptree_states": len(ptrees.reachable_goal_atoms()),
        "ptree_transitions": len(goal_transitions),
        "rounds": 0,
        "profiles": 0,
    }


def _thaw_expansion(node: Tuple) -> ExpansionTree:
    """Build the ExpansionTree of a lazy ``(label, children)`` witness."""
    return thaw_witness(
        node, lambda label, children: ExpansionTree(label.atom, label.rule, children)
    )


def _profile_search_bitset(ptrees: PTreeAutomaton, bunion: _UnionAutomaton,
                           goal: str, use_antichain: bool) -> ContainmentResult:
    goal_transitions = ptrees.transitions_list()
    stats = _base_stats(ptrees, bunion, goal_transitions)

    interner = Interner()

    # Per-(goal atom, label) successor structure compiled to dense ids:
    # [(B-state bit, (child-id tuple, ...))], plus the profile-image
    # memo keyed by the child profile masks.
    succ_index: Dict[Tuple[Atom, Label], Tuple[List[Tuple[int, Tuple[Tuple[int, ...], ...]]], Dict]] = {}

    def edges_for(atom: Atom, label: Label):
        key = (atom, label)
        cached = succ_index.get(key)
        if cached is None:
            edges: List[Tuple[int, Tuple[Tuple[int, ...], ...]]] = []
            for q in bunion.states_for_atom(atom):
                tuples = bunion.successors(q, label)
                edges.append((
                    1 << interner.intern(q),
                    tuple(
                        tuple(interner.intern(child) for child in children)
                        for children in tuples
                    ),
                ))
            cached = (edges, {})
            succ_index[key] = cached
        return cached

    def accepting_mask(atom: Atom, label: Label,
                       child_masks: Tuple[int, ...]) -> int:
        edges, memo = edges_for(atom, label)
        cached = memo.get(child_masks)
        if cached is not None:
            return cached
        mask = 0
        for bit, id_tuples in edges:
            if mask & bit:
                continue
            for childs in id_tuples:
                for cid, u in zip(childs, child_masks):
                    if not (u >> cid) & 1:
                        break
                else:
                    mask |= bit
                    break
        memo[child_masks] = mask
        return mask

    initial_masks: Dict[Atom, int] = {}

    def is_counterexample(atom: Atom, mask: int) -> bool:
        if atom.predicate != goal:
            return False
        initial = initial_masks.get(atom)
        if initial is None:
            initial = 0
            for q in bunion.initial_states(atom):
                initial |= 1 << interner.intern(q)
            initial_masks[atom] = initial
        return not (mask & initial)

    # Per-goal-atom chains of (U mask, lazy witness, generation).
    chains: Dict[Atom, List[Tuple[int, Tuple, int]]] = {}

    def insert(atom: Atom, mask: int, witness: Tuple, generation: int) -> bool:
        chain = chains.get(atom)
        if chain is None:
            chains[atom] = [(mask, witness, generation)]
            return True
        if use_antichain:
            for known, _, _ in chain:
                if known & mask == known:
                    return False
            chain[:] = [entry for entry in chain if mask & entry[0] != mask]
        else:
            for known, _, _ in chain:
                if known == mask:
                    return False
        chain.append((mask, witness, generation))
        return True

    generation = 0
    while True:
        check_deadline()
        generation += 1
        stats["rounds"] = generation
        changed = False
        for atom, label, children in goal_transitions:
            check_deadline()
            if children:
                options = [chains.get(child, ()) for child in children]
                if any(not opts for opts in options):
                    continue
                combos = _fresh_combos(options, generation)
            else:
                combos = [()] if generation == 1 else []
            for combo in combos:
                child_masks = tuple(entry[0] for entry in combo)
                witness = (label, tuple(entry[1] for entry in combo))
                mask = accepting_mask(atom, label, child_masks)
                if is_counterexample(atom, mask):
                    stats["profiles"] = sum(len(c) for c in chains.values())
                    return ContainmentResult(False, _thaw_expansion(witness), stats)
                if insert(atom, mask, witness, generation):
                    changed = True
        if not changed:
            break
    stats["profiles"] = sum(len(c) for c in chains.values())
    return ContainmentResult(True, None, stats,
                             Invariant("tree", chains, interner, (ptrees, bunion)))


def _fresh_combos(options: List[List[Tuple]], generation: int) -> Iterator[Tuple]:
    """Combinations of child profiles containing at least one profile
    from the previous generation (semi-naive round evaluation)."""
    previous = generation - 1
    for pivot in range(len(options)):
        before = [
            [entry for entry in opts if entry[2] < previous]
            for opts in options[:pivot]
        ]
        at = [entry for entry in options[pivot] if entry[2] == previous]
        after = [list(opts) for opts in options[pivot + 1 :]]
        pools = before + [at] + after
        if any(not pool for pool in pools):
            continue
        combo: List[Tuple] = []

        def walk(position: int):
            if position == len(pools):
                yield tuple(combo)
                return
            for entry in pools[position]:
                combo.append(entry)
                yield from walk(position + 1)
                combo.pop()

        yield from walk(0)
