"""Nondeterministic top-down automata on finite labeled trees (Section 4.2).

The definitions follow the paper: a tree automaton is a tuple
``(Sigma, S, S0, delta, F)`` where ``delta(s, a)`` is a finite set of
state tuples.  A run labels the root with an initial state and obeys
``delta`` downward; it is accepting when every leaf x admits a tuple in
``delta(r(x), label(x))`` all of whose states are accepting.

Internally the automata are *normalized* to the empty-tuple convention:
a leaf labeled ``a`` in state ``s`` is accepted iff ``() in
delta(s, a)``.  The paper-style constructor with accepting states F is
provided and normalization inserts ``()`` wherever a tuple over F
exists.  Normalization makes the product construction and the
containment search uniform.

Substrate results implemented here:

* Proposition 4.4 [Cos72]: union and intersection (polynomial),
  complement (bottom-up subset determinization, exponential).
* Proposition 4.5 [Do70, TW68]: nonemptiness by the bottom-up
  ``accept(A)`` fixpoint, in time linear in the transition table.
* Proposition 4.6 [Se90] workload: containment, decided by a bottom-up
  *profile* search with antichain pruning (exponential only in the
  right-hand automaton, and only on demand).

The hot loops (productivity fixpoint, profile propagation, antichain
subsumption) run on the bitset kernel of :mod:`repro.automata.kernel`:
states are interned to dense ids and profiles are int bitmasks, so
subset checks are single word operations.  A containment search that
finds no counterexample returns its final antichain as an
:class:`~repro.automata.kernel.Invariant`, which
:mod:`repro.core.certificate` checks independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from ..budget import check_deadline
from ..datalog.errors import ValidationError
from .kernel import BitAntichain, Interner, Invariant, thaw_witness

State = Hashable
Symbol = Hashable
TransitionTable = Dict[Tuple[State, Symbol], FrozenSet[Tuple[State, ...]]]


@dataclass(frozen=True)
class LabeledTree:
    """A finite ordered tree with a label at every node."""

    label: Symbol
    children: Tuple["LabeledTree", ...] = ()

    def __post_init__(self):
        if not isinstance(self.children, tuple):
            object.__setattr__(self, "children", tuple(self.children))

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def size(self) -> int:
        """Number of nodes (iterative: witness trees can be very deep)."""
        count = 0
        stack: List[LabeledTree] = [self]
        while stack:
            node = stack.pop()
            count += 1
            stack.extend(node.children)
        return count

    def depth(self) -> int:
        """Number of nodes on the longest root-to-leaf path."""
        deepest = 0
        stack: List[Tuple[LabeledTree, int]] = [(self, 1)]
        while stack:
            node, level = stack.pop()
            if level > deepest:
                deepest = level
            for child in node.children:
                stack.append((child, level + 1))
        return deepest

    def nodes(self):
        """Preorder traversal (iterative, recursion-safe)."""
        stack: List[LabeledTree] = [self]
        while stack:
            node = stack.pop()
            yield node
            for child in reversed(node.children):
                stack.append(child)

    def __str__(self):
        if not self.children:
            return str(self.label)
        inner = ", ".join(str(child) for child in self.children)
        return f"{self.label}[{inner}]"


def path_tree(labels: Sequence[Symbol]) -> LabeledTree:
    """The unary tree (word) with the given root-to-leaf labels."""
    if not labels:
        raise ValidationError("a tree needs at least one node")
    node = LabeledTree(labels[-1])
    for label in reversed(labels[:-1]):
        node = LabeledTree(label, (node,))
    return node


@dataclass(frozen=True)
class TreeAutomaton:
    """A normalized top-down nondeterministic tree automaton.

    ``transitions[(s, a)]`` is the set of child-state tuples available
    when reading label ``a`` in state ``s``; the empty tuple means "s
    accepts a leaf labeled a".

    Instances are frozen; derived structures (the by-symbol edge index
    and the productive-state set) are computed once and cached on the
    instance.
    """

    alphabet: FrozenSet[Symbol]
    states: FrozenSet[State]
    initial: FrozenSet[State]
    transitions: TransitionTable

    @classmethod
    def build(cls, alphabet: Iterable[Symbol], states: Iterable[State],
              initial: Iterable[State],
              transitions: Iterable[Tuple[State, Symbol, Tuple[State, ...]]],
              accepting: Iterable[State] = ()) -> "TreeAutomaton":
        """Construct from an edge list, normalizing the paper-style
        accepting-state convention into empty-tuple leaf transitions."""
        accepting = frozenset(accepting)
        table: Dict[Tuple[State, Symbol], Set[Tuple[State, ...]]] = {}
        for source, symbol, tuple_ in transitions:
            table.setdefault((source, symbol), set()).add(tuple(tuple_))
        if accepting:
            for key, tuples in list(table.items()):
                if any(tuple_ and set(tuple_) <= accepting for tuple_ in tuples):
                    tuples.add(())
        return cls(
            alphabet=frozenset(alphabet),
            states=frozenset(states),
            initial=frozenset(initial),
            transitions={key: frozenset(v) for key, v in table.items()},
        )

    def tuples(self, state: State, symbol: Symbol) -> FrozenSet[Tuple[State, ...]]:
        """delta(state, symbol)."""
        return self.transitions.get((state, symbol), frozenset())

    def edges_by_symbol(self) -> Dict[Symbol, List[Tuple[State, Tuple[State, ...]]]]:
        """``symbol -> [(state, child tuple)]`` index, cached on the
        (frozen) instance; preserves the transition-table iteration
        order so all pathways explore edges identically."""
        cached = self.__dict__.get("_by_symbol")
        if cached is not None:
            return cached
        by_symbol: Dict[Symbol, List[Tuple[State, Tuple[State, ...]]]] = {}
        for (state, symbol), tuples in self.transitions.items():
            bucket = by_symbol.setdefault(symbol, [])
            for tuple_ in tuples:
                bucket.append((state, tuple_))
        object.__setattr__(self, "_by_symbol", by_symbol)
        return by_symbol

    # ------------------------------------------------------------------
    # Acceptance.
    # ------------------------------------------------------------------

    def _accepting_states(self, tree: LabeledTree) -> FrozenSet[State]:
        """States from which the automaton accepts *tree*.

        Bottom-up, iterative (witness trees from the containment search
        can exceed the recursion limit), memoized over shared subtrees.
        """
        by_symbol = self.edges_by_symbol()
        # Memoized post-order walk (same discipline as thaw_witness):
        # witness trees share subtrees -- the searches below reuse chain
        # entries as children -- so each node is evaluated exactly once.
        memo: Dict[int, FrozenSet[State]] = {}
        stack: List[LabeledTree] = [tree]
        while stack:
            node = stack[-1]
            key = id(node)
            if key in memo:
                stack.pop()
                continue
            pending = [c for c in node.children if id(c) not in memo]
            if pending:
                stack.extend(pending)
                continue
            child_sets = [memo[id(child)] for child in node.children]
            arity = len(child_sets)
            result: Set[State] = set()
            for state, tuple_ in by_symbol.get(node.label, ()):
                if state in result or len(tuple_) != arity:
                    continue
                if all(q in child_set for q, child_set in zip(tuple_, child_sets)):
                    result.add(state)
            memo[key] = frozenset(result)
            stack.pop()
        return memo[id(tree)]

    def accepts(self, tree: LabeledTree) -> bool:
        """Membership of *tree* in T(A)."""
        return bool(self._accepting_states(tree) & self.initial)

    # ------------------------------------------------------------------
    # Proposition 4.5: nonemptiness.
    # ------------------------------------------------------------------

    def productive_states(self) -> FrozenSet[State]:
        """States that root an accepting run on some tree (the paper's
        ``accept(A)`` set), computed as a bottom-up fixpoint on
        interned state ids and an int bitmask.

        Cached on the (frozen) automaton: repeated ``is_empty()`` /
        ``find_tree()`` calls reuse the first computation.
        """
        cached = self.__dict__.get("_productive")
        if cached is not None:
            return cached
        interner = Interner()
        edges: List[Tuple[int, int]] = []  # (state id, needed-children mask)
        for (state, _symbol), tuples in self.transitions.items():
            sid = interner.intern(state)
            for tuple_ in tuples:
                need = 0
                for q in tuple_:
                    need |= 1 << interner.intern(q)
                edges.append((sid, need))
        productive = 0
        changed = True
        while changed:
            check_deadline()
            changed = False
            remaining: List[Tuple[int, int]] = []
            for sid, need in edges:
                if (productive >> sid) & 1:
                    continue
                if need & productive == need:
                    productive |= 1 << sid
                    changed = True
                else:
                    remaining.append((sid, need))
            edges = remaining
        result = interner.subset_of(productive)
        object.__setattr__(self, "_productive", result)
        return result

    def is_empty(self) -> bool:
        """True iff T(A) is empty (Proposition 4.5, polynomial time)."""
        return not (self.productive_states() & self.initial)

    def find_tree(self) -> Optional[LabeledTree]:
        """A smallest witness tree in T(A), or None when empty."""
        if self.is_empty():
            return None
        witness: Dict[State, LabeledTree] = {}
        changed = True
        while changed:
            check_deadline()
            changed = False
            for (state, symbol), tuples in self.transitions.items():
                if state in witness:
                    continue
                for tuple_ in tuples:
                    if all(q in witness for q in tuple_):
                        witness[state] = LabeledTree(
                            symbol, tuple(witness[q] for q in tuple_)
                        )
                        changed = True
                        break
        candidates = [witness[s] for s in self.initial if s in witness]
        if not candidates:
            return None
        return min(candidates, key=lambda tree: tree.size())

    # ------------------------------------------------------------------
    # Proposition 4.4: boolean operations.
    # ------------------------------------------------------------------

    def union(self, other: "TreeAutomaton") -> "TreeAutomaton":
        """T(A) | T(B); states are tagged to keep them disjoint."""
        table: Dict[Tuple[State, Symbol], Set[Tuple[State, ...]]] = {}
        for (state, symbol), tuples in self.transitions.items():
            table[((0, state), symbol)] = {tuple((0, q) for q in t) for t in tuples}
        for (state, symbol), tuples in other.transitions.items():
            table[((1, state), symbol)] = {tuple((1, q) for q in t) for t in tuples}
        return TreeAutomaton(
            alphabet=self.alphabet | other.alphabet,
            states=frozenset((0, s) for s in self.states)
            | frozenset((1, s) for s in other.states),
            initial=frozenset((0, s) for s in self.initial)
            | frozenset((1, s) for s in other.initial),
            transitions={key: frozenset(v) for key, v in table.items()},
        )

    def intersection(self, other: "TreeAutomaton") -> "TreeAutomaton":
        """T(A) & T(B) by the product construction (polynomial)."""
        table: Dict[Tuple[State, Symbol], Set[Tuple[State, ...]]] = {}
        states: Set[State] = set()
        frontier: List[Tuple[State, State]] = [
            (a, b) for a in self.initial for b in other.initial
        ]
        initial = frozenset(frontier)
        states.update(frontier)
        while frontier:
            check_deadline()
            a, b = frontier.pop()
            for symbol in self.alphabet & other.alphabet:
                combos: Set[Tuple[State, ...]] = set()
                for ta in self.tuples(a, symbol):
                    for tb in other.tuples(b, symbol):
                        if len(ta) != len(tb):
                            continue
                        combo = tuple(zip(ta, tb))
                        combos.add(combo)
                        for pair in combo:
                            if pair not in states:
                                states.add(pair)
                                frontier.append(pair)
                if combos:
                    table[((a, b), symbol)] = combos
        return TreeAutomaton(
            alphabet=self.alphabet & other.alphabet,
            states=frozenset(states),
            initial=initial,
            transitions={key: frozenset(v) for key, v in table.items()},
        )

    def size(self) -> Tuple[int, int]:
        """(number of states, number of transition tuples)."""
        tuples = sum(len(v) for v in self.transitions.values())
        return (len(self.states), tuples)

    def enumerate_trees(self, max_depth: int,
                        limit: Optional[int] = None) -> List[LabeledTree]:
        """All accepted trees of depth <= max_depth (up to *limit*).

        Exponential; used by tests to compare small tree languages.
        """

        def from_state(state: State, depth: int) -> List[LabeledTree]:
            results: List[LabeledTree] = []
            for (source, symbol), tuples in sorted(
                self.transitions.items(), key=lambda item: repr(item[0])
            ):
                if source != state:
                    continue
                for tuple_ in sorted(tuples, key=repr):
                    if not tuple_:
                        results.append(LabeledTree(symbol))
                        continue
                    if depth <= 1:
                        continue
                    child_options = [from_state(q, depth - 1) for q in tuple_]
                    if any(not options for options in child_options):
                        continue
                    combos: List[Tuple[LabeledTree, ...]] = [()]
                    for options in child_options:
                        combos = [prefix + (t,) for prefix in combos for t in options]
                    results.extend(LabeledTree(symbol, combo) for combo in combos)
            return results

        seen: Set[str] = set()
        found: List[LabeledTree] = []
        for state in sorted(self.initial, key=repr):
            for tree in from_state(state, max_depth):
                key = str(tree)
                if key not in seen:
                    seen.add(key)
                    found.append(tree)
                    if limit is not None and len(found) >= limit:
                        return found
        return found


# ----------------------------------------------------------------------
# Complementation (Proposition 4.4, exponential direction).
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BottomUpDeterministic:
    """The deterministic bottom-up subset automaton of a top-down NTA.

    The state reached on a tree t is exactly the set of NTA states that
    accept t; acceptance requires that set to meet the NTA's initial
    states.  ``complemented`` flips acceptance, yielding the complement
    language without changing the transition structure.
    """

    source: TreeAutomaton
    complemented: bool = False

    def state_of(self, tree: LabeledTree) -> FrozenSet[State]:
        """The subset state reached bottom-up on *tree*."""
        return self.source._accepting_states(tree)

    def accepts(self, tree: LabeledTree) -> bool:
        hit = bool(self.state_of(tree) & self.source.initial)
        return hit != self.complemented

    def complement(self) -> "BottomUpDeterministic":
        return BottomUpDeterministic(self.source, not self.complemented)

    def reachable_subsets(self, max_subsets: Optional[int] = None) -> FrozenSet[FrozenSet[State]]:
        """All subset states reachable on some tree (the materialized
        determinization).  Exponential; *max_subsets* guards runaways.

        Subsets live as int masks and are thawed to frozensets only in
        the returned value.
        """
        interner = Interner()
        # (symbol, arity) -> [(state id, child-id tuple)]
        edges: Dict[Tuple[Symbol, int], List[Tuple[int, Tuple[int, ...]]]] = {}
        for (state, symbol), tuples in self.source.transitions.items():
            sid = interner.intern(state)
            for tuple_ in tuples:
                childs = tuple(interner.intern(q) for q in tuple_)
                edges.setdefault((symbol, len(tuple_)), []).append((sid, childs))

        subsets: Set[int] = set()
        changed = True
        while changed:
            check_deadline()
            changed = False
            for (symbol, arity), bucket in edges.items():
                pool = sorted(subsets)
                combos: List[Tuple[int, ...]] = [()]
                for _ in range(arity):
                    combos = [prefix + (u,) for prefix in combos for u in pool]
                for combo in combos:
                    target = 0
                    for sid, childs in bucket:
                        if (target >> sid) & 1:
                            continue
                        for q, u in zip(childs, combo):
                            if not (u >> q) & 1:
                                break
                        else:
                            target |= 1 << sid
                    if target not in subsets:
                        subsets.add(target)
                        changed = True
                        if max_subsets is not None and len(subsets) > max_subsets:
                            raise ValidationError(
                                "subset construction exceeded "
                                f"{max_subsets} states"
                            )
        return frozenset(interner.subset_of(mask) for mask in subsets)


def complement(automaton: TreeAutomaton) -> BottomUpDeterministic:
    """The complement of T(A) as a deterministic bottom-up automaton."""
    return BottomUpDeterministic(automaton).complement()


# ----------------------------------------------------------------------
# Proposition 4.6 workload: containment via bottom-up profiles.
# ----------------------------------------------------------------------

def find_counterexample_tree(left: TreeAutomaton, right: TreeAutomaton,
                             use_antichain: bool = True) -> Optional[LabeledTree]:
    """A tree in T(left) - T(right), or None when contained."""
    return search_tree_inclusion(left, right, use_antichain)[0]


def _thaw_witness(node: Tuple) -> LabeledTree:
    """Build the LabeledTree of a lazy ``(symbol, children)`` witness."""
    return thaw_witness(node, LabeledTree)


def search_tree_inclusion(left: TreeAutomaton, right: TreeAutomaton,
                          use_antichain: bool = True,
                          ) -> Tuple[Optional[LabeledTree], Optional[Invariant]]:
    """Decide T(left) subseteq T(right): ``(counterexample, None)`` or
    ``(None, invariant)``.

    Works bottom-up over *profiles* ``(p, U)``: p is a left state that
    accepts some witness tree t and U is the exact set of right states
    accepting the same t.  A profile with p initial-in-left and U
    disjoint from right's initial states yields a counterexample.  With
    ``use_antichain`` profiles dominated by a subset profile are pruned
    (sound because the profile successor map is monotone in U); without
    it the full exact profile space is explored (ablation mode).  When
    no counterexample exists, the final profiles are the
    :class:`~repro.automata.kernel.Invariant` that proves it.
    """
    by_symbol_left = left.edges_by_symbol()
    interner = Interner()
    # (symbol, arity) -> [(state bit, child-id tuple)]
    right_edges: Dict[Tuple[Symbol, int], List[Tuple[int, Tuple[int, ...]]]] = {}
    for (state, symbol), tuples in right.transitions.items():
        bit = 1 << interner.intern(state)
        for tuple_ in tuples:
            childs = tuple(interner.intern(q) for q in tuple_)
            right_edges.setdefault((symbol, len(tuple_)), []).append((bit, childs))
    right_initial = interner.mask_of(right.initial)
    left_initial = left.initial

    profile_cache: Dict[Tuple[Symbol, Tuple[int, ...]], int] = {}

    def right_profile(symbol: Symbol, child_masks: Tuple[int, ...]) -> int:
        key = (symbol, child_masks)
        cached = profile_cache.get(key)
        if cached is not None:
            return cached
        mask = 0
        for bit, childs in right_edges.get((symbol, len(child_masks)), ()):
            if mask & bit:
                continue
            for q, u in zip(childs, child_masks):
                if not (u >> q) & 1:
                    break
            else:
                mask |= bit
        profile_cache[key] = mask
        return mask

    chains = BitAntichain()
    seen_exact: Set[Tuple[State, int]] = set()

    changed = True
    while changed:
        check_deadline()
        changed = False
        for symbol, edges in by_symbol_left.items():
            for state, tuple_ in edges:
                if tuple_:
                    options = [chains.items(q) for q in tuple_]
                    if any(not opts for opts in options):
                        continue
                    combos: List[Tuple[Tuple[int, Tuple], ...]] = [()]
                    for opts in options:
                        combos = [prefix + (entry,) for prefix in combos for entry in opts]
                else:
                    combos = [()]
                for combo in combos:
                    child_masks = tuple(entry[0] for entry in combo)
                    subset = right_profile(symbol, child_masks)
                    witness = (symbol, tuple(entry[1] for entry in combo))
                    if state in left_initial and not (subset & right_initial):
                        return _thaw_witness(witness), None
                    if use_antichain:
                        if chains.insert(state, subset, witness):
                            changed = True
                    else:
                        key = (state, subset)
                        if key not in seen_exact:
                            seen_exact.add(key)
                            chains.append(state, subset, witness)
                            changed = True
    return None, Invariant("automata", chains._chains, interner, (left, right))


def contained_in(left: TreeAutomaton, right: TreeAutomaton,
                 use_antichain: bool = True) -> bool:
    """T(left) subseteq T(right) (Proposition 4.6 workload)."""
    return find_counterexample_tree(left, right, use_antichain) is None


def contained_in_union(left: TreeAutomaton,
                       rights: Sequence[TreeAutomaton]) -> bool:
    """T(left) subseteq union of T(right_i)."""
    if not rights:
        return left.is_empty()
    combined = rights[0]
    for automaton in rights[1:]:
        combined = combined.union(automaton)
    return contained_in(left, combined)


def equivalent(left: TreeAutomaton, right: TreeAutomaton) -> bool:
    """Language equality via mutual containment."""
    return contained_in(left, right) and contained_in(right, left)
