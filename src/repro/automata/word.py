"""Nondeterministic finite automata on words (Section 4.1).

Implements the substrate results quoted by the paper:

* Proposition 4.1 [RS59]: closure under union, intersection (product,
  polynomial) and complement (subset construction, exponential).
* Proposition 4.2 [Jo75, RS59]: nonemptiness via reachability.
* Proposition 4.3 [MS72]: containment (PSPACE-complete); decided here
  both by the classical complement-and-intersect route and by a forward
  antichain search that avoids materializing the subset automaton.

States may be arbitrary hashable objects; symbols likewise.

The subset-heavy procedures (determinization and the antichain
containment search) run on the bitset kernel of
:mod:`repro.automata.kernel`: right-hand states interned to dense ids,
subsets as int bitmasks, per-(state, symbol) successor masks memoized.
The complement-and-intersect route is the independent oracle for the
antichain search.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from ..budget import check_deadline
from .kernel import Interner

State = Hashable
Symbol = Hashable


@dataclass(frozen=True)
class NFA:
    """A nondeterministic finite automaton ``(Sigma, S, S0, delta, F)``."""

    alphabet: FrozenSet[Symbol]
    states: FrozenSet[State]
    initial: FrozenSet[State]
    accepting: FrozenSet[State]
    transitions: Dict[Tuple[State, Symbol], FrozenSet[State]]

    @classmethod
    def build(cls, alphabet: Iterable[Symbol], states: Iterable[State],
              initial: Iterable[State], accepting: Iterable[State],
              transitions: Iterable[Tuple[State, Symbol, State]]) -> "NFA":
        """Construct from an edge list ``(state, symbol, successor)``."""
        table: Dict[Tuple[State, Symbol], Set[State]] = {}
        for source, symbol, target in transitions:
            table.setdefault((source, symbol), set()).add(target)
        return cls(
            alphabet=frozenset(alphabet),
            states=frozenset(states),
            initial=frozenset(initial),
            accepting=frozenset(accepting),
            transitions={key: frozenset(targets) for key, targets in table.items()},
        )

    def successors(self, state: State, symbol: Symbol) -> FrozenSet[State]:
        """delta(state, symbol)."""
        return self.transitions.get((state, symbol), frozenset())

    def step(self, subset: FrozenSet[State], symbol: Symbol) -> FrozenSet[State]:
        """Image of a state set under one symbol."""
        result: Set[State] = set()
        for state in subset:
            result.update(self.successors(state, symbol))
        return frozenset(result)

    def accepts(self, word: Sequence[Symbol]) -> bool:
        """Membership of *word* in L(A) (on-the-fly subset simulation)."""
        current = frozenset(self.initial)
        for symbol in word:
            current = self.step(current, symbol)
            if not current:
                return False
        return bool(current & self.accepting)

    # ------------------------------------------------------------------
    # Proposition 4.2: nonemptiness via graph reachability.
    # ------------------------------------------------------------------

    def reachable_states(self) -> FrozenSet[State]:
        """States reachable from some initial state."""
        seen: Set[State] = set(self.initial)
        frontier: List[State] = list(self.initial)
        while frontier:
            check_deadline()
            state = frontier.pop()
            for (source, _symbol), targets in self.transitions.items():
                if source != state:
                    continue
                for target in targets:
                    if target not in seen:
                        seen.add(target)
                        frontier.append(target)
        return frozenset(seen)

    def is_empty(self) -> bool:
        """True iff L(A) is empty (no accepting state is reachable)."""
        return not (self.reachable_states() & self.accepting)

    def find_word(self) -> Optional[List[Symbol]]:
        """A shortest accepted word, or None when the language is empty."""
        if self.initial & self.accepting:
            return []
        parents: Dict[State, Tuple[Optional[State], Optional[Symbol]]] = {
            state: (None, None) for state in self.initial
        }
        frontier: List[State] = list(self.initial)
        while frontier:
            check_deadline()
            next_frontier: List[State] = []
            for state in frontier:
                for (source, symbol), targets in self.transitions.items():
                    if source != state:
                        continue
                    for target in targets:
                        if target in parents:
                            continue
                        parents[target] = (state, symbol)
                        if target in self.accepting:
                            word: List[Symbol] = []
                            node: Optional[State] = target
                            while node is not None:
                                parent, via = parents[node]
                                if via is not None:
                                    word.append(via)
                                node = parent
                            word.reverse()
                            return word
                        next_frontier.append(target)
            frontier = next_frontier
        return None

    # ------------------------------------------------------------------
    # Proposition 4.1: boolean operations.
    # ------------------------------------------------------------------

    def union(self, other: "NFA") -> "NFA":
        """L(A) | L(B); states are tagged to keep them disjoint."""
        def tag(which, state):
            return (which, state)

        transitions: Dict[Tuple[State, Symbol], FrozenSet[State]] = {}
        for (source, symbol), targets in self.transitions.items():
            transitions[(tag(0, source), symbol)] = frozenset(tag(0, t) for t in targets)
        for (source, symbol), targets in other.transitions.items():
            transitions[(tag(1, source), symbol)] = frozenset(tag(1, t) for t in targets)
        return NFA(
            alphabet=self.alphabet | other.alphabet,
            states=frozenset(tag(0, s) for s in self.states)
            | frozenset(tag(1, s) for s in other.states),
            initial=frozenset(tag(0, s) for s in self.initial)
            | frozenset(tag(1, s) for s in other.initial),
            accepting=frozenset(tag(0, s) for s in self.accepting)
            | frozenset(tag(1, s) for s in other.accepting),
            transitions=transitions,
        )

    def intersection(self, other: "NFA") -> "NFA":
        """L(A) & L(B) by the product construction (polynomial)."""
        alphabet = self.alphabet & other.alphabet
        transitions: Dict[Tuple[State, Symbol], Set[State]] = {}
        states: Set[State] = set()
        frontier: List[Tuple[State, State]] = []
        initial = frozenset(
            (a, b) for a in self.initial for b in other.initial
        )
        states.update(initial)
        frontier.extend(initial)
        while frontier:
            check_deadline()
            pair = frontier.pop()
            a, b = pair
            for symbol in alphabet:
                targets = {
                    (ta, tb)
                    for ta in self.successors(a, symbol)
                    for tb in other.successors(b, symbol)
                }
                if not targets:
                    continue
                transitions[(pair, symbol)] = targets
                for target in targets:
                    if target not in states:
                        states.add(target)
                        frontier.append(target)
        return NFA(
            alphabet=alphabet,
            states=frozenset(states),
            initial=initial,
            accepting=frozenset(
                (a, b) for (a, b) in states if a in self.accepting and b in other.accepting
            ),
            transitions={k: frozenset(v) for k, v in transitions.items()},
        )

    def successor_masks(self, interner: Interner) -> Dict[Tuple[int, Symbol], int]:
        """``(state id, symbol) -> successor bitmask`` over *interner*
        (which is extended with any states it has not seen)."""
        table: Dict[Tuple[int, Symbol], int] = {}
        for (source, symbol), targets in self.transitions.items():
            table[(interner.intern(source), symbol)] = interner.mask_of(targets)
        return table

    def determinize(self) -> "NFA":
        """An equivalent deterministic automaton (subset construction).

        Only subsets reachable from the initial subset are built; the
        empty subset acts as an explicit sink so the result is complete
        over the alphabet (required for complementation).  The
        construction runs on int masks and thaws them to the public
        frozenset states at the end.
        """
        interner = Interner()
        successors = self.successor_masks(interner)
        start = interner.mask_of(self.initial)
        accepting_mask = interner.mask_of(self.accepting)
        subsets: Set[int] = {start}
        frontier: List[int] = [start]
        mask_transitions: Dict[Tuple[int, Symbol], int] = {}
        while frontier:
            check_deadline()
            mask = frontier.pop()
            remaining = mask
            images: Dict[Symbol, int] = {symbol: 0 for symbol in self.alphabet}
            while remaining:
                low = remaining & -remaining
                sid = low.bit_length() - 1
                remaining ^= low
                for symbol in self.alphabet:
                    succ = successors.get((sid, symbol))
                    if succ:
                        images[symbol] |= succ
            for symbol, target in images.items():
                mask_transitions[(mask, symbol)] = target
                if target not in subsets:
                    subsets.add(target)
                    frontier.append(target)
        thawed: Dict[int, FrozenSet[State]] = {
            mask: interner.subset_of(mask) for mask in subsets
        }
        return NFA(
            alphabet=self.alphabet,
            states=frozenset(thawed.values()),
            initial=frozenset([thawed[start]]),
            accepting=frozenset(
                thawed[mask] for mask in subsets if mask & accepting_mask
            ),
            transitions={
                (thawed[mask], symbol): frozenset([thawed[target]])
                for (mask, symbol), target in mask_transitions.items()
            },
        )

    def complement(self) -> "NFA":
        """Sigma* - L(A) (exponential blowup in the worst case [MF71])."""
        deterministic = self.determinize()
        return NFA(
            alphabet=deterministic.alphabet,
            states=deterministic.states,
            initial=deterministic.initial,
            accepting=deterministic.states - deterministic.accepting,
            transitions=deterministic.transitions,
        )

    def size(self) -> Tuple[int, int]:
        """(number of states, number of transition edges)."""
        edges = sum(len(targets) for targets in self.transitions.values())
        return (len(self.states), edges)


# ----------------------------------------------------------------------
# Proposition 4.3: containment.
# ----------------------------------------------------------------------

def contained_in_via_complement(left: NFA, right: NFA) -> bool:
    """L(left) subseteq L(right) by complementation and product.

    Exercised by the ablation benchmarks; exponential in |right|.
    Symbols of *left* outside *right*'s alphabet witness trivial
    non-containment when usable on an accepting path.
    """
    extra = left.alphabet - right.alphabet
    if extra:
        # Complete right's alphabet: those symbols lead nowhere in right.
        right = NFA(
            alphabet=right.alphabet | extra,
            states=right.states,
            initial=right.initial,
            accepting=right.accepting,
            transitions=right.transitions,
        )
    return left.intersection(right.complement()).is_empty()


def contained_in(left: NFA, right: NFA) -> bool:
    """L(left) subseteq L(right) by forward antichain search.

    Explores pairs ``(p, V)`` where p is a *left* state reachable on
    some word w and V the exact subset of *right* states reachable on
    w.  A pair with p accepting and V disjoint from right's accepting
    states witnesses non-containment.  Pairs whose V is a superset of
    an already-seen V for the same p are pruned (their successors can
    only be larger, hence harder to turn into counterexamples).
    """
    return find_counterexample_word(left, right) is None


def find_counterexample_word(left: NFA, right: NFA) -> Optional[List[Symbol]]:
    """A word in L(left) - L(right), or None when contained."""
    interner = Interner()
    successors = right.successor_masks(interner)
    start_v = interner.mask_of(right.initial)
    accepting_mask = interner.mask_of(right.accepting)
    left_accepting = left.accepting

    step_cache: Dict[Tuple[int, Symbol], int] = {}

    def step(mask: int, symbol: Symbol) -> int:
        key = (mask, symbol)
        cached = step_cache.get(key)
        if cached is not None:
            return cached
        image = 0
        remaining = mask
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            succ = successors.get((low.bit_length() - 1, symbol))
            if succ:
                image |= succ
        step_cache[key] = image
        return image

    antichains: Dict[State, List[int]] = {}

    def dominated(state: State, mask: int) -> bool:
        return any(known & mask == known for known in antichains.get(state, ()))

    def insert(state: State, mask: int) -> None:
        chain = antichains.setdefault(state, [])
        chain[:] = [known for known in chain if mask & known != mask]
        chain.append(mask)

    frontier: deque = deque()
    for p in left.initial:
        if p in left_accepting and not (start_v & accepting_mask):
            return []
        insert(p, start_v)
        frontier.append((p, start_v, []))

    while frontier:
        check_deadline()
        p, v, word = frontier.popleft()
        for symbol in left.alphabet:
            next_v = step(v, symbol)
            for q in left.successors(p, symbol):
                if dominated(q, next_v):
                    continue
                next_word = word + [symbol]
                if q in left_accepting and not (next_v & accepting_mask):
                    return next_word
                insert(q, next_v)
                frontier.append((q, next_v, next_word))
    return None


def contained_in_union(left: NFA, rights: Sequence[NFA]) -> bool:
    """L(left) subseteq union of the rights (pairwise union, then antichain)."""
    if not rights:
        return left.is_empty()
    combined = rights[0]
    for automaton in rights[1:]:
        combined = combined.union(automaton)
    return contained_in(left, combined)


def equivalent(left: NFA, right: NFA) -> bool:
    """Language equality via mutual containment."""
    return contained_in(left, right) and contained_in(right, left)


def enumerate_words(automaton: NFA, max_length: int,
                    limit: Optional[int] = None) -> List[Tuple[Symbol, ...]]:
    """All accepted words of length <= max_length (up to *limit*).

    Used by tests to compare languages of small automata directly.
    """
    found: List[Tuple[Symbol, ...]] = []
    alphabet = sorted(automaton.alphabet, key=repr)
    frontier: List[Tuple[Tuple[Symbol, ...], FrozenSet[State]]] = [
        ((), frozenset(automaton.initial))
    ]
    while frontier:
        check_deadline()
        word, subset = frontier.pop(0)
        if subset & automaton.accepting:
            found.append(word)
            if limit is not None and len(found) >= limit:
                return found
        if len(word) >= max_length:
            continue
        for symbol in alphabet:
            target = automaton.step(subset, symbol)
            if target:
                frontier.append((word + (symbol,), target))
    return found
