"""The bitset automaton kernel: interned states and bitmask subsets.

Every decision procedure in this codebase -- tree-automaton
containment (Proposition 4.6), the proof-tree profile fixpoint
(Theorem 5.12) and the linear word pathway (the subset search of
Proposition 4.3) -- spends its time manipulating *subsets of a finite
state space*: profiles, antichain entries, subset-construction states.
This module provides the shared representation that makes those loops
cheap:

* :class:`Interner` assigns each state a dense integer id on first
  sight, so a subset becomes a Python ``int`` bitmask and subset
  inclusion becomes ``small & large == small`` -- one machine-word
  operation per 64 states instead of a per-element hash probe;
* :class:`BitAntichain` keeps per-key antichains of minimal bitmasks
  with arbitrary witness payloads (the pruning structure of the
  containment searches);
* :class:`Invariant` is what a search that finds no counterexample
  hands back: its final antichain, checked independently by
  :mod:`repro.core.certificate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Tuple


def thaw_witness(node: Tuple, build) -> object:
    """Materialize a lazy ``(tag, children)`` witness DAG bottom-up.

    The containment searches keep witnesses as plain 2-tuples during
    the search and only build real tree nodes -- via ``build(tag,
    children)`` -- for a returned counterexample.  The walk is
    iterative (witnesses can be deeper than the recursion limit) and
    memoized on node identity, so shared sub-witnesses become shared
    subtrees.
    """
    memo: Dict[int, object] = {}
    stack: List[Tuple] = [node]
    while stack:
        current = stack[-1]
        if id(current) in memo:
            stack.pop()
            continue
        tag, children = current
        pending = [child for child in children if id(child) not in memo]
        if pending:
            stack.extend(pending)
            continue
        memo[id(current)] = build(
            tag, tuple(memo[id(child)] for child in children)
        )
        stack.pop()
    return memo[id(node)]


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of *mask*, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Interner:
    """Dense integer ids for hashable objects, with bitmask helpers.

    Ids are assigned in first-intern order and never change, so a
    bitmask built at any point stays valid as more objects are
    interned (bits only ever get *added* to the universe).
    """

    __slots__ = ("_ids", "_objects")

    def __init__(self, items: Iterable[Hashable] = ()):
        self._ids: Dict[Hashable, int] = {}
        self._objects: List[Hashable] = []
        for item in items:
            self.intern(item)

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, obj: Hashable) -> bool:
        return obj in self._ids

    def intern(self, obj: Hashable) -> int:
        """The id of *obj*, assigning the next free id on first sight."""
        ident = self._ids.get(obj)
        if ident is None:
            ident = len(self._objects)
            self._ids[obj] = ident
            self._objects.append(obj)
        return ident

    def id_of(self, obj: Hashable) -> int:
        """The id of an already-interned object (KeyError otherwise)."""
        return self._ids[obj]

    def object_of(self, ident: int) -> Hashable:
        return self._objects[ident]

    def mask_of(self, objs: Iterable[Hashable]) -> int:
        """The bitmask of a collection of objects (interning them)."""
        mask = 0
        for obj in objs:
            mask |= 1 << self.intern(obj)
        return mask

    def members(self, mask: int) -> List[Hashable]:
        """The objects whose bits are set in *mask*, by ascending id."""
        objects = self._objects
        return [objects[i] for i in iter_bits(mask)]

    def subset_of(self, mask: int) -> frozenset:
        """The frozenset view of a bitmask."""
        return frozenset(self.members(mask))


class BitAntichain:
    """Per-key antichains of minimal bitmasks with witness payloads.

    An entry ``(mask, payload)`` is kept only while no other entry's
    mask is a subset of it.  Subset tests are single ``&``/``==``
    operations on ints.
    """

    __slots__ = ("_chains",)

    def __init__(self):
        self._chains: Dict[Hashable, List[Tuple[int, object]]] = {}

    def dominated(self, key: Hashable, mask: int) -> bool:
        """Is some kept mask for *key* a subset of *mask*?"""
        return any(
            known & mask == known for known, _ in self._chains.get(key, ())
        )

    def insert(self, key: Hashable, mask: int, payload: object) -> bool:
        """Insert unless dominated; evict entries the new mask
        dominates.  Returns True when the entry was genuinely new."""
        chain = self._chains.get(key)
        if chain is None:
            self._chains[key] = [(mask, payload)]
            return True
        for known, _ in chain:
            if known & mask == known:
                return False
        chain[:] = [
            (known, p) for known, p in chain if mask & known != mask
        ]
        chain.append((mask, payload))
        return True

    def append(self, key: Hashable, mask: int, payload: object) -> None:
        """Append without domination pruning (exact / ablation mode --
        the caller handles its own dedup)."""
        self._chains.setdefault(key, []).append((mask, payload))

    def items(self, key: Hashable) -> List[Tuple[int, object]]:
        return list(self._chains.get(key, ()))

    def keys(self):
        return list(self._chains.keys())

    def total(self) -> int:
        return sum(len(chain) for chain in self._chains.values())


@dataclass(frozen=True)
class Invariant:
    """The final antichain of a containment search that found no
    counterexample: the certificate of a positive verdict.

    ``chains`` maps each left-hand state (a state of the left tree
    automaton, or a goal atom of the proof-tree automaton) to the
    search's own chain of entries, each an int mask over ``interner``
    or a tuple whose first item is one; ``automata`` holds the automata
    the search ran on.  Nothing is decoded on the search path: only
    :mod:`repro.core.certificate` reads an invariant, through
    :meth:`entries`.  ``pathway`` names the check that applies:
    ``"tree"`` or ``"word"`` for the Datalog containment searches,
    ``"automata"`` for the generic tree-automaton search.  The word
    pathway's chains hold one canonical goal atom per orbit of
    ``var(Pi)`` renamings; the checker expands the orbits.
    """

    pathway: str
    chains: Dict[Hashable, list]
    interner: Interner
    automata: Tuple

    def entries(self, key: Hashable) -> List[FrozenSet]:
        """The certified subsets at *key*, decoded to state objects."""
        return [
            self.interner.subset_of(entry if isinstance(entry, int) else entry[0])
            for entry in self.chains.get(key, ())
        ]
