"""The query automaton ``A^theta(Q, Pi)`` of Proposition 5.10.

``A^theta`` runs on proof trees and accepts exactly those admitting a
strong containment mapping from the conjunctive query theta
(Definition 5.4).  A state is a triple

    (goal atom, beta, M)

where *beta* is the set of theta-atoms not yet mapped into the tree and
*M* is a partial mapping from theta's variables into the term space
recording the images committed so far.  Reading a node label
``(alpha, rho)``:

1. some subset beta' of beta is mapped into the EDB atoms of rho's
   body, consistently with M (producing M1 = M + images);
2. the remaining atoms are partitioned among the node's IDB children,
   subject to the paper's side conditions: a variable of an unmapped
   atom that is already in the domain of the mapping must have its
   image among the arguments of every child atom it is sent through
   (condition 4), and two children may share a variable only when the
   variable is mapped and its image occurs in both child atoms
   (condition 3) -- which forces the automaton to *guess* images for
   unmapped variables split across children;
3. a leaf label requires beta to be mapped away entirely.

The state space is exponential in |Pi| + |theta|; the class is lazy and
only materializes states reachable during the containment search.

Implementation notes (docs/THEORY.md, "Implementation notes"): M is
restricted to the variables still occurring in unmapped atoms, which
merges states with identical future behaviour.  States are integers
inside: beta is a bitmask over theta's body indices and M a tuple of
per-automaton term ids, one slot per theta variable in name order.
Each label is compiled once into per-atom candidate bindings and
per-child term masks, so conditions 3 and 4 are mask tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterator, List, Optional, Tuple

from ..budget import check_deadline
from ..context import current_scope
from ..cq.query import ConjunctiveQuery
from ..datalog.atoms import Atom
from ..datalog.errors import ValidationError
from ..datalog.program import Program
from ..datalog.terms import Term, Variable, is_variable
from .instances import Label

#: The ``mapping`` entry of a variable with no image.
UNMAPPED = -1

#: A compiled label: per theta atom, its bindings (slot-sorted ``(slot,
#: term id)`` tuples); per IDB child ``(atom id, atom, term-id mask)``.
Compiled = Tuple[Tuple[Tuple[Tuple[Tuple[int, int], ...], ...], ...],
                 Tuple[Tuple[int, Atom, int], ...]]


@dataclass(frozen=True)
class CQState:
    """A state ``(goal atom, unmapped theta-atoms, partial mapping)``.

    ``beta`` is a bitmask over indices into the query's body (bit i set
    while atom i is unmapped; index-based so that repeated atoms in
    theta are tracked as distinct obligations).  ``mapping`` has one
    entry per theta variable, in name order: the owning automaton's id
    of the variable's image (:meth:`CQAutomaton.term`), or ``-1``.

    States are extremely hot, so the class is slotted and its hash is
    cached.  :class:`CQAutomaton` hash-conses its states on an all-int
    key, so identical states are the *same* object and equality
    short-circuits on identity inside dict/set probes.
    """

    __slots__ = ("atom", "beta", "mapping", "_hash")

    atom: Atom
    beta: int
    mapping: Tuple[int, ...]

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            value = hash((self.atom, self.beta, self.mapping))
            object.__setattr__(self, "_hash", value)
            return value


class CQAutomaton:
    """Lazy ``A^theta(Q, Pi)`` for one conjunctive query theta."""

    def __init__(self, program: Program, goal: str, theta: ConjunctiveQuery):
        program.require_goal(goal)
        for atom in theta.body:
            if atom.predicate in program.idb_predicates:
                raise ValidationError(
                    f"containment query atom {atom} uses IDB predicate "
                    f"{atom.predicate!r}; queries must be over EDB predicates"
                )
        if theta.arity != program.arity[goal]:
            raise ValidationError(
                f"query arity {theta.arity} differs from goal arity "
                f"{program.arity[goal]}"
            )
        self.program = program
        self.goal = goal
        self.theta = theta
        self._atoms: Tuple[Atom, ...] = tuple(theta.body)
        # Dense ids for image terms and goal atoms, in first-seen order.
        self._term_ids: Dict[Term, int] = {}
        self._terms: List[Term] = []
        self._atom_ids: Dict[Atom, int] = {}
        # Mapping slots: theta's body variables in name order.
        self._vars: Tuple[Variable, ...] = tuple(sorted(
            {v for atom in self._atoms for v in atom.variables()},
            key=lambda v: v.name,
        ))
        slot_of = {v: k for k, v in enumerate(self._vars)}
        # Per theta atom: its slot mask, and its match pattern --
        # (slot, position) of each variable, (position, earlier position)
        # of each repeated variable, (position, term id) of each constant.
        self._atom_masks: List[int] = []
        self._patterns: List[Tuple[Tuple, Tuple, Tuple]] = []
        self._by_key: Dict[Tuple[str, int], List[int]] = {}
        for index, atom in enumerate(self._atoms):
            first: Dict[Variable, int] = {}
            same, fixed = [], []
            for position, term in enumerate(atom.args):
                if not is_variable(term):
                    fixed.append((position, self._term_id(term)))
                elif term in first:
                    same.append((position, first[term]))
                else:
                    first[term] = position
            binds = tuple(sorted((slot_of[v], p) for v, p in first.items()))
            self._atom_masks.append(sum(1 << slot for slot, _ in binds))
            self._patterns.append((binds, tuple(same), tuple(fixed)))
            self._by_key.setdefault((atom.predicate, atom.arity), []).append(index)
        # Hash-consed states and memoized per-(state, label) successor
        # tuples: every decision procedure above this layer re-asks the
        # same questions, so both caches are shared automaton-wide.
        self._state_intern: Dict[Tuple[int, int, Tuple[int, ...]], CQState] = {}
        self._successor_cache: Dict[Tuple[CQState, Label], Tuple[Tuple[CQState, ...], ...]] = {}
        # Compiled labels and per-beta live-slot flags; the enumerator
        # reuses label objects, so both amortize globally.
        self._label_cache: Dict[Label, Compiled] = {}
        self._live_cache: Dict[int, Tuple[bool, ...]] = {}

    def term(self, term_id: int) -> Term:
        """The image term behind a ``mapping`` entry."""
        return self._terms[term_id]

    def _term_id(self, term: Term) -> int:
        term_id = self._term_ids.get(term)
        if term_id is None:
            term_id = self._term_ids[term] = len(self._terms)
            self._terms.append(term)
        return term_id

    def _compile(self, label: Label) -> Compiled:
        """Candidate bindings of every theta atom into the label's EDB
        atoms (theta constants and repeated variables checked here,
        once), and the label's children with their term masks."""
        bindings: List[List[Tuple[Tuple[int, int], ...]]] = [[] for _ in self._atoms]
        for target in label.edb_atoms:
            indices = self._by_key.get((target.predicate, target.arity))
            if indices is None:
                continue
            ids = [self._term_id(term) for term in target.args]
            for index in indices:
                binds, same, fixed = self._patterns[index]
                if ((same and any(ids[p] != ids[q] for p, q in same))
                        or (fixed and any(ids[p] != c for p, c in fixed))):
                    continue
                option = tuple([(slot, ids[p]) for slot, p in binds])
                if option not in bindings[index]:
                    bindings[index].append(option)
        children = tuple(
            (self._atom_ids.setdefault(child, len(self._atom_ids)), child,
             sum({1 << self._term_id(term) for term in child.args}))
            for child in label.idb_atoms
        )
        return tuple(map(tuple, bindings)), children

    def _make_state(self, atom_id: int, atom: Atom, beta: int,
                    mapping) -> CQState:
        """The canonical (hash-consed) state, *mapping* restricted to
        the variables live in *beta*."""
        live = self._live_cache.get(beta)
        if live is None:
            mask = 0
            for index, atom_mask in enumerate(self._atom_masks):
                if beta >> index & 1:
                    mask |= atom_mask
            live = tuple(bool(mask >> k & 1) for k in range(len(self._vars)))
            self._live_cache[beta] = live
        mapping = tuple([m if keep else UNMAPPED for m, keep in zip(mapping, live)])
        key = (atom_id, beta, mapping)
        state = self._state_intern.get(key)
        if state is None:
            state = self._state_intern[key] = CQState(atom, beta, mapping)
        return state

    def renamed(self, state: CQState, renaming: Dict[Term, Term]) -> CQState:
        """The hash-consed state ``sigma(state)``: its goal atom and its
        mapping images renamed by *renaming* (a permutation of
        ``var(Pi)`` fixing the constants; terms it omits stay put)."""
        atom = state.atom.substitute(renaming)
        mapping = [UNMAPPED if image == UNMAPPED else
                   self._term_id(renaming.get(self._terms[image],
                                              self._terms[image]))
                   for image in state.mapping]
        atom_id = self._atom_ids.setdefault(atom, len(self._atom_ids))
        return self._make_state(atom_id, atom, state.beta, mapping)

    def initial_state(self, root_atom: Atom) -> Optional[CQState]:
        """The start state ``(Q(s), theta, M_theta_s)`` for one root
        atom, or None when theta's head cannot map onto it (repeated
        head variables or head constants that the root atom does not
        realize)."""
        head = self.theta.head
        if head.arity != root_atom.arity:
            return None
        seed: Dict[Variable, Term] = {}
        for term, target in zip(head.args, root_atom.args):
            if is_variable(term):
                known = seed.get(term)
                if known is None:
                    seed[term] = target
                elif known != target:
                    return None
            elif term != target:
                return None
        mapping = [self._term_id(seed[v]) if v in seed else UNMAPPED
                   for v in self._vars]
        atom_id = self._atom_ids.setdefault(root_atom, len(self._atom_ids))
        return self._make_state(atom_id, root_atom,
                                (1 << len(self._atoms)) - 1, mapping)

    def _partitions(self, beta: int, bindings, mapping: Tuple[int, ...],
                    leaf: bool) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """The (deferred atoms, M1) pairs left after mapping a subset of
        beta into the label's EDB atoms (step 1 of the transition), in
        order: atoms ascending, deferring before each binding.  With
        ``leaf`` nothing is deferred (a leaf maps beta away entirely).
        """
        partial = [((), mapping)]
        for index in range(len(self._atoms)):
            if not beta >> index & 1:
                continue
            grown = []
            for deferred, current in partial:
                if not leaf:
                    grown.append((deferred + (index,), current))
                for option in bindings[index]:
                    extended = None
                    for slot, image in option:
                        known = current[slot]
                        if known != image:
                            if known != UNMAPPED:
                                break
                            if extended is None:
                                extended = list(current)
                            extended[slot] = image
                    else:
                        grown.append((deferred, current if extended is None
                                      else tuple(extended)))
            if not grown:
                return grown
            partial = grown
        return partial

    def successors_cached(self, state: CQState, label: Label) -> Tuple[Tuple[CQState, ...], ...]:
        """All transition tuples of child states on *label*, memoized
        automaton-wide: the empty tuple alone (acceptance) for a leaf
        label, else one state per IDB child atom, without duplicates."""
        key = (state, label)
        cached = self._successor_cache.get(key)
        if cached is None:
            cached = self._successors(state, label)
            self._successor_cache[key] = cached
        return cached

    def successors(self, state: CQState, label: Label) -> Iterator[Tuple[CQState, ...]]:
        """Iterator over :meth:`successors_cached`."""
        return iter(self.successors_cached(state, label))

    def _successors(self, state: CQState, label: Label) -> Tuple[Tuple[CQState, ...], ...]:
        if state.atom is not label.atom and state.atom != label.atom:
            return ()
        compiled = self._label_cache.get(label)
        if compiled is None:
            compiled = self._label_cache[label] = self._compile(label)
        bindings, children = compiled
        partitions = self._partitions(state.beta, bindings, state.mapping,
                                      not children)
        if not children:
            return ((),) if partitions else ()
        found: Dict[Tuple[CQState, ...], None] = {}
        for rest, mapping1 in partitions:
            check_deadline()
            for assignment in product(range(len(children)), repeat=len(rest)):
                spans = [0] * len(children)
                betas = [0] * len(children)
                for index, c in zip(rest, assignment):
                    betas[c] |= 1 << index
                    spans[c] |= self._atom_masks[index]
                guesses = self._guesses(spans, mapping1, children)
                if guesses is None:
                    continue
                for values in product(*[cands for _, cands in guesses]):
                    check_deadline()
                    final = list(mapping1)
                    for (slot, _), value in zip(guesses, values):
                        final[slot] = value
                    found[tuple([
                        self._make_state(atom_id, atom, beta, final)
                        for (atom_id, atom, _), beta in zip(children, betas)
                    ])] = None
        return tuple(found)

    def _guesses(self, spans: List[int], mapping1: Tuple[int, ...], children):
        """Check conditions 3/4 for an atom->child assignment, given
        the variable slots sent into each child (*spans*).  Returns
        ``(slot, candidate image ids)`` per unmapped variable split
        across children (slots ascending, candidates by term ``repr``),
        or None when the assignment is infeasible."""
        seen = shared = 0
        for (_, _, args), span in zip(children, spans):
            # Condition 4: a committed image must flow through every
            # child atom its variable is sent into.
            bits = span
            while bits:
                low = bits & -bits
                bits ^= low
                image = mapping1[low.bit_length() - 1]
                if image != UNMAPPED and not args >> image & 1:
                    return None
            shared |= seen & span
            seen |= span
        # Condition 3: an unmapped variable split across children must
        # be given an image lying in all of them.
        guesses: List[Tuple[int, Tuple[int, ...]]] = []
        while shared:
            low = shared & -shared
            shared ^= low
            slot = low.bit_length() - 1
            if mapping1[slot] != UNMAPPED:
                continue
            common = -1
            for (_, _, args), span in zip(children, spans):
                if span & low:
                    common &= args
            if not common:
                return None
            candidates = [t for t in range(common.bit_length()) if common >> t & 1]
            candidates.sort(key=lambda t: repr(self._terms[t]))
            guesses.append((slot, tuple(candidates)))
        return guesses

    def accepts_leaf(self, state: CQState, label: Label) -> bool:
        """Leaf acceptance: beta maps away entirely into the label."""
        if not label.is_leaf():
            return False
        return bool(self.successors_cached(state, label))


def shared_cq_automaton(program: Program, goal: str,
                        theta: ConjunctiveQuery) -> CQAutomaton:
    """The ambient cache scope's query automaton per
    (program, goal, theta).

    Expansion unions grow monotonically with the probed depth, so the
    boundedness search and repeated containment calls keep re-creating
    automata for the same disjuncts; sharing them also shares their
    hash-consed states and successor caches.  Scoped to the ambient
    session (:mod:`repro.context`): concurrent sessions build their
    own instances, the default session shares process-wide.
    """
    return current_scope().memo(
        "core.cq_automaton", (program, goal, theta),
        lambda: CQAutomaton(program, goal, theta), limit=512,
    )
