"""Independent checks of containment verdicts (Theorems 5.11/5.12,
Propositions 4.6 and 5.5).

A containment search that finds no counterexample returns its final
antichain as an :class:`~repro.automata.kernel.Invariant`.
:func:`check_invariant` verifies it as an inductive invariant of the
left automaton's runs.  Every acceptance test is recomputed from the
automata's transition functions (``_UnionAutomaton.successors``,
``CQAutomaton.successors_cached`` / ``accepts_leaf``,
``TreeAutomaton.tuples``) on decoded state sets, never through the
search's masks, memo tables or round scheduler.  Acceptance is monotone
in the child profiles (tree pathway) and in V (word pathway), so
checking the minimal entries is enough: the antichain is a fixpoint
certificate in the sense of De Wulf, Doyen, Henzinger and Raskin,
"Antichains: a new algorithm for checking universality of finite
automata" (CAV 2006), and the search a certifying algorithm in the
sense of McConnell, Mehlhorn, Naeher and Schweitzer, "Certifying
algorithms" (Computer Science Review 5(2), 2011).

Tree pathway (the proof-tree profile search, and the generic
Proposition 4.6 search):

* **closure** -- for every transition ``p --a--> (p1..pk)`` of the left
  automaton and every choice of certified entries ``U1..Uk`` at
  ``p1..pk``, the right states accepting ``a`` over ``U1..Uk`` include
  some certified entry at ``p``;
* **safety** -- every certified entry at a start state of the left
  automaton meets the right automaton's start states.

By induction on trees, the right profile of every tree accepted from
``p`` contains a certified entry at ``p``; safety then puts every
accepted tree in the right language.

Word pathway (chain-form programs):

* **start** -- the initial V of every root contains a certified entry;
* **closure** -- for each certified ``(atom, V)`` and each non-leaf
  label, the image of V contains a certified entry at the child atom;
* **leaf** -- each certified V accepts every leaf label of its atom.

By induction along the path, the exact V of every proof-tree prefix
contains a certified entry, so every proof tree is accepted.  The word
search keeps one canonical atom per orbit of ``var(Pi)`` renamings
(:class:`~repro.core.word_path.Symmetry`); the checker expands every
certified orbit, giving each atom its canonical atom's entries renamed
back, and runs the three checks at every atom of it.  Transitions are
recomputed on those renamed states, so the search's renaming is
checked against transitions it never computed.

A closure certificate (:func:`~repro.core.containment.closure_certificate`)
is checked by :func:`check_closure`, which rebuilds every composition
itself and applies the stored mappings, with no mapping search.

A negative verdict carries a witness instead:
:func:`witness_refutes` rebuilds the Proposition 5.5 counterexample
database, evaluates the program on it with the interpretive evaluator
and the union by direct conjunctive-query evaluation.
"""

from __future__ import annotations

from itertools import product
from typing import (Callable, Dict, FrozenSet, Hashable, Iterable, List,
                    Optional, Tuple)

from ..automata.kernel import Invariant
from ..budget import check_deadline
from ..cq.canonical import evaluate_ucq
from ..cq.query import UnionOfConjunctiveQueries
from ..datalog.atoms import Atom
from ..datalog.engine import Engine, EngineConfig
from ..datalog.errors import ReproError
from ..datalog.program import Program
from ..datalog.terms import Variable
from ..datalog.unify import apply_to_atom, apply_to_atoms, resolve, unify_tuples
from .containment import counterexample_database
from .word_path import Symmetry, inverse

__all__ = ["CertificateError", "check_certificate", "check_closure",
           "check_invariant", "witness_refutes"]

#: Candidate child tuples of one right state on one symbol.
Tuples = Callable[[Hashable, Hashable], Iterable[Tuple]]


class CertificateError(ReproError):
    """A certificate failed one of its checks; ``condition`` names it
    (``"closure"``, ``"safety"``, ``"start"``, ``"leaf"``, ``"scope"``,
    ``"coverage"``, ``"mapping"`` or ``"missing"``)."""

    def __init__(self, condition: str, detail: str):
        super().__init__(f"{condition} check failed: {detail}")
        self.condition = condition


def check_invariant(invariant: Invariant) -> None:
    """Verify *invariant*; raises :class:`CertificateError` on the
    first failed check (safety before closure on the tree pathway;
    start, leaf, closure on the word pathway)."""
    entries = _decoder(invariant)
    if invariant.pathway == "word":
        _check_word(invariant, entries)
        return
    if invariant.pathway == "tree":
        ptrees, bunion = invariant.automata
        transitions = ptrees.transitions_list()
        starts = {atom: bunion.initial_states(atom)
                  for atom in ptrees.initial_atoms()}
        successors = bunion.successors
    else:  # "automata": the generic Proposition 4.6 search
        left, right = invariant.automata
        transitions = [(state, symbol, tuple_)
                       for (state, symbol), tuples in left.transitions.items()
                       for tuple_ in tuples]
        starts = {state: right.initial for state in left.initial}
        successors = right.tuples
    for state, initial in starts.items():
        initial = frozenset(initial)
        for entry in entries(state):
            if not entry & initial:
                raise CertificateError(
                    "safety", f"an entry at {state} misses every start state")
    _check_tree_closure(transitions, successors, entries)


def _decoder(invariant: Invariant) -> Callable[[Hashable], List[FrozenSet]]:
    decoded: Dict[Hashable, List[FrozenSet]] = {}

    def entries(key: Hashable) -> List[FrozenSet]:
        found = decoded.get(key)
        if found is None:
            found = decoded[key] = invariant.entries(key)
        return found

    return entries


def _check_tree_closure(transitions, successors: Tuples, entries) -> None:
    for parent, symbol, children in transitions:
        check_deadline()
        certified = entries(parent)
        candidates = frozenset().union(*certified)
        arity = len(children)
        for combo in product(*[entries(child) for child in children]):
            accepted = {
                state for state in candidates
                if any(len(tuple_) == arity
                       and all(q in u for q, u in zip(tuple_, combo))
                       for tuple_ in successors(state, symbol))
            }
            if not any(entry <= accepted for entry in certified):
                raise CertificateError(
                    "closure", f"no certified entry at {parent} accepts "
                    f"{symbol} over the chosen child entries")


def _orbit_decoder(invariant: Invariant, symmetry: Symmetry,
                   canonical_entries) -> Callable[[Atom], List[FrozenSet]]:
    """The certified entries at any atom: its canonical atom's, renamed
    back by the inverse of the atom's canonical renaming."""
    _, automata = invariant.automata
    expanded: Dict[Atom, List[FrozenSet]] = {}

    def entries(atom: Atom) -> List[FrozenSet]:
        found = expanded.get(atom)
        if found is None:
            canonical, sigma = symmetry.canonical(atom)
            found = canonical_entries(canonical)
            if sigma is not None:
                back = inverse(sigma)
                found = [frozenset((index, automata[index].renamed(state, back))
                                   for index, state in entry)
                         for entry in found]
            expanded[atom] = found
        return found

    return entries


def _check_word(invariant: Invariant, canonical_entries) -> None:
    ptrees, automata = invariant.automata
    symmetry = Symmetry(ptrees.program)
    entries = _orbit_decoder(invariant, symmetry, canonical_entries)
    for root in ptrees.initial_atoms():
        start = frozenset(
            (index, state) for index, state in enumerate(
                automaton.initial_state(root) for automaton in automata)
            if state is not None)
        if not any(entry <= start for entry in entries(root)):
            raise CertificateError(
                "start", f"no certified entry inside the initial V of {root}")
    atoms = [atom for key in invariant.chains for atom in symmetry.orbit(key)]
    for atom in atoms:
        leaves = [label for label in ptrees.enumerator.labels_for(atom)
                  if label.is_leaf()]
        for entry in entries(atom):
            for label in leaves:
                if not any(automata[index].accepts_leaf(state, label)
                           for index, state in entry):
                    raise CertificateError(
                        "leaf", f"an entry at {atom} rejects leaf {label}")
    for atom in atoms:
        for entry in entries(atom):
            check_deadline()
            for label in ptrees.enumerator.labels_for(atom):
                if label.is_leaf():
                    continue
                if len(label.idb_atoms) != 1:
                    raise CertificateError(
                        "closure", f"non-chain label {label}")
                image = frozenset(
                    (index, children[0])
                    for index, state in entry
                    for children in automata[index].successors_cached(
                        state, label)
                )
                child = label.idb_atoms[0]
                if not any(known <= image for known in entries(child)):
                    raise CertificateError(
                        "closure", f"the image of an entry at {atom} under "
                        f"{label} contains no certified entry at {child}")


def check_certificate(program: Program, goal: str,
                      union: UnionOfConjunctiveQueries, result) -> None:
    """Check a positive *result*'s ``closure``, else its ``invariant``."""
    if result.closure is not None:
        check_closure(program, goal, union, result.closure)
    elif result.invariant is None:
        raise CertificateError("missing", "no certificate returned")
    else:
        check_invariant(result.invariant)


def check_closure(program: Program, goal: str,
                  union: UnionOfConjunctiveQueries, closure) -> None:
    """Verify a closure certificate of ``Q_Pi subseteq union``: the
    rules for *goal* are safe and name no other IDB predicate
    (``"scope"``), and each rule and choice of disjuncts has an entry
    (``"coverage"``) whose mapping sends the disjunct's head onto the
    composition's head and its body into the composition's body
    (``"mapping"``).  The mappings name the prover's variables, so its
    renaming (``V/r``, ``V/i``) is a contract this checker rebuilds."""
    disjuncts = list(union)
    entries = {(step.rule, step.choice): step for step in closure}
    for index, rule in enumerate(program.rules):
        if rule.head.predicate != goal:
            continue
        if not rule.is_safe or rule.body_predicates() & (
                program.idb_predicates - {goal}):
            raise CertificateError("scope", f"rule {index} is unsafe or "
                                   "names another IDB predicate")
        calls = sum(atom.predicate == goal for atom in rule.body)
        for choice in product(range(len(disjuncts)), repeat=calls):
            check_deadline()
            step = entries.get((index, choice))
            if step is None:
                raise CertificateError(
                    "coverage", f"no entry for rule {index}, choice {choice}")
            composed = _compose(rule, goal, [disjuncts[j] for j in choice])
            if composed is None and step.cover is None:
                continue
            if composed is None or step.cover is None or not _maps_onto(
                    disjuncts[step.cover], step.mapping or {}, *composed):
                raise CertificateError("mapping", f"rule {index}, choice "
                                       f"{choice}: entry {step.cover} fails")


def _compose(rule, goal: str, chosen: List) -> Optional[Tuple]:
    """``(head, body, unifier)`` of *rule* with its i-th *goal* atom
    replaced by ``chosen[i]`` (variables renamed ``V/r`` and ``V/i``),
    or None when the heads do not unify."""
    def tagged(atom: Atom, tag) -> Atom:
        return atom.substitute({v: Variable(f"{v.name}/{tag}")
                                for v in atom.variable_set()})

    subst, atoms, chosen = {}, [], iter(enumerate(chosen))
    for atom in rule.body:
        if atom.predicate != goal:
            atoms.append(tagged(atom, "r"))
            continue
        i, theta = next(chosen)
        subst = unify_tuples(tagged(theta.head, i).args,
                             tagged(atom, "r").args, subst)
        if subst is None:
            return None
        atoms += [tagged(body_atom, i) for body_atom in theta.body]
    return (apply_to_atom(tagged(rule.head, "r"), subst),
            set(apply_to_atoms(atoms, subst)), subst)


def _maps_onto(psi, mapping, head: Atom, body, subst) -> bool:
    def image(atom: Atom) -> Atom:
        return Atom(atom.predicate, tuple(resolve(mapping.get(t, t), subst)
                                          for t in atom.args))

    return image(psi.head).args == head.args and all(
        image(atom) in body for atom in psi.body)


def witness_refutes(program: Program, goal: str,
                    union: UnionOfConjunctiveQueries, result) -> bool:
    """Does the witness of a negative *result* refute containment?

    The witness becomes its canonical database D and frozen head row
    (Proposition 5.5, :func:`~repro.core.containment.counterexample_database`).
    *program* must derive the row on D under the interpretive evaluator,
    and no disjunct of *union* may produce it (direct conjunctive-query
    evaluation).
    """
    database, head_row = counterexample_database(result, program)
    oracle = Engine(EngineConfig(compiled=False, strategy="naive"))
    return (head_row in oracle.evaluate(program, database).facts(goal)
            and head_row not in evaluate_ucq(union, database))
