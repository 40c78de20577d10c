"""Enumeration of rule instances over the proof-tree term space.

A proof-tree node is labeled ``(alpha, rho)`` where rho is an instance
of a program rule over ``var(Pi)`` (plus the program's constants,
Remark 5.14).  Both the proof-tree automaton (Proposition 5.9) and the
query automaton (Proposition 5.10) read these labels; this module
provides the shared, cached enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterator, List, Tuple

from ..budget import check_deadline
from ..context import current_scope, current_session
from ..datalog.atoms import Atom
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.unify import resolve, unify_tuples
from ..trees.proof import term_space


@dataclass(frozen=True)
class Label:
    """A proof-tree node label ``(alpha, rho)`` -- one alphabet symbol.

    ``idb_atoms`` are the IDB atoms of rho's body in order (the child
    goals); an empty tuple makes this a leaf symbol.

    Labels key every transition cache in the decision stack, so the
    class is slotted and its (rule-instance-sized) hash is computed
    once and cached; the enumerator below reuses label objects, so the
    cache amortizes across the whole search.
    """

    __slots__ = ("atom", "rule", "idb_atoms", "edb_atoms", "_hash")

    atom: Atom
    rule: Rule
    idb_atoms: Tuple[Atom, ...]
    edb_atoms: Tuple[Atom, ...]

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            value = hash((self.atom, self.rule, self.idb_atoms, self.edb_atoms))
            object.__setattr__(self, "_hash", value)
            return value

    # Explicit pickle support: the default slot-state protocol
    # setattr()s into a frozen dataclass (FrozenInstanceError), and
    # ``_hash`` must not travel anyway -- hashes are salted per
    # process (PYTHONHASHSEED), so a snapshot-restored label recomputes
    # lazily in the new process.
    def __getstate__(self):
        return (self.atom, self.rule, self.idb_atoms, self.edb_atoms)

    def __setstate__(self, state):
        for name, value in zip(("atom", "rule", "idb_atoms", "edb_atoms"),
                               state):
            object.__setattr__(self, name, value)

    def is_leaf(self) -> bool:
        return not self.idb_atoms

    def __str__(self):
        return f"({self.atom} | {self.rule})"


class InstanceEnumerator:
    """Enumerates (and caches) rule instances for a fixed program.

    ``labels_for(atom)`` yields every label whose goal is exactly
    *atom* -- all ways a proof-tree node with that goal can be expanded.
    The count per rule is ``|term_space|^(#variables not bound by the
    head unification)``, i.e. exponential in the rule width but
    enumerated lazily and cached per goal atom.
    """

    def __init__(self, program: Program):
        self._program = program
        self._space = term_space(program)
        self._idb = program.idb_predicates
        self._cache: Dict[Atom, Tuple[Label, ...]] = {}

    @property
    def program(self) -> Program:
        return self._program

    @property
    def space(self) -> Tuple:
        return self._space

    def labels_for(self, atom: Atom) -> Tuple[Label, ...]:
        """All labels ``(atom, rho)`` with head(rho) == atom."""
        cached = self._cache.get(atom)
        if cached is not None:
            return cached
        labels: List[Label] = []
        for rule in self._program.rules_for(atom.predicate):
            labels.extend(self._instances(rule, atom))
        result = tuple(labels)
        self._cache[atom] = result
        return result

    def _instances(self, rule: Rule, head_atom: Atom) -> Iterator[Label]:
        seed = unify_tuples(rule.head.args, head_atom.args, {})
        if seed is None:
            return
        # Resolve every rule variable through the seed once; the free
        # ones (left unbound by the head unification) range over the
        # term space, in name order.
        resolved = {v: resolve(v, seed) for v in rule.variables()}
        free = sorted((v for v, r in resolved.items() if r == v),
                      key=lambda v: v.name)
        slots = {v: k for k, v in enumerate(free)}

        def template(atom: Atom) -> Tuple[str, Tuple]:
            entries = []
            for term in atom.args:
                term = resolved.get(term, term)
                entries.append((slots.get(term, -1), term))
            return atom.predicate, tuple(entries)

        head_template = template(rule.head)
        body_templates = [template(atom) for atom in rule.body]
        is_idb = [atom.predicate in self._idb for atom in rule.body]
        for values in product(self._space, repeat=len(free)):
            check_deadline()
            head = _build(head_template, values)
            if head != head_atom:
                # The head unification bound a term-space variable (the
                # rule head repeats variables or carries constants);
                # this instantiation cannot label a node with this goal.
                continue
            body = tuple(_build(t, values) for t in body_templates)
            yield Label(
                atom=head_atom,
                rule=Rule(head_atom, body),
                idb_atoms=tuple(a for a, idb in zip(body, is_idb) if idb),
                edb_atoms=tuple(a for a, idb in zip(body, is_idb) if not idb),
            )

    def count_labels(self, goal: str) -> int:
        """Total number of labels across all goal atoms of *goal*
        (the alphabet size of Proposition 5.9 for that predicate)."""
        from ..trees.proof import root_atoms

        return sum(len(self.labels_for(atom)) for atom in root_atoms(self._program, goal))


def _build(template: Tuple[str, Tuple], values: Tuple) -> Atom:
    """Instantiate an atom template: each argument is ``(slot, term)``,
    the free variable's value when ``slot >= 0``, else the fixed term."""
    predicate, entries = template
    return Atom(predicate, tuple([values[slot] if slot >= 0 else term
                                  for slot, term in entries]))


def shared_enumerator(program: Program) -> InstanceEnumerator:
    """The ambient cache scope's enumerator per program value.

    ``Program`` is a frozen dataclass, so equal programs share one
    enumerator -- and hence one label cache -- across repeated
    containment calls (the boundedness search rebuilds the same
    automata for every probed depth).  The enumerator only ever grows
    monotone caches, so sharing is semantically transparent.  The memo
    table lives in the ambient session's
    :class:`~repro.context.CacheScope` (the process-global scope by
    default), so two live sessions never share enumerators.
    """
    return current_scope().memo(
        "core.enumerator", program, lambda: InstanceEnumerator(program),
        limit=64,
    )


def clear_shared_caches() -> None:
    """Drop the ambient session's caches (automaton caches, EDB
    images, compiled plans): :meth:`repro.session.Session.clear_caches`
    on the ambient session.

    This is the cold-start hook of the benchmark harness and the batch
    runner (:mod:`repro.runner`), and a memory valve for long-running
    services.
    """
    current_session().clear_caches()


def warm_shared_caches(program: Program, goal: str, union=None) -> None:
    """Pre-build the ambient scope's per-program caches for
    *program*/*goal*.

    Constructs the shared enumerator and proof-tree automaton (and,
    when a union of conjunctive queries is given, the per-disjunct
    query automata) so subsequent decision calls start warm.  Used by
    :meth:`repro.session.Session.warm` and the batch runner's worker
    initializer: each
    :class:`~concurrent.futures.ProcessPoolExecutor` worker owns its
    own caches, which would otherwise start cold.
    """
    from .cq_automaton import shared_cq_automaton
    from .ptree_automaton import shared_ptree_automaton

    shared_enumerator(program)
    shared_ptree_automaton(program, goal)
    if union is not None:
        for theta in union:
            shared_cq_automaton(program, goal, theta)
