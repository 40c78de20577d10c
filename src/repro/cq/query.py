"""Conjunctive queries and unions of conjunctive queries (Section 2.1).

A conjunctive query is represented rule-like, as a *head atom* (whose
arguments are the distinguished terms, in order) and a tuple of body
atoms.  Repeated variables and constants are allowed in the head: both
arise naturally when unfolding nonrecursive programs (e.g. the
empty-body rule ``dist0(x, x).`` of Example 6.2 unfolds to a query with
head ``dist0(X, X)``).

A union of conjunctive queries (UCQ) is a nonempty-or-empty sequence of
conjunctive queries of the same head arity; the empty union is the
everywhere-empty query (false).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Tuple

from ..budget import check_deadline
from ..datalog.atoms import Atom, atoms_constants, atoms_variables
from ..datalog.errors import ValidationError
from ..datalog.rules import Rule
from ..datalog.terms import FreshVariableFactory, Term, Variable, is_variable


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A conjunctive query ``head :- body`` (all body atoms positive)."""

    head: Atom
    body: Tuple[Atom, ...]

    def __init__(self, head: Atom, body: Iterable[Atom]):
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", tuple(body))

    @classmethod
    def from_rule(cls, rule: Rule) -> "ConjunctiveQuery":
        """View a rule as a conjunctive query."""
        return cls(rule.head, rule.body)

    def as_rule(self) -> Rule:
        """View the query as a Horn rule."""
        return Rule(self.head, self.body)

    @property
    def arity(self) -> int:
        """Number of distinguished positions."""
        return self.head.arity

    @property
    def is_boolean(self) -> bool:
        """True when the query has no distinguished positions."""
        return self.head.arity == 0

    @cached_property
    def distinguished_variables(self) -> frozenset:
        """Variables occurring in the head."""
        return self.head.variable_set()

    @cached_property
    def existential_variables(self) -> frozenset:
        """Body variables that are not distinguished."""
        return atoms_variables(self.body) - self.distinguished_variables

    @cached_property
    def variables(self) -> frozenset:
        """All variables of the query."""
        return self.head.variable_set() | atoms_variables(self.body)

    @cached_property
    def constants(self) -> frozenset:
        """All constants of the query."""
        return self.head.constants() | atoms_constants(self.body)

    @cached_property
    def mapping_order(self) -> Tuple[Atom, ...]:
        """The body in the order a containment mapping from this query
        binds it (:func:`repro.cq.homomorphism.order_atoms`)."""
        from .homomorphism import order_atoms
        return tuple(order_atoms(self.body, self.distinguished_variables))

    @property
    def is_safe(self) -> bool:
        """True when every distinguished variable occurs in the body."""
        return self.distinguished_variables <= atoms_variables(self.body)

    def substitute(self, subst: Dict[Variable, Term]) -> "ConjunctiveQuery":
        """Apply a substitution to head and body."""
        return ConjunctiveQuery(
            self.head.substitute(subst), tuple(a.substitute(subst) for a in self.body)
        )

    def rename_apart(self, avoid=()) -> "ConjunctiveQuery":
        """A variant whose variables avoid *avoid* (and are fresh)."""
        factory = FreshVariableFactory(avoid=set(avoid) | {v.name for v in self.variables})
        mapping = {v: factory.fresh() for v in sorted(self.variables, key=lambda v: v.name)}
        return self.substitute(mapping)

    def rename_canonical(self) -> "ConjunctiveQuery":
        """A deterministic renaming used for heuristic duplicate removal.

        Variables are renamed ``X0, X1, ...`` in order of first
        occurrence after sorting body atoms by a stable structural key.
        Two queries with equal canonical forms are equal up to renaming;
        the converse need not hold (canonicalizing CQs exactly is
        graph-isomorphism-hard), so this is used only to shrink unions,
        never to decide containment.
        """
        ordered = sorted(self.body, key=lambda a: (a.predicate, len(a.args), str(a)))
        mapping: Dict[Variable, Variable] = {}
        counter = 0
        for atom in (self.head, *ordered):
            for term in atom.args:
                if is_variable(term) and term not in mapping:
                    mapping[term] = Variable(f"X{counter}")
                    counter += 1
        renamed = self.substitute(mapping)
        body = tuple(sorted(renamed.body, key=lambda a: (a.predicate, str(a))))
        return ConjunctiveQuery(renamed.head, body)

    def size(self) -> int:
        """Syntactic size: one per atom plus one per argument slot."""
        total = 1 + self.head.arity
        for atom in self.body:
            total += 1 + atom.arity
        return total

    def __str__(self):
        if not self.body:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(str(a) for a in self.body)}."

    def __repr__(self):
        return f"ConjunctiveQuery({str(self)!r})"


@dataclass(frozen=True)
class UnionOfConjunctiveQueries:
    """A finite union (disjunction) of conjunctive queries."""

    disjuncts: Tuple[ConjunctiveQuery, ...]
    arity: int

    def __init__(self, disjuncts: Iterable[ConjunctiveQuery], arity: int = None):
        disjuncts = tuple(disjuncts)
        if arity is None:
            if not disjuncts:
                raise ValidationError("arity is required for an empty union")
            arity = disjuncts[0].arity
        for query in disjuncts:
            if query.arity != arity:
                raise ValidationError(
                    f"disjunct arity {query.arity} differs from union arity {arity}"
                )
        object.__setattr__(self, "disjuncts", disjuncts)
        object.__setattr__(self, "arity", arity)

    def deduplicated(self) -> "UnionOfConjunctiveQueries":
        """Remove duplicates up to the heuristic canonical renaming."""
        seen = set()
        kept: List[ConjunctiveQuery] = []
        for query in self.disjuncts:
            check_deadline()
            key = str(query.rename_canonical())
            if key not in seen:
                seen.add(key)
                kept.append(query)
        return UnionOfConjunctiveQueries(kept, self.arity)

    def __iter__(self):
        return iter(self.disjuncts)

    def __len__(self):
        return len(self.disjuncts)

    def size(self) -> int:
        """Total syntactic size of all disjuncts."""
        return sum(query.size() for query in self.disjuncts)

    def __str__(self):
        return "\n".join(str(query) for query in self.disjuncts)


UCQ = UnionOfConjunctiveQueries
