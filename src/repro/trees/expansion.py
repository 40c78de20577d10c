"""Expansion trees and unfolding expansion trees (Section 2.3).

An expansion tree for a program Pi labels each node x with a pair
``(alpha_x, rho_x)`` where alpha_x is an IDB atom and rho_x is an
instance of a rule of Pi whose head is alpha_x; the children of x are
labeled by the IDB atoms of rho_x's body, in order.  The conjunctive
query of the tree is the conjunction of the EDB atoms of all rho_x,
with the root-atom variables free (Figure 1 of the paper).

Unfolding expansion trees (Definition 2.4) are generated by repeatedly
unifying a node's atom with a fresh copy of a rule; every expansion
tree is a renaming of an unfolding one, and
``Q_Pi(D) = union over unfolding trees tau of tau(D)``
(Proposition 2.6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

from ..cq.query import ConjunctiveQuery
from ..datalog.atoms import Atom
from ..datalog.errors import ValidationError
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.unfold import expansion_derivations
from ..datalog.unify import apply_to_atom, apply_to_atoms, unify_tuples


@dataclass(frozen=True)
class ExpansionTree:
    """A node of an expansion tree: ``(atom, rule instance, children)``."""

    atom: Atom
    rule: Rule
    children: Tuple["ExpansionTree", ...] = ()

    def __post_init__(self):
        if not isinstance(self.children, tuple):
            object.__setattr__(self, "children", tuple(self.children))
        if self.rule.head != self.atom:
            raise ValidationError(
                f"rule head {self.rule.head} does not match node atom {self.atom}"
            )

    def validate(self, program: Program) -> None:
        """Check the expansion-tree invariants against *program*.

        Every node's rule must be an instance of some program rule, and
        the children must be labeled by the IDB atoms of the node's rule
        body, in order.
        """
        idb = program.idb_predicates
        if self.atom.predicate not in idb:
            raise ValidationError(f"node atom {self.atom} is not an IDB atom")
        if not _is_rule_instance(self.rule, program):
            raise ValidationError(f"{self.rule} is not an instance of a program rule")
        idb_atoms = self.rule.idb_body_atoms(idb)
        child_atoms = tuple(child.atom for child in self.children)
        if idb_atoms != child_atoms:
            raise ValidationError(
                f"children {child_atoms} do not match the IDB body atoms {idb_atoms}"
            )
        for child in self.children:
            child.validate(program)

    def nodes(self) -> Iterator["ExpansionTree"]:
        """Preorder traversal of the tree."""
        yield self
        for child in self.children:
            yield from child.nodes()

    def size(self) -> int:
        """Number of nodes."""
        return 1 + sum(child.size() for child in self.children)

    def height(self) -> int:
        """Number of rule applications on the longest branch."""
        if not self.children:
            return 1
        return 1 + max(child.height() for child in self.children)

    def variables(self) -> frozenset:
        """All variables occurring anywhere in the tree."""
        result = set()
        for node in self.nodes():
            result.update(node.rule.variables())
        return frozenset(result)

    def edb_atoms(self, program: Program) -> Tuple[Atom, ...]:
        """The EDB atoms of all node rules, in preorder."""
        atoms: List[Atom] = []
        for node in self.nodes():
            atoms.extend(program.edb_atoms_of(node.rule))
        return tuple(atoms)

    def to_query(self, program: Program) -> ConjunctiveQuery:
        """The conjunctive query of the tree (Section 2.3)."""
        return ConjunctiveQuery(self.atom, self.edb_atoms(program))

    def __str__(self):
        return f"({self.atom} | {self.rule})"


def _is_rule_instance(instance: Rule, program: Program) -> bool:
    """True when *instance* is obtained from a program rule by renaming
    variables (a substitution on variables, possibly to constants)."""
    for rule in program.rules:
        if rule.head.predicate != instance.head.predicate:
            continue
        if len(rule.body) != len(instance.body):
            continue
        subst = unify_tuples(rule.head.args, instance.head.args, {})
        if subst is None:
            continue
        ok = True
        for original, instantiated in zip(rule.body, instance.body):
            if original.predicate != instantiated.predicate:
                ok = False
                break
            subst = unify_tuples(original.args, instantiated.args, subst)
            if subst is None:
                ok = False
                break
        if not ok or subst is None:
            continue
        # The unifier must act as a substitution on the original rule
        # only: applying it to the original must yield the instance.
        if (apply_to_atom(rule.head, subst) == instance.head
                and apply_to_atoms(rule.body, subst) == instance.body):
            return True
    return False


def derivation_tree(steps, subst, idb) -> ExpansionTree:
    """The expansion tree of one derivation of
    :func:`repro.datalog.unfold.expansion_derivations`: step i's
    renamed rule, under the final unifier *subst*, labels node i, and
    since the steps are breadth-first, each node's children are the
    next steps not yet claimed, in order."""
    instances = (rule.substitute(renaming) for rule, renaming in steps)
    rules = [Rule(apply_to_atom(instance.head, subst),
                  apply_to_atoms(instance.body, subst)) for instance in instances]
    nodes: List[ExpansionTree] = []
    claimed = len(rules)
    for rule in reversed(rules):  # children are built before parents
        width = len(rule.idb_body_atoms(idb))
        claimed -= width
        nodes.append(ExpansionTree(rule.head, rule, tuple(
            nodes[len(rules) - 1 - i] for i in range(claimed, claimed + width))))
    return nodes[-1]


def unfolding_trees(program: Program, goal: str, max_height: int,
                    exact_height: bool = False) -> Iterator[ExpansionTree]:
    """Enumerate unfolding expansion trees for *goal* up to a height.

    Trees are generated by resolution: each node's atom is unified with
    a fresh copy of a rule (Definition 2.4); the accumulated unifier is
    applied to the whole tree at the end, so rules whose heads repeat
    variables are handled correctly.  Every expansion of height at most
    *max_height* is the query of exactly one generated tree.
    """
    idb = program.idb_predicates
    for _query, steps, subst in expansion_derivations(
            program, goal, max_height, exact_height):
        yield derivation_tree(steps, subst, idb)


def expansion_queries(program: Program, goal: str,
                      max_height: int) -> List[ConjunctiveQuery]:
    """The conjunctive queries of all unfolding trees up to a height."""
    return [tree.to_query(program) for tree in unfolding_trees(program, goal, max_height)]
