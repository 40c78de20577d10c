"""Proof trees (Section 5.1): expansion trees over the bounded
variable set ``var(Pi)``.

``varnum(Pi)`` bounds the number of variables available to labels, so
the set of possible node labels is finite -- the key step that lets
proof trees be recognized by a tree automaton (Proposition 5.9).

Deviation from the paper (docs/THEORY.md, "Implementation notes"): the
paper counts only variables occurring in IDB atoms of a rule; we count
*all* variables of the rule, so that the renaming in the proof of
Proposition 5.6 can always keep distinct body variables distinct.
This only enlarges the finite label set.

The module also implements occurrence *connectedness*
(Definition 5.2), distinguished occurrences, and the renaming that
turns a proof tree back into an expansion tree (used in the proof of
Proposition 5.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..datalog.atoms import Atom
from ..datalog.errors import ValidationError
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.terms import Variable, is_variable
from ..datalog.unify import apply_to_atom, apply_to_atoms, unify_tuples
from .expansion import ExpansionTree

NodePath = Tuple[int, ...]  # child indices from the root
Occurrence = Tuple[NodePath, Variable]


def varnum(program: Program) -> int:
    """Twice the maximum number of variables in any rule (see module
    docstring for the deviation from the paper's IDB-only count)."""
    if not program.rules:
        return 0
    return 2 * max(len(rule.variables()) for rule in program.rules)


def var_space(program: Program) -> Tuple[Variable, ...]:
    """The ordered variable set ``var(Pi) = {v1, ..., v_varnum}``.

    The reserved names ``_pv0, _pv1, ...`` cannot clash with parser
    output (predicates cannot start with an underscore in atoms built
    by the library's own constructions).
    """
    return tuple(Variable(f"_pv{i}") for i in range(varnum(program)))


def term_space(program: Program) -> Tuple:
    """``var(Pi)`` together with the program's constants.

    Rule instances in proof trees may instantiate variables either by
    variables of ``var(Pi)`` or by constants occurring in the program
    (Remark 5.14); this is the full instantiation space.
    """
    return var_space(program) + tuple(sorted(program.constants, key=repr))


def is_proof_tree(tree: ExpansionTree, program: Program) -> bool:
    """True when *tree* is an expansion tree over ``var(Pi)``."""
    allowed = set(var_space(program))
    return all(v in allowed for v in tree.variables())


def root_atoms(program: Program, goal: str) -> Iterator[Atom]:
    """All possible proof-tree root atoms ``goal(s)`` with s over the
    term space (the start states of Proposition 5.9)."""
    arity = program.arity[goal]
    for args in product(term_space(program), repeat=arity):
        yield Atom(goal, args)


def proof_trees(program: Program, goal: str, max_height: int,
                root_args: Optional[Tuple] = None) -> Iterator[ExpansionTree]:
    """Enumerate proof trees for *goal* of height <= max_height.

    Every expansion tree whose variables lie in ``var(Pi)`` is
    generated (this is ``ptrees(Q, Pi)`` cut at a height bound).  When
    *root_args* is given, only trees whose root atom is
    ``goal(root_args)`` are produced.  The number of trees grows
    doubly exponentially; intended for brute-force cross-checks on
    small programs only.
    """
    program.require_goal(goal)
    space = term_space(program)
    idb = program.idb_predicates

    def instances(rule: Rule, head_atom: Atom) -> Iterator[Rule]:
        """All instances of *rule* over var(Pi) whose head is head_atom."""
        seed = unify_tuples(rule.head.args, head_atom.args, {})
        if seed is None:
            return
        free = sorted(
            (v for v in rule.variables() if not is_variable_bound(v, seed)),
            key=lambda v: v.name,
        )
        for values in product(space, repeat=len(free)):
            subst = dict(seed)
            subst.update(zip(free, values))
            head = apply_to_atom(rule.head, subst)
            if head != head_atom:
                continue
            yield Rule(head, apply_to_atoms(rule.body, subst))

    def is_variable_bound(variable: Variable, subst) -> bool:
        from ..datalog.unify import resolve

        return resolve(variable, subst) != variable

    def expand(atom: Atom, budget: int) -> Iterator[ExpansionTree]:
        if budget <= 0:
            return
        for rule in program.rules_for(atom.predicate):
            for instance in instances(rule, atom):
                idb_atoms = instance.idb_body_atoms(idb)

                def expand_children(index: int, built: List[ExpansionTree]):
                    if index == len(idb_atoms):
                        yield ExpansionTree(atom, instance, tuple(built))
                        return
                    for child in expand(idb_atoms[index], budget - 1):
                        yield from expand_children(index + 1, built + [child])

                yield from expand_children(0, [])

    arity = program.arity[goal]
    if root_args is not None:
        roots = [Atom(goal, tuple(root_args))]
    else:
        roots = [Atom(goal, args) for args in product(space, repeat=arity)]
    for root in roots:
        yield from expand(root, max_height)


# ----------------------------------------------------------------------
# Connectedness of occurrences (Definition 5.2).
# ----------------------------------------------------------------------

class OccurrenceClasses:
    """The connectedness equivalence relation of a proof tree.

    Occurrences are tracked at ``(node, variable)`` granularity: two
    occurrences of the same variable within one node are always
    connected (the path between them is the single node, which the
    definition exempts as the lowest common ancestor).  A parent-child
    pair of occurrences of v is connected iff v occurs in the child's
    *goal* atom; general connectedness is the transitive closure, which
    coincides with the paper's every-node-on-the-path condition.
    """

    def __init__(self, tree: ExpansionTree):
        self._tree = tree
        self._parent: Dict[Occurrence, Occurrence] = {}
        self._goal_vars: Dict[NodePath, FrozenSet[Variable]] = {}
        self._build(tree, ())

    def _build(self, node: ExpansionTree, path: NodePath) -> None:
        self._goal_vars[path] = node.atom.variable_set()
        for variable in node.rule.variables():
            self._parent.setdefault((path, variable), (path, variable))
        for index, child in enumerate(node.children):
            child_path = path + (index,)
            self._build(child, child_path)
            # Link parent and child occurrences of v when v occurs in
            # the child's goal.
            for variable in child.atom.variable_set():
                if variable in node.rule.variables():
                    self._union((path, variable), (child_path, variable))

    def _find(self, occurrence: Occurrence) -> Occurrence:
        root = occurrence
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[occurrence] != root:
            self._parent[occurrence], occurrence = root, self._parent[occurrence]
        return root

    def _union(self, left: Occurrence, right: Occurrence) -> None:
        left_root, right_root = self._find(left), self._find(right)
        if left_root != right_root:
            self._parent[left_root] = right_root

    def class_of(self, path: NodePath, variable: Variable) -> Occurrence:
        """Canonical representative of the class of (node, variable)."""
        key = (path, variable)
        if key not in self._parent:
            raise ValidationError(f"{variable} does not occur at node {path}")
        return self._find(key)

    def connected(self, left: Occurrence, right: Occurrence) -> bool:
        """Definition 5.2: are the two occurrences connected?"""
        return self._find(left) == self._find(right)

    def is_distinguished(self, path: NodePath, variable: Variable) -> bool:
        """Is the occurrence connected to a root-goal occurrence?"""
        if variable not in self._goal_vars[()]:
            return False
        return self.connected((path, variable), ((), variable))

    def classes(self) -> Dict[Occurrence, List[Occurrence]]:
        """All classes, keyed by representative."""
        result: Dict[Occurrence, List[Occurrence]] = {}
        for occurrence in self._parent:
            result.setdefault(self._find(occurrence), []).append(occurrence)
        return result


def proof_tree_to_expansion_tree(tree: ExpansionTree) -> ExpansionTree:
    """The renaming of Proposition 5.5: every connectedness class gets
    its own variable, yielding a genuine expansion tree whose query is
    equivalent to the proof tree's semantics.

    Root-goal classes keep their original variable (so the root atom,
    and hence the distinguished variables, are unchanged); other
    classes are renamed apart.
    """
    classes = OccurrenceClasses(tree)
    names: Dict[Occurrence, Variable] = {}
    counter = 0
    for representative in sorted(classes.classes(), key=repr):
        _path, variable = representative
        if classes.is_distinguished(*representative):
            names[representative] = variable
        else:
            names[representative] = Variable(f"_e{counter}_{variable.name}")
            counter += 1

    def rename(node: ExpansionTree, path: NodePath) -> ExpansionTree:
        def rename_atom(atom: Atom) -> Atom:
            return Atom(
                atom.predicate,
                tuple(
                    names[classes.class_of(path, t)] if is_variable(t) else t
                    for t in atom.args
                ),
            )

        head = rename_atom(node.rule.head)
        body = tuple(rename_atom(a) for a in node.rule.body)
        children = tuple(
            rename(child, path + (index,)) for index, child in enumerate(node.children)
        )
        return ExpansionTree(head, Rule(head, body), children)

    return rename(tree, ())
