"""Magic-sets rewriting for goal-directed bottom-up evaluation.

The paper motivates its study by query optimization ("the techniques to
optimize evaluation of queries are often based on the ability to
transform a query into an equivalent one" -- Section 1, citing [BR86]).
Magic sets is the canonical such transformation: given a goal predicate
and a binding pattern (which arguments of the query are bound to
constants), the program is rewritten so that bottom-up evaluation only
derives facts relevant to the goal.

The implementation covers the standard textbook construction for
positive Datalog with full sideways information passing in body order:

* every IDB predicate p used with adornment a gets a magic predicate
  ``magic_p_a`` holding the relevant bound-argument tuples;
* each rule for p is guarded by ``magic_p_a(bound args)``;
* for each IDB body atom, a magic rule propagates the bindings
  accumulated left-to-right.

``magic_rewrite`` returns the rewritten program plus the seed fact
predicate; ``magic_query`` runs the whole pipeline and must agree with
direct evaluation (tested), typically touching far fewer facts.  Both
evaluate through the default engine's columnar data plane
(:mod:`repro.datalog.columns`) -- magic seeds land in IDB relations,
which the column store keeps private per evaluation -- and accept an
``engine=`` override for A/B runs (``tests/test_columnar.py`` checks
both backends agree on the rewritten programs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..budget import check_deadline
from .atoms import Atom
from .database import Database
from .engine import Engine, evaluate
from .errors import ValidationError
from .program import Program
from .rules import Rule
from .terms import Constant, Term, Variable, is_variable

Adornment = str  # e.g. "bf": first argument bound, second free


def _adorned_name(predicate: str, adornment: Adornment) -> str:
    return f"{predicate}__{adornment}"


def _magic_name(predicate: str, adornment: Adornment) -> str:
    return f"magic_{predicate}__{adornment}"


def _bound_args(atom: Atom, adornment: Adornment) -> Tuple[Term, ...]:
    return tuple(t for t, a in zip(atom.args, adornment) if a == "b")


def _atom_adornment(atom: Atom, bound: Set[Variable]) -> Adornment:
    return "".join(
        "b" if (not is_variable(t) or t in bound) else "f" for t in atom.args
    )


@dataclass
class MagicRewriting:
    """The output of :func:`magic_rewrite`."""

    program: Program
    goal: str                 # adorned goal predicate name
    seed_predicate: str       # magic predicate to seed with the query bindings
    seed_row: Tuple[Term, ...]


def magic_rewrite(program: Program, goal: str, adornment: Adornment,
                  bindings: Sequence = ()) -> MagicRewriting:
    """Rewrite *program* for querying ``goal`` with *adornment*.

    *bindings* supplies the constants for the bound positions (in
    order) and seeds the magic predicate.
    """
    program.require_goal(goal)
    if len(adornment) != program.arity[goal]:
        raise ValidationError("adornment length must match the goal arity")
    if any(c not in "bf" for c in adornment):
        raise ValidationError("adornment must consist of 'b' and 'f'")
    bound_count = sum(1 for c in adornment if c == "b")
    if len(bindings) != bound_count:
        raise ValidationError(
            f"adornment {adornment!r} needs {bound_count} binding(s)"
        )

    idb = program.idb_predicates
    rewritten: List[Rule] = []
    done: Set[Tuple[str, Adornment]] = set()
    pending: List[Tuple[str, Adornment]] = [(goal, adornment)]

    while pending:
        check_deadline()
        predicate, adorn = pending.pop()
        if (predicate, adorn) in done:
            continue
        done.add((predicate, adorn))
        magic_head_args_template = adorn
        for rule in program.rules_for(predicate):
            bound: Set[Variable] = {
                t for t, a in zip(rule.head.args, adorn)
                if a == "b" and is_variable(t)
            }
            guarded_body: List[Atom] = [
                Atom(_magic_name(predicate, adorn), _bound_args(rule.head, adorn))
            ]
            magic_rules: List[Rule] = []
            for atom in rule.body:
                if atom.predicate in idb:
                    sub_adorn = _atom_adornment(atom, bound)
                    # Magic rule: bindings available so far flow into
                    # the subgoal.
                    magic_rules.append(
                        Rule(
                            Atom(_magic_name(atom.predicate, sub_adorn),
                                 _bound_args(atom, sub_adorn)),
                            tuple(guarded_body),
                        )
                    )
                    pending.append((atom.predicate, sub_adorn))
                    guarded_body.append(
                        Atom(_adorned_name(atom.predicate, sub_adorn), atom.args)
                    )
                else:
                    guarded_body.append(atom)
                bound.update(atom.variable_set())
            rewritten.append(
                Rule(Atom(_adorned_name(predicate, adorn), rule.head.args),
                     tuple(guarded_body))
            )
            rewritten.extend(magic_rules)

    seed = _magic_name(goal, adornment)
    seed_row = tuple(
        b if isinstance(b, (Constant, Variable)) else Constant(b) for b in bindings
    )
    return MagicRewriting(
        program=Program(rewritten),
        goal=_adorned_name(goal, adornment),
        seed_predicate=seed,
        seed_row=seed_row,
    )


def magic_query(program: Program, database: Database, goal: str,
                adornment: Adornment, bindings: Sequence,
                engine: Optional[Engine] = None) -> FrozenSet[Tuple]:
    """Evaluate ``goal(bindings, ...)`` goal-directedly.

    Returns the full rows of the goal relation matching the bound
    arguments; must coincide with filtering the direct fixpoint
    (differentially tested), while deriving only goal-relevant facts.
    ``engine`` overrides the default columnar engine.
    """
    rewriting = magic_rewrite(program, goal, adornment, bindings)
    seeded = database.copy()
    seeded.add(rewriting.seed_predicate, rewriting.seed_row)
    result = evaluate(rewriting.program, seeded, engine=engine)
    # The adorned relation may contain rows for other magic'd bindings
    # reached during propagation; keep only the queried ones.
    wanted = iter(rewriting.seed_row)
    pattern = [next(wanted) if c == "b" else None for c in adornment]
    return frozenset(
        row
        for row in result.facts(rewriting.goal)
        if all(p is None or p == value for p, value in zip(pattern, row))
    )


def derived_fact_count(program: Program, database: Database, goal: str,
                       adornment: Adornment, bindings: Sequence,
                       engine: Optional[Engine] = None) -> Dict[str, int]:
    """Instrumentation for the ablation bench: total IDB facts derived
    by direct evaluation vs the magic rewriting."""
    direct = evaluate(program, database, engine=engine)
    direct_count = sum(map(direct.count, program.idb_predicates))
    rewriting = magic_rewrite(program, goal, adornment, bindings)
    seeded = database.copy()
    seeded.add(rewriting.seed_predicate, rewriting.seed_row)
    magic = evaluate(rewriting.program, seeded, engine=engine)
    magic_count = sum(map(magic.count, rewriting.program.idb_predicates))
    return {"direct": direct_count, "magic": magic_count}
