"""Equivalence of recursive and nonrecursive programs (Theorem 6.5).

``Pi == Pi'`` (with Pi recursive, Pi' nonrecursive, both over the same
EDB vocabulary) is decided by two containments:

* ``Pi' subseteq Pi``: unfold Pi' into a union of conjunctive queries
  and run the canonical-database test per disjunct (the classical,
  easier direction);
* ``Pi subseteq Pi'``: the paper's contribution -- containment of a
  recursive program in a union of conjunctive queries via proof-tree
  automata (Theorem 5.12), triply exponential overall because of the
  unfolding blowup (Theorem 6.5 shows this is optimal).

Both functions here are the implementations the
:class:`repro.session.Session` methods call; each result carries its
per-phase wall-clock ``timings``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Optional

from ..automata.kernel import Invariant
from ..cq.query import UnionOfConjunctiveQueries
from ..datalog.analysis import is_recursive
from ..datalog.engine import Engine
from ..datalog.errors import NotNonrecursiveError, ValidationError
from ..datalog.program import Program
from ..datalog.unfold import unfold_nonrecursive
from ..trees.expansion import ExpansionTree
from .containment import contained_in_ucq
# perfbench/spans.py patches this name (ROADMAP item 4).
from .containment import ucq_contained_in_datalog as decide_ucq_in_datalog


@dataclass
class EquivalenceResult:
    """Outcome of an equivalence decision.

    When the programs differ, exactly one direction fails:
    ``forward_holds`` reports ``Pi subseteq Pi'`` (with
    ``forward_witness`` a proof tree of Pi not covered by Pi' when it
    fails, ``invariant`` its certificate when it holds) and
    ``backward_holds`` reports ``Pi' subseteq Pi``.  ``timings`` holds
    the wall-clock seconds of each phase: ``unfold_s`` (Pi' to a UCQ,
    when Pi' was a program), ``backward_s`` (canonical-database tests)
    and ``forward_s`` (the proof-tree-automata containment).
    """

    equivalent: bool
    forward_holds: bool
    backward_holds: bool
    forward_witness: Optional[ExpansionTree] = None
    stats: Dict[str, int] = field(default_factory=dict)
    invariant: Optional[Invariant] = field(default=None, repr=False,
                                           compare=False)
    timings: Dict[str, float] = field(default_factory=dict, repr=False,
                                      compare=False)

    def __bool__(self):
        return self.equivalent


def is_equivalent_to_nonrecursive(program: Program, nonrecursive: Program,
                                  goal: str,
                                  nonrecursive_goal: Optional[str] = None,
                                  method: str = "auto",
                                  engine: Optional[Engine] = None) -> EquivalenceResult:
    """Decide ``Pi == Pi'`` for a (possibly recursive) Pi and a
    nonrecursive Pi' (Theorem 6.5).

    ``goal`` is Pi's goal predicate; ``nonrecursive_goal`` defaults to
    the same name.  Raises :class:`NotNonrecursiveError` when Pi' is
    recursive (use two containment calls directly for that undecidable
    case at your own peril -- the paper proves general Datalog
    equivalence undecidable [Shm87]).  ``engine`` runs the backward
    canonical-database tests (default: the ambient session's engine).
    """
    nonrecursive_goal = nonrecursive_goal or goal
    if is_recursive(nonrecursive):
        raise NotNonrecursiveError(
            "second program must be nonrecursive (general Datalog "
            "equivalence is undecidable [Shm87])"
        )
    program.require_goal(goal)
    nonrecursive.require_goal(nonrecursive_goal)
    if program.arity[goal] != nonrecursive.arity[nonrecursive_goal]:
        raise ValidationError("goal predicates have different arities")

    started = perf_counter()
    union = unfold_nonrecursive(nonrecursive, nonrecursive_goal)
    unfold_s = perf_counter() - started
    result = equivalent_to_ucq(program, goal, union, method=method,
                               engine=engine)
    result.stats["union_disjuncts"] = len(union)
    result.stats["union_size"] = union.size()
    result.timings = {"unfold_s": round(unfold_s, 6), **result.timings}
    return result


def equivalent_to_ucq(program: Program, goal: str,
                      union: UnionOfConjunctiveQueries,
                      method: str = "auto",
                      engine: Optional[Engine] = None) -> EquivalenceResult:
    """Decide ``Pi == union`` directly against a union of conjunctive
    queries (the Theorem 5.12 form of the problem)."""
    program.require_goal(goal)
    started = perf_counter()
    backward = decide_ucq_in_datalog(union, program, goal, engine=engine)
    backward_s = perf_counter() - started
    started = perf_counter()
    forward = contained_in_ucq(program, goal, union, method=method)
    forward_s = perf_counter() - started
    return EquivalenceResult(
        equivalent=forward.contained and backward,
        forward_holds=forward.contained,
        backward_holds=backward,
        forward_witness=forward.witness,
        stats=dict(forward.stats),
        invariant=forward.invariant,
        timings={"backward_s": round(backward_s, 6),
                 "forward_s": round(forward_s, 6)},
    )
