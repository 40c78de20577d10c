"""A semi-decision procedure for boundedness.

The paper distinguishes its problem (equivalence to a *given*
nonrecursive program -- decidable, Theorem 6.5) from boundedness
(equivalence to *some* nonrecursive program -- undecidable [GMSV93]).
The decidable machinery still yields a useful semi-decision: Pi is
bounded with depth k iff Pi is equivalent to the union of its
expansions of height at most k, and that union is always contained in
Pi, so only the forward containment (Theorem 5.12) needs deciding.
Iterating k = 1, 2, ... certifies boundedness whenever it holds; the
procedure cannot certify unboundedness (no algorithm can), so it stops
at ``max_depth`` with verdict "unknown" -- unless the structural
shortcut below applies.

As a cheap sound check, :func:`search_boundedness` first tries the
counterexample route: if for some k the truncation test fails with a
witness, the witness rules out depth-k boundedness and the search
continues deeper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from time import perf_counter
from typing import Dict, Optional

from ..automata.kernel import Invariant
from ..cq.canonical import canonical_database
from ..cq.query import UnionOfConjunctiveQueries
from ..datalog.engine import Engine, evaluate
from ..datalog.errors import ValidationError
from ..datalog.program import Program
from ..datalog.unfold import expansion_union, expansions
from .containment import contained_in_ucq


@dataclass
class BoundednessResult:
    """Outcome of the boundedness search.

    ``bounded`` is True / False / None (None = unknown: unbounded or
    bound exceeds ``max_depth``).  On success ``depth`` is the
    certified bound and ``witness_union`` the equivalent union of
    conjunctive queries (a nonrecursive rewriting of the program);
    ``invariant`` is the certificate of the containment in that union
    when the automata search decided it.  ``stats`` counts the search
    work (``depths_probed``, ``engine_refuted``, ``containments_run``)
    and ``timings`` its seconds (``probe_s`` for the engine
    counterexample probes, ``containment_s`` for the automata
    containments).
    """

    bounded: Optional[bool]
    depth: Optional[int] = None
    witness_union: Optional[UnionOfConjunctiveQueries] = None
    invariant: Optional[Invariant] = field(default=None, repr=False,
                                           compare=False)
    stats: Dict[str, int] = field(default_factory=dict, repr=False,
                                  compare=False)
    timings: Dict[str, float] = field(default_factory=dict, repr=False,
                                      compare=False)

    def __bool__(self):
        return bool(self.bounded)


def bounded_at_depth(program: Program, goal: str, depth: int,
                     method: str = "auto") -> bool:
    """Is Pi equivalent to its expansions of height <= depth?

    Only the forward containment is checked; the union of expansions is
    contained in Pi by construction (Proposition 2.6).
    """
    union = expansion_union(program, goal, depth)
    if not union.disjuncts:
        # No expansion exists at all: the goal relation is empty, which
        # is trivially bounded.
        return True
    return contained_in_ucq(program, goal, union, method=method).contained


_PROBE_LIMIT = 64        # cap on probed expansions per depth


def _engine_refutes_depth(program: Program, goal: str, depth: int,
                          union: UnionOfConjunctiveQueries,
                          engine: Optional[Engine]) -> bool:
    """The counterexample route, decided by the evaluation engine.

    An expansion of height beyond *depth* is itself contained in Pi
    (Proposition 2.6), so if its canonical database does not make the
    depth-*depth* union derive the frozen head, that expansion
    witnesses ``Pi not subseteq union`` and depth-*depth* boundedness
    is refuted without running the automata containment.  Sound only
    for safe programs (the caller guards).  The expansion stream is
    lazy, so probing stays cheap even for branching programs.
    """
    try:
        candidate = Program([theta.as_rule() for theta in union])
        probe = expansions(program, goal, depth + 1, exact_height=True)
        for theta in islice(probe, _PROBE_LIMIT):
            database, head_row = canonical_database(theta)
            result = evaluate(candidate, database, engine=engine)
            if head_row not in result.facts(goal):
                return True
    except ValidationError:
        # A probe that cannot be frozen proves nothing; fall through to
        # the automata containment.
        return False
    return False


def search_boundedness(program: Program, goal: str, max_depth: int = 4,
                       method: str = "auto",
                       engine: Optional[Engine] = None) -> BoundednessResult:
    """Search for a boundedness certificate up to ``max_depth``.

    Returns ``bounded=True`` with the certified depth and the
    equivalent union when found; otherwise ``bounded=None`` (unknown --
    boundedness is undecidable in general [GMSV93], so absence of a
    certificate proves nothing).  Nonrecursive programs are bounded by
    their dependence-graph depth and always certified.

    For safe programs, each depth first runs the cheap counterexample
    route through the evaluation engine: deeper expansions whose
    canonical databases escape the candidate union refute the depth
    without touching the automata machinery.  The probes run on
    *engine* when given, else on a throwaway engine, so their one-off
    candidate programs cannot churn a session's plan cache.
    """
    program.require_goal(goal)
    all_safe = all(rule.is_safe for rule in program.rules)
    probe_engine = engine or Engine()
    probe_s = containment_s = 0.0
    depths_probed = engine_refuted = containments_run = 0
    result = BoundednessResult(bounded=None)
    for depth in range(1, max_depth + 1):
        union = expansion_union(program, goal, depth)
        if not union.disjuncts:
            continue
        depths_probed += 1
        if all_safe:
            started = perf_counter()
            refuted = _engine_refutes_depth(program, goal, depth, union,
                                            probe_engine)
            probe_s += perf_counter() - started
            if refuted:
                engine_refuted += 1
                continue
        started = perf_counter()
        containments_run += 1
        forward = contained_in_ucq(program, goal, union, method=method)
        containment_s += perf_counter() - started
        if forward.contained:
            result = BoundednessResult(bounded=True, depth=depth,
                                       witness_union=union,
                                       invariant=forward.invariant)
            break
    result.stats = {"depths_probed": depths_probed,
                    "engine_refuted": engine_refuted,
                    "containments_run": containments_run}
    result.timings = {"probe_s": round(probe_s, 6),
                      "containment_s": round(containment_s, 6)}
    return result


#: The paper-facing name of the search (exported as
#: ``repro.decide_boundedness``).
decide_boundedness = search_boundedness
