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
at ``max_depth`` with verdict "unknown".

When the goal is the only IDB predicate of its slice, the rules map
the depth-k union ``U_k`` onto ``U_{k+1}``, so ``U_k`` is closed iff Pi
is bounded at depth k (the stage test of Naughton and Sagiv, PODS
1987) and the closure test
(:func:`~repro.core.containment.closure_certificate`) alone decides
each depth, without automata.  Any other program runs
:func:`~repro.core.containment.contained_in_ucq` per depth.  The
search reports the *minimal* certified depth.  A static depth bound
(the analyzer's H001 certificate,
:meth:`~repro.analysis.diagnostics.AnalysisReport.boundedness_certificate`)
is an upper bound only; its union is ``expansion_union(program, goal,
bound)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Optional, Tuple

from ..automata.kernel import Invariant
from ..cq.query import UnionOfConjunctiveQueries
from ..datalog.program import Program
from ..datalog.unfold import expansion_union
from .containment import closure_applies, closure_certificate, contained_in_ucq
from .tree_containment import ContainmentResult


@dataclass
class BoundednessResult:
    """Outcome of the boundedness search.

    ``bounded`` is True / False / None (None = unknown: unbounded or
    bound exceeds ``max_depth``).  On success ``depth`` is the
    certified bound and ``witness_union`` the equivalent union of
    conjunctive queries (a nonrecursive rewriting of the program);
    ``closure`` or ``invariant`` is the certificate of the containment
    in that union.  ``stats`` counts the search work
    (``depths_probed``; ``closure_tests``/``closure_decided``, the
    compositions tested and the depths decided by the closure test;
    ``probe_trees``/``probe_decided``, the same for the probes;
    ``containments_run``) and ``timings`` its seconds (``closure_s``,
    ``probe_s``, ``containment_s`` for the automata).
    """

    bounded: Optional[bool]
    depth: Optional[int] = None
    witness_union: Optional[UnionOfConjunctiveQueries] = None
    invariant: Optional[Invariant] = field(default=None, repr=False,
                                           compare=False)
    closure: Optional[Tuple] = field(default=None, repr=False, compare=False)
    stats: Dict[str, int] = field(default_factory=dict, repr=False,
                                  compare=False)
    timings: Dict[str, float] = field(default_factory=dict, repr=False,
                                      compare=False)

    def __bool__(self):
        return bool(self.bounded)


def bounded_at_depth(program: Program, goal: str, depth: int) -> bool:
    """Is Pi equivalent to its expansions of height <= depth?

    Only the forward containment is checked; the union of expansions is
    contained in Pi by construction (Proposition 2.6).
    """
    return _forward(program, goal,
                    expansion_union(program, goal, depth)).contained


def _forward(program: Program, goal: str,
             union: UnionOfConjunctiveQueries) -> ContainmentResult:
    """Decide ``Q_Pi subseteq union`` for a truncation *union*: by the
    closure test alone where it is exact, else by
    :func:`~repro.core.containment.contained_in_ucq`."""
    if not closure_applies(program, goal):
        return contained_in_ucq(program, goal, union)
    started = perf_counter()
    closure, composed = closure_certificate(program, goal, union)
    return ContainmentResult(
        closure is not None, closure=closure,
        stats={"probe_trees": 0, "probe_decided": 0,
               "closure_tests": composed, "closure_decided": 1},
        timings={"probe_s": 0.0, "closure_s": perf_counter() - started})


def search_boundedness(program: Program, goal: str,
                       max_depth: int = 4) -> BoundednessResult:
    """Search for a boundedness certificate up to ``max_depth``.

    Returns ``bounded=True`` with the certified depth and the
    equivalent union when found; otherwise ``bounded=None`` (unknown --
    boundedness is undecidable in general [GMSV93], so absence of a
    certificate proves nothing).  Nonrecursive programs are bounded by
    their dependence-graph depth and always certified.

    Each depth runs the closure test alone when it is exact, and one
    containment otherwise.  The search evaluates nothing, so it needs
    no engine.
    """
    program.require_goal(goal)
    stats = dict.fromkeys(("depths_probed", "closure_tests",
                           "closure_decided", "probe_trees",
                           "probe_decided", "containments_run"), 0)
    timings = dict.fromkeys(("closure_s", "probe_s", "containment_s"), 0.0)
    result = BoundednessResult(bounded=None)
    for depth in range(1, max_depth + 1):
        union = expansion_union(program, goal, depth)
        if not union.disjuncts:
            continue
        started = perf_counter()
        forward = _forward(program, goal, union)
        elapsed = perf_counter() - started
        stats["depths_probed"] += 1
        for key in ("closure_tests", "closure_decided", "probe_trees",
                    "probe_decided"):
            stats[key] += forward.stats[key]
        for key in ("closure_s", "probe_s"):
            timings[key] += forward.timings[key]
        if not (forward.stats["probe_decided"]
                or forward.stats["closure_decided"]):
            stats["containments_run"] += 1
            timings["containment_s"] += (elapsed - forward.timings["probe_s"]
                                         - forward.timings["closure_s"])
        if forward.contained:
            result = BoundednessResult(True, depth, union, forward.invariant,
                                       forward.closure)
            break
    result.stats = stats
    result.timings = {key: round(max(value, 0.0), 6)
                      for key, value in timings.items()}
    return result


#: The paper-facing name of the search (exported as
#: ``repro.decide_boundedness``).
decide_boundedness = search_boundedness
