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

Each depth's containment starts with the counterexample probe of
:func:`~repro.core.containment.contained_in_ucq`: a deeper expansion
that escapes the depth-k union rules out depth-k boundedness without
building any automaton, and the search continues deeper.  The search
always reports the *minimal* certified depth.  A static depth bound
(the analyzer's H001 certificate,
:meth:`~repro.analysis.diagnostics.AnalysisReport.boundedness_certificate`)
is an upper bound only; its union is ``expansion_union(program, goal,
bound)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Optional

from ..automata.kernel import Invariant
from ..cq.query import UnionOfConjunctiveQueries
from ..datalog.program import Program
from ..datalog.unfold import expansion_union
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
    work (``depths_probed``; ``probe_trees``/``probe_decided``, the
    expansions the probes tested and the depths they refuted;
    ``containments_run``) and ``timings`` its seconds (``probe_s``,
    ``containment_s`` for the automata).
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


def bounded_at_depth(program: Program, goal: str, depth: int) -> bool:
    """Is Pi equivalent to its expansions of height <= depth?

    Only the forward containment is checked; the union of expansions is
    contained in Pi by construction (Proposition 2.6).
    """
    union = expansion_union(program, goal, depth)
    if not union.disjuncts:
        # No expansion exists at all: the goal relation is empty, which
        # is trivially bounded.
        return True
    return contained_in_ucq(program, goal, union).contained


def search_boundedness(program: Program, goal: str,
                       max_depth: int = 4) -> BoundednessResult:
    """Search for a boundedness certificate up to ``max_depth``.

    Returns ``bounded=True`` with the certified depth and the
    equivalent union when found; otherwise ``bounded=None`` (unknown --
    boundedness is undecidable in general [GMSV93], so absence of a
    certificate proves nothing).  Nonrecursive programs are bounded by
    their dependence-graph depth and always certified.

    Each depth runs one containment, whose counterexample probe
    refutes the depth without the automata when a deeper expansion
    escapes the union.  The search evaluates nothing, so it needs no
    engine.
    """
    program.require_goal(goal)
    probe_s = containment_s = 0.0
    depths_probed = probe_trees = probe_decided = containments_run = 0
    result = BoundednessResult(bounded=None)
    for depth in range(1, max_depth + 1):
        union = expansion_union(program, goal, depth)
        if not union.disjuncts:
            continue
        depths_probed += 1
        started = perf_counter()
        forward = contained_in_ucq(program, goal, union)
        elapsed = perf_counter() - started
        probe_s += forward.timings["probe_s"]
        containment_s += elapsed - forward.timings["probe_s"]
        probe_trees += forward.stats["probe_trees"]
        probe_decided += forward.stats["probe_decided"]
        containments_run += 1 - forward.stats["probe_decided"]
        if forward.contained:
            result = BoundednessResult(bounded=True, depth=depth,
                                       witness_union=union,
                                       invariant=forward.invariant)
            break
    result.stats = {"depths_probed": depths_probed,
                    "probe_trees": probe_trees,
                    "probe_decided": probe_decided,
                    "containments_run": containments_run}
    result.timings = {"probe_s": round(probe_s, 6),
                      "containment_s": round(max(containment_s, 0.0), 6)}
    return result


#: The paper-facing name of the search (exported as
#: ``repro.decide_boundedness``).
decide_boundedness = search_boundedness
