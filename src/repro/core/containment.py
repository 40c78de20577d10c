"""Public containment API (Theorems 5.12, 6.4 and the classical
reverse direction).

The four containment shapes appearing in the paper:

=====================================  ==============================
direction                              procedure
=====================================  ==============================
recursive Pi  in  CQ / UCQ             proof-tree automata
                                       (Theorem 5.12; 2EXPTIME)
recursive Pi  in  nonrecursive Pi'     unfold Pi' to a UCQ, then the
                                       above (Theorem 6.4; 3EXPTIME)
CQ / UCQ  in  recursive Pi             canonical database + bottom-up
                                       evaluation [CK86, Sa88b]
nonrecursive Pi'  in  recursive Pi     unfold Pi', then the above
=====================================  ==============================

Each function here is the implementation itself: it resolves the
automaton caches and the evaluation engine from the ambient
:class:`repro.session.Session`, so the session a call runs in is the
one place its configuration is chosen.  The session's decision
methods call these functions with the session activated and wrap
their results in a :class:`~repro.session.Decision`.  The exact
(antichain-free) search, an ablation, is reached through
:func:`~repro.core.tree_containment.datalog_contained_in_ucq` and
:func:`~repro.core.word_path.datalog_contained_in_ucq_linear` directly.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product
from time import perf_counter
from typing import Optional, Tuple

from ..budget import check_deadline
from ..cq.canonical import canonical_database
from ..cq.containment import covering_disjunct, cq_contained_in_ucq
from ..cq.query import ConjunctiveQuery, UnionOfConjunctiveQueries
from ..datalog.database import Database
from ..datalog.engine import evaluate
from ..datalog.errors import ValidationError
from ..datalog.program import Program
from ..datalog.terms import Variable
from ..datalog.unfold import (compositions, expansion_derivations,
                              unfold_nonrecursive)
from ..trees.expansion import ExpansionTree, derivation_tree
from ..trees.proof import proof_tree_to_expansion_tree
from .tree_containment import ContainmentResult, datalog_contained_in_ucq
from .word_path import datalog_contained_in_ucq_linear, is_chain_program

#: Cap on the expansions one counterexample probe tests.
PROBE_TREES = 64


def probe_counterexample(program: Program, goal: str,
                         union: UnionOfConjunctiveQueries
                         ) -> Tuple[Optional[ExpansionTree], int]:
    """Look for an expansion of Pi that no disjunct of *union* contains.

    Every expansion lies in ``Q_Pi`` (Proposition 2.6), so one that no
    disjunct contains refutes ``Q_Pi subseteq union`` (Theorems 2.2,
    2.3).  Tests at most :data:`PROBE_TREES` expansions, in increasing
    height up to one past the union's largest disjunct in body atoms
    (a height-k truncation union is escaped at height k + 1).  Returns
    the first escaping expansion's unfolding tree, or None -- never
    "contained" -- and the number tested.  Unsafe programs are not
    probed: their unbound head variables range over the active
    domain, where a containment mapping decides nothing.
    """
    if not all(rule.is_safe for rule in program.rules):
        return None, 0
    top = 1 + max((len(theta.body) for theta in union), default=0)
    tested = 0
    for query, steps, subst in expansion_derivations(program, goal, top):
        if tested == PROBE_TREES:
            break
        check_deadline()
        tested += 1
        if not cq_contained_in_ucq(query, union):
            return derivation_tree(steps, subst, program.idb_predicates), tested
    return None, tested


#: One composition: rule ``program.rules[rule]`` with its i-th goal atom
#: replaced by disjunct ``choice[i]``; ``mapping`` maps disjunct ``cover``
#: onto it (both None when the heads do not unify).
ClosureStep = namedtuple("ClosureStep", "rule choice cover mapping")


def closure_applies(program: Program, goal: str) -> bool:
    """Are the rules for *goal* safe, naming no other IDB predicate?"""
    others = program.idb_predicates - {goal}
    return all(rule.is_safe and not rule.body_predicates() & others
               for rule in program.rules_for(goal))


def _tagged(query: ConjunctiveQuery, tag) -> ConjunctiveQuery:
    """*query* with each variable ``V`` renamed ``V/tag``."""
    return query.substitute({v: Variable(f"{v.name}/{tag}")
                             for v in query.variables})


def closure_certificate(program: Program, goal: str,
                        union: UnionOfConjunctiveQueries
                        ) -> Tuple[Optional[Tuple[ClosureStep, ...]], int]:
    """Prove ``Q_Pi subseteq union`` from ``T_Pi(union) subseteq union``
    (Sagiv's uniform containment [Sa88b], composition form): every rule,
    each goal atom replaced by a disjunct renamed apart (``V/r`` in the
    rule, ``V/i`` in the i-th disjunct) and unified at its head, must
    give a query some disjunct maps onto (Theorems 2.2/2.3).  Rules with
    the most goal atoms and the largest disjuncts go first, so a
    truncation union fails at once.  Returns one :class:`ClosureStep`
    per composition, or None (never "not contained"), and the number of
    compositions tested."""
    if not closure_applies(program, goal):
        return None, 0
    disjuncts = list(union)
    order = sorted(range(len(disjuncts)), key=lambda i: -len(disjuncts[i].body))
    rules = sorted((item for item in enumerate(program.rules)
                    if item[1].head.predicate == goal),
                   key=lambda item: -len(item[1].idb_body_atoms({goal})))
    steps = []
    for index, rule in rules:
        calls = len(rule.idb_body_atoms({goal}))
        for choice, composed in compositions(
                _tagged(ConjunctiveQuery.from_rule(rule), "r"),
                {goal: [disjuncts[i] for i in order]}, _tagged):
            if composed is None:  # a dead prefix: every extension is dead
                for tail in product(range(len(order)),
                                    repeat=calls - len(choice)):
                    check_deadline()
                    steps.append(ClosureStep(
                        index, tuple(order[k] for k in choice + tail),
                        None, None))
                continue
            cover = covering_disjunct(composed, disjuncts)
            if cover is None:
                return None, len(steps) + 1
            steps.append(ClosureStep(index, tuple(order[k] for k in choice),
                                     *cover))
    return tuple(steps), len(steps)


def contained_in_ucq(program: Program, goal: str,
                     union: UnionOfConjunctiveQueries) -> ContainmentResult:
    """Decide ``Q_Pi subseteq union`` (Theorem 5.12).

    :func:`probe_counterexample` runs first: its witness answers "not
    contained" without any automaton.  Then :func:`closure_certificate`
    may answer "contained" (``result.closure``).  Otherwise the
    program's shape picks the automata: the word pathway for a
    chain-form program, the tree pathway for any other.  ``stats``
    gain ``probe_trees``/``probe_decided`` and ``closure_tests``/
    ``closure_decided``, ``timings`` ``probe_s`` and ``closure_s``.
    """
    program.require_goal(goal)
    started = perf_counter()
    witness, tested = probe_counterexample(program, goal, union)
    probe_s = perf_counter() - started
    closure, composed = (closure_certificate(program, goal, union)
                         if witness is None else (None, 0))
    closure_s = perf_counter() - started - probe_s
    if witness is not None:
        result = ContainmentResult(False, witness)
    elif closure is not None:
        result = ContainmentResult(True, closure=closure)
    elif is_chain_program(program):
        result = datalog_contained_in_ucq_linear(program, goal, union)
    else:
        result = datalog_contained_in_ucq(program, goal, union)
    result.stats.update(probe_trees=tested,
                        probe_decided=int(witness is not None),
                        closure_tests=composed,
                        closure_decided=int(closure is not None))
    result.timings["probe_s"] = round(probe_s, 6)
    result.timings["closure_s"] = round(closure_s, 6)
    return result


def contained_in_cq(program: Program, goal: str,
                    theta: ConjunctiveQuery) -> ContainmentResult:
    """Decide ``Q_Pi subseteq theta`` (Corollary 5.7)."""
    union = UnionOfConjunctiveQueries([theta], theta.arity)
    return contained_in_ucq(program, goal, union)


def contained_in_nonrecursive(program: Program, goal: str,
                              nonrecursive: Program,
                              nonrecursive_goal: Optional[str] = None
                              ) -> ContainmentResult:
    """Decide ``Q_Pi subseteq Q'_Pi'`` for nonrecursive Pi'
    (Theorem 6.4): rewrite Pi' as a union of conjunctive queries (the
    potentially exponential step whose necessity Section 6 proves) and
    decide containment in the union.  ``stats`` gain
    ``union_disjuncts``, ``timings`` ``unfold_s``."""
    started = perf_counter()
    union = unfold_nonrecursive(nonrecursive, nonrecursive_goal or goal)
    unfold_s = perf_counter() - started
    result = contained_in_ucq(program, goal, union)
    result.timings["unfold_s"] = round(unfold_s, 6)
    result.stats["union_disjuncts"] = len(union)
    return result


def cq_contained_in_datalog(theta: ConjunctiveQuery, program: Program,
                            goal: str) -> bool:
    """Decide ``theta subseteq Q_Pi`` by the canonical-database test
    [CK86, Sa88b]: freeze theta's variables into constants, evaluate Pi
    bottom-up on the frozen body (on the ambient session's engine), and
    check that the frozen head is derived.

    Requires a safe theta (an unsafe query cannot be contained in a
    Datalog program under active-domain semantics unless its frozen
    witness is derived for every head instantiation, which the frozen
    test cannot certify); raises :class:`ValidationError` otherwise.
    """
    program.require_goal(goal)
    if not theta.is_safe:
        raise ValidationError(
            f"canonical-database test requires a safe query, got {theta}"
        )
    database, head_row = canonical_database(theta)
    result = evaluate(program, database)
    return head_row in result.facts(goal)


def ucq_contained_in_datalog(union: UnionOfConjunctiveQueries,
                             program: Program, goal: str) -> bool:
    """Decide ``union subseteq Q_Pi`` disjunct-wise (Theorem 2.3)."""
    return all(cq_contained_in_datalog(theta, program, goal)
               for theta in union)


def nonrecursive_contained_in_datalog(nonrecursive: Program,
                                      nonrecursive_goal: str,
                                      program: Program, goal: str) -> bool:
    """Decide ``Q'_Pi' subseteq Q_Pi`` for nonrecursive Pi'."""
    union = unfold_nonrecursive(nonrecursive, nonrecursive_goal)
    return ucq_contained_in_datalog(union, program, goal)


# perfbench/spans.py patches this name (ROADMAP items 7 and 9).
decide_nonrecursive_in_datalog = nonrecursive_contained_in_datalog


# ----------------------------------------------------------------------
# Counterexample extraction.
# ----------------------------------------------------------------------

def counterexample_database(result: ContainmentResult,
                            program: Program) -> Tuple[Database, Tuple]:
    """Turn a non-containment witness into a concrete database.

    The witness -- the automata's proof tree or the counterexample
    probe's unfolding tree -- is renamed into an expansion tree
    (Proposition 5.5's renaming; an unfolding tree only gets its
    variables renamed), its conjunctive query is frozen into a
    canonical database D, and the frozen head row is returned: running
    Pi on D derives the row, while the union does not produce it -- a
    machine-checkable refutation.  Accepts a containment or
    equivalence :class:`~repro.session.Decision` /
    :class:`~repro.core.equivalence.EquivalenceResult` too (the failed
    forward direction is the refuted containment).
    """
    unwrapped = getattr(result, "raw", result)
    if unwrapped is None:
        # A payload-stripped Decision (the shape the batch runner ships
        # across process boundaries): the witness is gone.
        raise ValidationError(
            "decision carries no witness payload (stripped for "
            "transport); re-run the containment in-process to extract "
            "a counterexample"
        )
    result = unwrapped
    if hasattr(result, "forward_witness"):  # an equivalence outcome
        result = ContainmentResult(contained=result.forward_holds,
                                   witness=result.forward_witness)
    if not hasattr(result, "contained"):  # e.g. a reverse-direction bool
        raise ValidationError(
            f"no proof-tree witness in {type(result).__name__!r} -- only "
            "forward (automata) containment outcomes carry one"
        )
    if result.contained or result.witness is None:
        raise ValidationError("containment holds; no counterexample exists")
    expansion = proof_tree_to_expansion_tree(result.witness)
    query = expansion.to_query(program)
    return canonical_database(query)
