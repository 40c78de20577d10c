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
automaton caches and, when ``engine`` is not given, the evaluation
engine from the ambient :class:`repro.session.Session`.  The session's
decision methods call these functions and wrap their results in a
:class:`~repro.session.Decision`.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..cq.canonical import canonical_database
from ..cq.query import ConjunctiveQuery, UnionOfConjunctiveQueries
from ..datalog.database import Database
from ..datalog.engine import Engine, evaluate
from ..datalog.errors import ValidationError
from ..datalog.program import Program
from ..datalog.unfold import unfold_nonrecursive
from ..trees.proof import proof_tree_to_expansion_tree
from .tree_containment import ContainmentResult, datalog_contained_in_ucq
from .word_path import datalog_contained_in_ucq_linear, is_chain_program


def contained_in_ucq(program: Program, goal: str,
                     union: UnionOfConjunctiveQueries,
                     method: str = "auto",
                     use_antichain: bool = True) -> ContainmentResult:
    """Decide ``Q_Pi subseteq union`` (Theorem 5.12).

    ``method``: ``"tree"`` forces the tree-automaton pathway,
    ``"word"`` the word-automaton pathway (chain-form programs only),
    ``"auto"`` picks the word pathway when available.
    """
    program.require_goal(goal)
    if method not in ("auto", "tree", "word"):
        raise ValidationError(f"unknown containment method {method!r}")
    if method == "word" or (method == "auto" and is_chain_program(program)):
        return datalog_contained_in_ucq_linear(
            program, goal, union, use_antichain=use_antichain
        )
    return datalog_contained_in_ucq(program, goal, union,
                                    use_antichain=use_antichain)


def contained_in_cq(program: Program, goal: str, theta: ConjunctiveQuery,
                    method: str = "auto",
                    use_antichain: bool = True) -> ContainmentResult:
    """Decide ``Q_Pi subseteq theta`` (Corollary 5.7)."""
    union = UnionOfConjunctiveQueries([theta], theta.arity)
    return contained_in_ucq(program, goal, union, method=method,
                            use_antichain=use_antichain)


def contained_in_nonrecursive(program: Program, goal: str,
                              nonrecursive: Program,
                              nonrecursive_goal: Optional[str] = None,
                              method: str = "auto") -> ContainmentResult:
    """Decide ``Q_Pi subseteq Q'_Pi'`` for nonrecursive Pi'
    (Theorem 6.4): rewrite Pi' as a union of conjunctive queries (the
    potentially exponential step whose necessity Section 6 proves) and
    decide containment in the union."""
    union = unfold_nonrecursive(nonrecursive, nonrecursive_goal or goal)
    return contained_in_ucq(program, goal, union, method=method)


def cq_contained_in_datalog(theta: ConjunctiveQuery, program: Program,
                            goal: str,
                            engine: Optional[Engine] = None) -> bool:
    """Decide ``theta subseteq Q_Pi`` by the canonical-database test
    [CK86, Sa88b]: freeze theta's variables into constants, evaluate Pi
    bottom-up on the frozen body, and check that the frozen head is
    derived.

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
    result = evaluate(program, database, engine=engine)
    return head_row in result.facts(goal)


def ucq_contained_in_datalog(union: UnionOfConjunctiveQueries,
                             program: Program, goal: str,
                             engine: Optional[Engine] = None) -> bool:
    """Decide ``union subseteq Q_Pi`` disjunct-wise (Theorem 2.3)."""
    return all(cq_contained_in_datalog(theta, program, goal, engine=engine)
               for theta in union)


def nonrecursive_contained_in_datalog(nonrecursive: Program,
                                      nonrecursive_goal: str,
                                      program: Program, goal: str,
                                      engine: Optional[Engine] = None) -> bool:
    """Decide ``Q'_Pi' subseteq Q_Pi`` for nonrecursive Pi'."""
    union = unfold_nonrecursive(nonrecursive, nonrecursive_goal)
    return ucq_contained_in_datalog(union, program, goal, engine=engine)


# perfbench/spans.py patches this name (ROADMAP item 4).
decide_nonrecursive_in_datalog = nonrecursive_contained_in_datalog


# ----------------------------------------------------------------------
# Counterexample extraction.
# ----------------------------------------------------------------------

def counterexample_database(result: ContainmentResult,
                            program: Program) -> Tuple[Database, Tuple]:
    """Turn a non-containment witness into a concrete database.

    The witness proof tree is renamed into an expansion tree
    (Proposition 5.5's renaming), its conjunctive query is frozen into
    a canonical database D, and the frozen head row is returned:
    running Pi on D derives the row, while the union does not produce
    it -- a machine-checkable refutation.  Accepts a containment or
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
