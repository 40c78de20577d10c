"""Delta-debugging shrinker for diverging fuzz cases.

:func:`ddmin` is the classic Zeller/Hildebrandt 1-minimal reduction
over any item sequence; :func:`shrink_case` applies it structurally to
a :class:`~repro.fuzz.harness.FuzzCase` -- whole rules first, then per
rule the body atoms, then EDB facts, then union disjuncts -- re-running
the differential after every candidate deletion and keeping only
deletions that preserve the divergence.

Two properties matter for trustworthiness of the minimized artifact:

* **Exceptions are "not failing".**  A candidate that makes the
  harness *crash* (empty body after atom removal, goal predicate
  deleted, arity mismatch) is rejected, not reported -- the shrinker
  only ever returns cases that still exhibit the *original* kind of
  divergence, so the emitted regression scenario really reproduces the
  bug, not an artifact of the reduction.
* **Re-checked ground truth.**  Removing rules or facts changes the
  case's semantics, so a drawn case's constructed ``expected`` verdict
  does not survive shrinking.  The failing-predicate used here is
  *cross-cell disagreement only* (``against="baseline"``); the caller
  re-derives expected values from the reference cell when persisting
  the minimized case (:mod:`repro.fuzz.regressions`).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, List, Optional, Sequence, TypeVar

from ..cq.query import UnionOfConjunctiveQueries
from ..datalog.database import Database
from ..datalog.program import Program
from ..datalog.rules import Rule
from .harness import FuzzCase, run_case

T = TypeVar("T")


def ddmin(items: Sequence[T],
          failing: Callable[[Sequence[T]], bool]) -> List[T]:
    """The minimal failing subsequence of *items* under *failing*.

    Classic delta debugging: try removing chunks at increasing
    granularity; whenever a reduced sequence still fails, restart from
    it.  The result is 1-minimal -- removing any single remaining item
    makes the failure disappear.  *failing* must be deterministic; it
    is never called on the full input (assumed failing) and never on
    the empty sequence unless a chunk removal produced it.
    """
    items = list(items)
    chunks = 2
    while len(items) >= 2:
        size = max(1, len(items) // chunks)
        reduced = None
        for start in range(0, len(items), size):
            candidate = items[:start] + items[start + size:]
            if candidate and failing(candidate):
                reduced = candidate
                break
        if reduced is not None:
            items = reduced
            chunks = max(2, chunks - 1)
        elif size == 1:
            break
        else:
            chunks = min(len(items), chunks * 2)
    if len(items) == 1 and failing([]):
        items = []
    return items


def _safe(check: Callable[[FuzzCase], bool]) -> Callable[[FuzzCase], bool]:
    def guarded(case: FuzzCase) -> bool:
        try:
            return check(case)
        except Exception:
            return False
    return guarded


def still_diverges(case: FuzzCase, *, matrix: str = "full",
                   mutate=None) -> bool:
    """Whether *case* still shows a cross-cell (baseline) divergence.

    Ground-truth divergences are ignored on purpose: ``expected`` was
    constructed for the original draw and means nothing for a shrunk
    variant (see module docs).
    """
    _verdicts, divergences = run_case(case, matrix=matrix, mutate=mutate)
    return any(d.against == "baseline" for d in divergences)


def shrink_case(case: FuzzCase,
                failing: Optional[Callable[[FuzzCase], bool]] = None,
                *, matrix: str = "full", mutate=None) -> FuzzCase:
    """The 1-minimal variant of *case* that still satisfies *failing*
    (default: :func:`still_diverges` under the same matrix/mutator the
    sweep used).

    Reduction order -- each pass runs :func:`ddmin` over one structural
    axis, feeding its result to the next:

    1. whole program rules,
    2. body atoms of each surviving rule (head kept),
    3. EDB facts (evaluation cases),
    4. union disjuncts (containment cases).
    """
    if failing is None:
        def failing(c: FuzzCase) -> bool:
            return still_diverges(c, matrix=matrix, mutate=mutate)
    check = _safe(failing)
    if not check(case):
        return case

    # Pass 1: whole rules.
    rules = list(case.program.rules)
    rules = ddmin(rules, lambda rs: check(
        replace(case, program=Program(tuple(rs)))))
    case = replace(case, program=Program(tuple(rules)))

    # Pass 2: body atoms, one rule at a time.
    for position in range(len(case.program.rules)):
        def with_body(atoms, position=position):
            rules = list(case.program.rules)
            rules[position] = Rule(rules[position].head, tuple(atoms))
            return replace(case, program=Program(tuple(rules)))
        body = ddmin(list(case.program.rules[position].body),
                     lambda atoms: check(with_body(atoms)))
        case = with_body(body)

    # Pass 3: EDB facts.
    if case.database is not None:
        ordered = sorted(case.database.facts(),
                         key=lambda fact: (fact[0],
                                           [repr(c.value) for c in fact[1]]))
        facts = ddmin(ordered, lambda fs: check(
            replace(case, database=Database.from_facts(fs))))
        case = replace(case, database=Database.from_facts(facts))

    # Pass 4: union disjuncts.
    if case.union is not None and len(case.union) > 1:
        disjuncts = ddmin(list(case.union), lambda ds: check(
            replace(case, union=UnionOfConjunctiveQueries(
                ds, arity=case.union.arity))))
        if disjuncts:
            case = replace(case, union=UnionOfConjunctiveQueries(
                disjuncts, arity=case.union.arity))

    return case
