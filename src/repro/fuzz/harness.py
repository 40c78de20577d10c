"""The differential fuzz harness: seed-deterministic cases, full
config matrix, reference oracles.

A :class:`FuzzCase` is one drawn workload: a random program
(:func:`repro.workloads.generators.random_program` and the labeled
decision families) plus, for evaluation cases, an EDB drawn from the
six edge families (chain / grid / star / random / power-law /
road-network).  :func:`run_case` executes the case through the full
configuration matrix and reports every :class:`Divergence`:

* **evaluation** cases run every engine cell of :data:`EVAL_MATRIX`
  (backend x strategy) and compare the complete fixpoint -- per-IDB
  row counts and process-independent row checksums -- against the
  interpretive naive engine, the repo's reference semantics;
* **decision** cases (containment / boundedness / equivalence) run
  once and are checked from both sides: a positive containment's
  certificate goes through its checker
  (:func:`~repro.core.certificate.check_certificate`), a negative one's
  witness is refuted on its counterexample database
  (:func:`~repro.core.certificate.witness_refutes`),
  and the verdict is compared against the ground truth the generator
  attached by construction;
* every case additionally runs the **analyzer soundness
  differential** (:func:`analysis_divergences`): the static analyzer
  (:mod:`repro.analysis`) is cross-checked against the real
  procedures -- E001-clean iff the ``validate`` gate accepts, drawn
  hazards (unsafe heads, undefined goals) flagged and rejected with
  typed errors, and every H001 boundedness certificate confirmed by
  the search-based decision procedure.

Everything is deterministic in ``(seed, index)``: the same draw on any
machine yields byte-identical programs, databases, and expected
verdicts, so a CI failure replays locally from its seed alone.

The ``mutate`` hook exists for the harness's own test: it intercepts
each computed verdict (``mutate(case, label, verdict) -> verdict``),
so a planted corruption must be caught as a divergence and must
survive shrinking (``tests/test_fuzz.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core.certificate import (CertificateError, check_certificate,
                                witness_refutes)
from ..cq.query import UnionOfConjunctiveQueries
from ..datalog.atoms import Atom
from ..datalog.database import Database
from ..datalog.engine import Engine, EngineConfig
from ..datalog.errors import UnsafeProgramError, ValidationError
from ..datalog.parser import parse_program
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.terms import Variable
from ..datalog.unfold import expansion_union, unfold_nonrecursive
from ..session import current_session, rows_checksum
from ..workloads import generators as gen

#: Engine cells of the evaluation differential (label -> config).
#: ``interpretive-naive`` is the oracle: the per-tuple evaluator
#: running plain naive rounds -- the most elementary semantics in the
#: repo, against which the semi-naive and columnar cells must agree
#: bit-for-bit.  The columnar cells run the production batch kernels
#: (C-level probe fan-out, radix hash joins, fused filter+project).
EVAL_MATRIX: Dict[str, EngineConfig] = {
    "interpretive-naive": EngineConfig(compiled=False, strategy="naive"),
    "interpretive-seminaive": EngineConfig(compiled=False,
                                           strategy="seminaive"),
    "columnar-naive": EngineConfig(compiled=True, strategy="naive"),
    "columnar-seminaive": EngineConfig(compiled=True, strategy="seminaive"),
}

EVAL_BASELINE = "interpretive-naive"

#: The quick matrix: one strategy per backend (what ``--matrix quick``
#: selects; the full matrix is the default).
EVAL_MATRIX_QUICK = {
    label: config for label, config in EVAL_MATRIX.items()
    if label.endswith("-seminaive") or label == EVAL_BASELINE
}

#: The label of a decision case's one cell.
DECISION_CELL = "decision"

#: Case kinds in draw rotation: evaluation every other draw (it has
#: the widest config matrix), the three decision kinds interleaved.
KIND_ROTATION = ("evaluation", "containment", "evaluation",
                 "boundedness", "evaluation", "equivalence")


@dataclass
class FuzzCase:
    """One drawn differential workload (self-describing and
    reconstructible: ``seed``/``index`` replay the draw)."""

    name: str
    kind: str
    seed: int
    index: int
    program: Program
    goal: str
    database: Optional[Database] = None
    union: Optional[UnionOfConjunctiveQueries] = None
    nonrecursive: Optional[Program] = None
    nonrecursive_goal: Optional[str] = None
    max_depth: int = 3
    #: Ground truth attached by the generator's construction, or None
    #: when only cross-cell agreement is checkable (evaluation cases).
    expected: Optional[Dict] = None
    meta: Dict = field(default_factory=dict)


@dataclass
class Divergence:
    """One observed mismatch: a matrix cell whose verdict differs from
    the baseline cell (``against="baseline"``), a baseline verdict
    contradicting the constructed ground truth
    (``against="expected"``), a positive containment whose certificate
    its checker rejects (``against="certificate"``), a negative one
    whose witness does not refute it (``against="witness"``), or a
    static-analyzer claim contradicted by the real procedures
    (``against="analyzer"``)."""

    case: FuzzCase
    label: str
    against: str
    verdict: Dict
    reference: Dict

    def describe(self) -> str:
        return (f"{self.case.name}: cell {self.label!r} diverges from "
                f"{self.against} ({_verdict_diff(self.verdict, self.reference)})")


def _verdict_diff(verdict: Dict, reference: Dict) -> str:
    keys = sorted(set(verdict) | set(reference))
    parts = [f"{key}: {verdict.get(key)!r} != {reference.get(key)!r}"
             for key in keys if verdict.get(key) != reference.get(key)]
    return "; ".join(parts) or "identical (?)"


# ----------------------------------------------------------------------
# Case drawing.
# ----------------------------------------------------------------------

def _case_rng(seed: int, index: int) -> Tuple[int, random.Random]:
    sub = (seed * 1_000_003 + index) & 0x7FFFFFFF
    return sub, random.Random(sub)


def _draw_edges(rng: random.Random, sub: int) -> List[Tuple[str, str]]:
    family = rng.randrange(6)
    if family == 0:
        return gen.chain_edges(rng.randint(3, 24))
    if family == 1:
        return gen.grid_edges(rng.randint(2, 5), rng.randint(2, 5))
    if family == 2:
        return gen.star_edges(rng.randint(2, 4), rng.randint(2, 5))
    if family == 3:
        return gen.random_graph_edges(rng.randint(4, 12),
                                      rng.randint(6, 30), seed=sub)
    if family == 4:
        return gen.power_law_edges(rng.randint(5, 14),
                                   rng.randint(8, 40), seed=sub)
    return gen.road_network_edges(rng.randint(2, 4), rng.randint(2, 4),
                                  seed=sub)


#: XOR salt separating the hazard draw stream from the main case
#: stream: hazards consume their own :class:`random.Random`, so adding
#: (or re-weighting) hazards never perturbs the byte-identical
#: program/EDB draws that existing regression seeds pin.
_HAZARD_SALT = 0x5AFE_C0DE


def _draw_hazard(sub: int, program: Program, meta: Dict) -> Program:
    """Occasionally plant a deliberate static-analysis hazard in an
    evaluation draw: an unsafe rule (unbound head variable -> E001) or
    a probe for a goal predicate the program never defines (-> E002).
    The analyzer must flag these and the engines must reject them with
    a *typed* error -- :func:`analysis_divergences` asserts both."""
    hazard_rng = random.Random(sub ^ _HAZARD_SALT)
    roll = hazard_rng.random()
    if roll < 0.12:
        anchors = sorted(program.edb_predicates)
        if not anchors:
            return program
        anchor = anchors[hazard_rng.randrange(len(anchors))]
        bound = Variable("HzBound")
        body = Atom(anchor, (bound,) * program.arity[anchor])
        head = Atom("hazard_unsafe", (bound, Variable("HzFree")))
        meta["hazard"] = "unsafe-head"
        return program.extend([Rule(head, (body,))])
    if roll < 0.24:
        goal = "hazard_missing"
        while goal in program.predicates:
            goal += "_x"
        meta["hazard"] = "undefined-goal"
        meta["hazard_goal"] = goal
    return program


def _truncation_rewriting(program: Program) -> Program:
    """The depth-2 truncation of an :func:`unbounded_program` instance
    (its recursive call replaced by the base relation): backward
    containment holds (every disjunct is an expansion), forward fails
    (length-2 chains are not covered) -- ground truth by the
    transitive-closure argument of the paper's Example 1.1 analysis."""
    edge = next(
        atom.predicate
        for rule in program.rules
        for atom in rule.body
        if atom.predicate not in program.idb_predicates
        and atom.predicate != "base"
    )
    return parse_program(
        f"""
        p(X, Y) :- base(X, Y).
        p(X, Y) :- {edge}(X, Z), base(Z, Y).
        """
    )


def draw_case(seed: int, index: int) -> FuzzCase:
    """The deterministic case for ``(seed, index)``.

    Kinds rotate through :data:`KIND_ROTATION`; every random draw
    comes from ``Random(seed * 1_000_003 + index)``, so the case --
    program, EDB, expected verdict -- is identical on every machine
    and Python version.
    """
    sub, rng = _case_rng(seed, index)
    kind = KIND_ROTATION[index % len(KIND_ROTATION)]
    name = f"fuzz_{kind}_s{seed}_i{index}"

    if kind == "evaluation":
        program = gen.random_program(sub, max_rules=4)
        edges = _draw_edges(rng, sub)
        predicates = tuple(sorted(program.edb_predicates)) or ("edge",)
        database = gen.edges_database(edges, predicates)
        meta = {"edges": len(edges), "predicates": list(predicates)}
        program = _draw_hazard(sub, program, meta)
        return FuzzCase(name=name, kind=kind, seed=seed, index=index,
                        program=program, goal="p", database=database,
                        meta=meta)

    if kind == "containment":
        shape = rng.randrange(3)
        if shape == 0:
            body = rng.randint(1, 2)
            program = gen.sirup(body, seed=sub)
            union = gen.sirup_covering_union(body, seed=sub)
            expected = {"contained": True}
        elif shape == 1:
            body = rng.randint(1, 2)
            program = gen.sirup(body, seed=sub)
            covering = list(gen.sirup_covering_union(body, seed=sub))
            union = UnionOfConjunctiveQueries(covering[1:])
            expected = {"contained": False}
        else:
            program = gen.unbounded_program(seed=sub)
            union = expansion_union(program, "p", rng.randint(1, 2))
            expected = {"contained": False}
        return FuzzCase(name=name, kind=kind, seed=seed, index=index,
                        program=program, goal="p", union=union,
                        expected=expected, meta={"shape": shape})

    if kind == "boundedness":
        if rng.random() < 0.5:
            program = gen.bounded_program(rng.randint(1, 3), seed=sub)
            expected = {"bounded": True, "depth": 2}
        else:
            program = gen.unbounded_program(seed=sub)
            expected = {"bounded": None, "depth": None}
        return FuzzCase(name=name, kind=kind, seed=seed, index=index,
                        program=program, goal="p", max_depth=3,
                        expected=expected)

    # equivalence
    if rng.random() < 0.5:
        guards = rng.randint(1, 3)
        program = gen.bounded_program(guards, seed=sub)
        nonrecursive = gen.bounded_rewriting(guards, seed=sub)
        expected = {"equivalent": True, "forward": True, "backward": True}
    else:
        program = gen.unbounded_program(seed=sub)
        nonrecursive = _truncation_rewriting(program)
        expected = {"equivalent": False, "forward": False, "backward": True}
    return FuzzCase(name=name, kind=kind, seed=seed, index=index,
                    program=program, goal="p", nonrecursive=nonrecursive,
                    expected=expected)


# ----------------------------------------------------------------------
# Differential execution.
# ----------------------------------------------------------------------

def evaluation_verdict(case: FuzzCase, config: EngineConfig) -> Dict:
    """The complete-fixpoint verdict of *case* on one engine cell:
    per-IDB-predicate row counts and checksums, plus the fixpoint
    flag.  A fresh engine per call keeps plan caches from leaking
    state between cells.

    Columnar cells report the result's own ``count``/``checksum``
    (the columnar id-column digest); the interpretive oracle digests
    its :class:`~repro.datalog.terms.Constant` rows with
    :func:`~repro.session.rows_checksum`, so the differential checks
    the id-column digest against an independent path."""
    result = Engine(config).evaluate(case.program, case.database)
    verdict: Dict = {"fixpoint": result.fixpoint}
    for predicate in sorted(case.program.idb_predicates):
        if config.compiled:
            entry = {"count": result.count(predicate),
                     "checksum": result.checksum(predicate)}
        else:
            rows = result.facts(predicate)
            entry = {"count": len(rows), "checksum": rows_checksum(rows)}
        verdict[predicate] = entry
    return verdict


def decision_outcome(case: FuzzCase) -> Tuple[Dict, object]:
    """The verdict of a decision case and the procedure's own result
    (which carries the certificate or the witness), via the ambient
    session's :meth:`~repro.session.Session.run_payload` -- the path
    the scenario registry uses."""
    payload: Dict = {"program": case.program, "goal": case.goal}
    if case.kind == "containment":
        payload["union"] = case.union
    elif case.kind == "equivalence":
        payload["nonrecursive"] = case.nonrecursive
        payload["nonrecursive_goal"] = case.nonrecursive_goal
    elif case.kind == "boundedness":
        payload["max_depth"] = case.max_depth
    decision = current_session().run_payload(case.kind, payload)
    return decision.verdict, decision.raw


def decision_verdict(case: FuzzCase) -> Dict:
    """The verdict of a decision case."""
    return decision_outcome(case)[0]


def proof_divergences(case: FuzzCase, verdict: Dict,
                      result) -> List[Divergence]:
    """Check a decision from both sides.

    A forward containment that holds must come with a closure
    certificate or an invariant its checker accepts
    (``against="certificate"``); one that fails must come with a
    witness whose counterexample database refutes it
    (``against="witness"``).  Boundedness checks the certificate of its
    certified depth; an unknown boundedness verdict carries neither.
    """
    if case.kind == "boundedness":
        holds, union = result.bounded, result.witness_union
    elif case.kind == "equivalence":
        holds = result.forward_holds
        union = unfold_nonrecursive(case.nonrecursive,
                                    case.nonrecursive_goal or case.goal)
    else:
        holds, union = result.contained, case.union
    if holds:
        try:
            check_certificate(case.program, case.goal, union, result)
        except CertificateError as exc:
            return [Divergence(case=case, label="checker",
                               against="certificate", verdict=verdict,
                               reference={"certificate": str(exc)})]
    elif case.kind != "boundedness" and not witness_refutes(
            case.program, case.goal, union, result):
        return [Divergence(case=case, label="oracle", against="witness",
                           verdict=verdict, reference={"refuted": False})]
    return []


def analysis_divergences(case: FuzzCase) -> List[Divergence]:
    """The analyzer soundness differential for *case*
    (``against="analyzer"`` divergences).

    Three cross-checks tie :mod:`repro.analysis` to the real decision
    procedures:

    * **validate-gate biconditional** (evaluation cases): the analyzer
      reports E001 *iff* an engine with ``EngineConfig(validate=True)``
      rejects the program with :class:`UnsafeProgramError`; every
      E001-clean program must evaluate without an engine-level
      validation error.
    * **hazard assertions**: a deliberately drawn hazard
      (:func:`_draw_hazard`) must be flagged -- E001 for an unbound
      head variable, E002 for an undefined goal -- and the engine-side
      rejection must be a *typed* :class:`ValidationError`, never an
      untyped crash.
    * **certificate soundness**: when the analyzer issues an H001
      syntactic-boundedness certificate, the search-based boundedness
      procedure must confirm ``bounded`` at the certified depth bound.
    """
    from ..analysis import analyze_program

    report = analyze_program(case.program, case.goal, plans=False)
    codes = sorted(set(report.codes()))
    unsafe = any(diag.code == "E001" for diag in report.errors)
    divergences: List[Divergence] = []

    if case.database is not None:
        rejected = False
        try:
            Engine(EngineConfig(validate=True)).evaluate(case.program,
                                                         case.database)
        except UnsafeProgramError:
            rejected = True
        if rejected != unsafe:
            divergences.append(Divergence(
                case=case, label="validate-gate", against="analyzer",
                verdict={"rejected": rejected},
                reference={"unsafe": unsafe, "codes": codes}))

    hazard = case.meta.get("hazard")
    if hazard == "unsafe-head" and not unsafe:
        divergences.append(Divergence(
            case=case, label="hazard-unsafe-head", against="analyzer",
            verdict={"codes": codes}, reference={"expected": "E001"}))
    elif hazard == "undefined-goal":
        hazard_goal = case.meta["hazard_goal"]
        hazard_report = analyze_program(case.program, hazard_goal,
                                        plans=False)
        flagged = "E002" in hazard_report.codes()
        try:
            case.program.require_goal(hazard_goal)
            typed_rejection = False
        except ValidationError:
            typed_rejection = True
        if not (flagged and typed_rejection):
            divergences.append(Divergence(
                case=case, label="hazard-undefined-goal",
                against="analyzer",
                verdict={"flagged": flagged,
                         "typed_rejection": typed_rejection},
                reference={"expected": "E002 + ValidationError"}))

    certificate = report.boundedness_certificate()
    if certificate is not None:
        payload = {"program": case.program, "goal": case.goal,
                   "max_depth": certificate["depth_bound"]}
        verdict = current_session().run_payload("boundedness",
                                                payload).verdict
        if verdict.get("bounded") is not True:
            divergences.append(Divergence(
                case=case, label="bounded-certificate", against="analyzer",
                verdict=dict(verdict), reference=dict(certificate)))
    return divergences


Mutator = Callable[[FuzzCase, str, Dict], Dict]


def run_case(case: FuzzCase, *, matrix: str = "full",
             mutate: Optional[Mutator] = None,
             ) -> Tuple[Dict[str, Dict], List[Divergence]]:
    """Run *case* through its configuration matrix.

    Returns ``(verdicts, divergences)``: the per-cell verdicts and
    every mismatch -- evaluation cells against the baseline cell, a
    decision against its certificate or witness
    (:func:`proof_divergences`), the baseline against the case's
    constructed ground truth when the generator attached one, and the
    analyzer soundness differential (:func:`analysis_divergences`).
    """
    verdicts: Dict[str, Dict] = {}
    divergences: List[Divergence] = []
    if case.kind == "evaluation":
        cells = EVAL_MATRIX if matrix == "full" else EVAL_MATRIX_QUICK
        baseline_label = EVAL_BASELINE
        for label, config in cells.items():
            verdict = evaluation_verdict(case, config)
            verdicts[label] = mutate(case, label, verdict) if mutate else verdict
    else:
        baseline_label = DECISION_CELL
        verdict, result = decision_outcome(case)
        divergences.extend(proof_divergences(case, verdict, result))
        verdicts[baseline_label] = (mutate(case, baseline_label, verdict)
                                    if mutate else verdict)

    baseline = verdicts[baseline_label]
    for label, verdict in verdicts.items():
        if label != baseline_label and verdict != baseline:
            divergences.append(Divergence(case=case, label=label,
                                          against="baseline",
                                          verdict=verdict,
                                          reference=baseline))
    if case.expected is not None and baseline != case.expected:
        divergences.append(Divergence(case=case, label=baseline_label,
                                      against="expected",
                                      verdict=baseline,
                                      reference=dict(case.expected)))
    divergences.extend(analysis_divergences(case))
    return verdicts, divergences


def baseline_verdict(case: FuzzCase) -> Dict:
    """The reference cell's verdict for *case* (used as the recorded
    ground truth of minimized regression scenarios)."""
    if case.kind == "evaluation":
        return evaluation_verdict(case, EVAL_MATRIX[EVAL_BASELINE])
    return decision_verdict(case)

