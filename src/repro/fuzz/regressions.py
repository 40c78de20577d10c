"""Persistence of minimized fuzz failures as permanent regressions.

A shrunk :class:`~repro.fuzz.harness.FuzzCase` is written as one
self-contained JSON file under ``tests/regressions/`` -- program in
concrete Datalog syntax, EDB facts, expected verdict re-derived from
the reference cell, plus the divergence that was observed -- and every
committed file **round-trips into the scenario registry**
(:func:`register_regressions`), where the test suite and the batch
runner pick it up like any hand-written scenario.  The lifecycle:

1. a fuzz sweep (CI or ``python -m repro fuzz``) finds a divergence,
2. the shrinker minimizes it and :func:`write_regression` emits the
   file (CI uploads it as an artifact and fails the build),
3. the file is committed, so ``tests/test_fuzz.py`` re-runs the exact
   minimized input through the full matrix forever after.

Expected verdicts are **recorded from the reference cell at write
time** (the interpretive-naive engine for evaluation cases, the one
decision cell otherwise): the regression asserts "every cell agrees
with the reference on this input", which is precisely the
differential property that was violated.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

from ..cq.query import ConjunctiveQuery, UnionOfConjunctiveQueries
from ..datalog.database import Database
from ..datalog.parser import parse_program, parse_rule
from ..datalog.printer import program_to_source, rule_to_source
from ..runner.trajectory import find_repo_root
from ..workloads.scenarios import REGISTRY, Scenario, register
from .harness import Divergence, FuzzCase, baseline_verdict

FORMAT_VERSION = 1


def default_regressions_dir() -> Path:
    """``tests/regressions/`` of the enclosing checkout."""
    return find_repo_root() / "tests" / "regressions"


def case_to_dict(case: FuzzCase,
                 divergence: Optional[Divergence] = None) -> Dict:
    """The JSON-serializable form of *case*.

    The expected verdict is re-derived from the reference cell *now*
    (the drawn case's constructed ``expected`` is stale after
    shrinking); ``divergence`` documents what was observed when the
    case was captured -- context for the human reading the file, not
    an input to the replay.
    """
    record: Dict = {
        "format": FORMAT_VERSION,
        "name": case.name,
        "kind": case.kind,
        "goal": case.goal,
        "seed": case.seed,
        "index": case.index,
        "program": program_to_source(case.program),
        "expected": baseline_verdict(case),
    }
    if case.database is not None:
        record["facts"] = sorted(
            [predicate, [constant.value for constant in row]]
            for predicate, row in case.database.facts()
        )
    if case.union is not None:
        record["union"] = [rule_to_source(query.as_rule())
                           for query in case.union]
        record["union_arity"] = case.union.arity
    if case.nonrecursive is not None:
        record["nonrecursive"] = program_to_source(case.nonrecursive)
        if case.nonrecursive_goal:
            record["nonrecursive_goal"] = case.nonrecursive_goal
    if case.kind == "boundedness":
        record["max_depth"] = case.max_depth
    if divergence is not None:
        record["divergence"] = {
            "label": divergence.label,
            "against": divergence.against,
            "verdict": divergence.verdict,
            "reference": divergence.reference,
        }
    return record


def case_from_dict(record: Dict) -> FuzzCase:
    """Reconstruct the replayable :class:`FuzzCase` of *record*."""
    database = None
    if "facts" in record:
        database = Database.from_facts(
            (predicate, tuple(values))
            for predicate, values in record["facts"])
    union = None
    if "union" in record:
        union = UnionOfConjunctiveQueries(
            [ConjunctiveQuery.from_rule(parse_rule(source))
             for source in record["union"]],
            arity=record.get("union_arity"))
    nonrecursive = None
    if "nonrecursive" in record:
        nonrecursive = parse_program(record["nonrecursive"])
    return FuzzCase(
        name=record["name"],
        kind=record["kind"],
        seed=record.get("seed", 0),
        index=record.get("index", 0),
        program=parse_program(record["program"]),
        goal=record["goal"],
        database=database,
        union=union,
        nonrecursive=nonrecursive,
        nonrecursive_goal=record.get("nonrecursive_goal"),
        max_depth=record.get("max_depth", 3),
        expected=record.get("expected"),
        meta={"regression": True},
    )


def write_regression(case: FuzzCase,
                     divergence: Optional[Divergence] = None,
                     out_dir: Optional[Path] = None) -> Path:
    """Write *case* as ``<out_dir>/<name>.json`` and return the path."""
    out_dir = Path(out_dir) if out_dir else default_regressions_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{case.name}.json"
    path.write_text(json.dumps(case_to_dict(case, divergence), indent=2,
                               sort_keys=True) + "\n")
    return path


def load_regression(path: Path) -> FuzzCase:
    """The :class:`FuzzCase` stored at *path*."""
    return case_from_dict(json.loads(Path(path).read_text()))


def _scenario_payload(case: FuzzCase) -> Dict:
    payload: Dict = {"program": case.program, "goal": case.goal}
    if case.kind == "evaluation":
        payload["database"] = case.database
    elif case.kind == "containment":
        payload["union"] = case.union
    elif case.kind == "equivalence":
        payload["nonrecursive"] = case.nonrecursive
        payload["nonrecursive_goal"] = case.nonrecursive_goal
    elif case.kind == "boundedness":
        payload["max_depth"] = case.max_depth
    return payload


def scenario_from_case(case: FuzzCase, source: str = "") -> Scenario:
    """*case* as a registrable :class:`Scenario` (tag ``regression``).

    Evaluation regressions register the scenario-kind verdict shape --
    the goal relation's ``{count, checksum}`` -- sliced out of the
    recorded full-fixpoint verdict, so they run under the standard
    evaluation runner unchanged.
    """
    expected = dict(case.expected or {})
    if case.kind == "evaluation" and case.goal in expected:
        expected = dict(expected[case.goal])
    return Scenario(
        name=case.name,
        kind=case.kind,
        description=(f"minimized fuzz regression (seed {case.seed}, "
                     f"index {case.index}){source}"),
        build=lambda case=case: _scenario_payload(case),
        expected=expected,
        tags=("regression", "generated-regression"),
    )


def register_regressions(directory: Optional[Path] = None) -> List[str]:
    """Register every ``*.json`` under *directory* (default:
    ``tests/regressions/``) as a scenario; idempotent -- names already
    in the registry are skipped.  Returns the registered names."""
    directory = Path(directory) if directory else default_regressions_dir()
    if not directory.is_dir():
        return []
    registered: List[str] = []
    for path in sorted(directory.glob("*.json")):
        case = load_regression(path)
        if case.name in REGISTRY:
            continue
        register(scenario_from_case(case, source=f" -- {path.name}"))
        registered.append(case.name)
    return registered
