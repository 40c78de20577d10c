"""The fuzz sweep driver: draw, run, shrink, persist.

:func:`run_fuzz` is what CI and ``python -m repro fuzz`` invoke: it
draws ``iterations`` seed-deterministic cases, runs each through its
full configuration matrix, and on the first divergences delta-debugs
the failing case down to a minimal reproducer and writes it under
``tests/regressions/`` (see :mod:`repro.fuzz.regressions`).  The
returned :class:`FuzzReport` is plain data -- the CLI renders it and
picks the exit code.

Chaos mode (``chaos_seed``) additionally plants a deterministic fault
-- ``MemoryError``, a cooperative hang cut by a deadline, or a
corrupted payload, drawn from :mod:`repro.resilience.chaos` -- on the
first try of roughly a third of the cases.  Each fault must fire, be
caught, and the case then rerun clean, proving the sweep recovers
from the whole error taxonomy without changing a single verdict: a
chaos sweep reports the same divergences as a clean sweep of the same
seed, plus the ``faults_injected``/``faults_recovered`` counters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

from ..budget import BudgetExhausted, time_budget
from ..resilience.chaos import (
    ChaosSchedule,
    Fault,
    PayloadCorruption,
    SimulatedWorkerCrash,
    inject,
)
from .harness import Divergence, FuzzCase, Mutator, draw_case, run_case
from .regressions import write_regression
from .shrinker import shrink_case, still_diverges

#: Fault kinds chaos mode rotates through (``crash`` is excluded: in
#: the in-process sweep it would raise like any other fault, proving
#: nothing the others don't; the process-pool crash path is the
#: worker pool's test).
CHAOS_KINDS = ("memory", "hang", "corrupt")

#: Deadline that cuts a planted hang (the hang loop calls
#: ``check_deadline()``, so this bounds chaos-mode wall time).
CHAOS_HANG_DEADLINE_S = 0.25


@dataclass
class FuzzReport:
    """Outcome of one sweep: counts, per-kind breakdown, and for every
    surviving divergence the (possibly minimized) case and where its
    regression file went."""

    seed: int
    iterations: int
    matrix: str
    cases_run: int = 0
    by_kind: Dict[str, int] = field(default_factory=dict)
    divergences: List[Divergence] = field(default_factory=list)
    minimized: List[FuzzCase] = field(default_factory=list)
    written: List[Path] = field(default_factory=list)
    chaos_seed: Optional[int] = None
    faults_injected: int = 0
    faults_recovered: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences


def _evaluation_goal(divergence: Divergence) -> Optional[str]:
    """The first IDB predicate whose (count, checksum) differs between
    the diverging cell and its reference -- the narrowest relation to
    pin the regression scenario to."""
    for key in sorted(set(divergence.verdict) | set(divergence.reference)):
        if key == "fixpoint":
            continue
        if divergence.verdict.get(key) != divergence.reference.get(key):
            return key
    return None


def planted_fault(chaos_seed: int, seed: int, index: int,
                  scenario: str) -> Optional[Fault]:
    """The fault (or None) chaos mode plants on case ``(seed, index)``.

    Deterministic in ``(chaos_seed, seed, index)``: the same chaos
    sweep on any machine injects the same faults at the same cases.
    Roughly one case in three draws a fault, rotating through
    :data:`CHAOS_KINDS`.
    """
    rng = random.Random((chaos_seed * 1_000_003 + seed) * 1_000_003 + index)
    if rng.random() >= 1.0 / 3.0:
        return None
    kind = rng.choice(CHAOS_KINDS)
    return Fault(kind, scenario=scenario, attempt=1, seconds=30.0)


def _fire_fault(fault: Fault, scenario: str) -> None:
    """Inject *fault* on this (first) try and swallow the resulting
    failure -- the caller then reruns the case clean, which is the
    sweep-level analogue of the runner's retry.  A fault that fails to
    fire or raises outside the taxonomy propagates: chaos mode must
    never silently degrade into a plain sweep."""
    with time_budget(CHAOS_HANG_DEADLINE_S):
        inject(scenario, nth=None, attempt=1,
               schedule=ChaosSchedule((fault,)))
    raise AssertionError(
        f"chaos fault {fault.spec()!r} did not fire for {scenario}")


def run_fuzz(seed: int = 0, iterations: int = 50, *,
             matrix: str = "full", shrink: bool = True,
             out_dir: Optional[Path] = None,
             mutate: Optional[Mutator] = None,
             max_failures: int = 1,
             chaos_seed: Optional[int] = None) -> FuzzReport:
    """Sweep ``iterations`` cases drawn from *seed* through the
    differential matrix.

    Stops after ``max_failures`` diverging cases (each divergence is
    expensive to shrink, and one minimized reproducer is what a CI
    failure needs); ``shrink=False`` records the raw failing case
    instead.  ``mutate`` injects verdict corruption for the harness's
    own planted-divergence test -- it is threaded through shrinking
    too, so the minimized case still reproduces under the same
    corruption.  ``chaos_seed`` turns on chaos mode: deterministic
    planted faults on first tries, each recovered by a clean rerun
    (see the module docstring).
    """
    report = FuzzReport(seed=seed, iterations=iterations, matrix=matrix,
                        chaos_seed=chaos_seed)
    failures = 0
    for index in range(iterations):
        case = draw_case(seed, index)
        report.cases_run += 1
        report.by_kind[case.kind] = report.by_kind.get(case.kind, 0) + 1
        if chaos_seed is not None:
            fault = planted_fault(chaos_seed, seed, index, case.name)
            if fault is not None:
                report.faults_injected += 1
                try:
                    _fire_fault(fault, case.name)
                except (MemoryError, PayloadCorruption,
                        SimulatedWorkerCrash, BudgetExhausted):
                    report.faults_recovered += 1
        _verdicts, divergences = run_case(case, matrix=matrix, mutate=mutate)
        if not divergences:
            continue
        report.divergences.extend(divergences)
        failures += 1

        # Shrink (baseline divergences only -- a ground-truth mismatch
        # keeps its original drawn form, since its constructed expected
        # verdict would not survive reduction).
        lead = next((d for d in divergences if d.against == "baseline"),
                    divergences[0])
        minimized = case
        if shrink and lead.against == "baseline":
            minimized = shrink_case(case, matrix=matrix, mutate=mutate)
        minimized = replace(minimized, name=f"regression_{case.name}")
        if minimized.kind == "evaluation" and lead.against == "baseline":
            _mv, m_divs = run_case(minimized, matrix=matrix, mutate=mutate)
            m_lead = next((d for d in m_divs if d.against == "baseline"),
                          lead)
            goal = _evaluation_goal(m_lead)
            if goal:
                minimized = replace(minimized, goal=goal)
        report.minimized.append(minimized)
        report.written.append(write_regression(minimized, lead,
                                               out_dir=out_dir))
        if failures >= max_failures:
            break
    return report


__all__ = ["FuzzReport", "planted_fault", "run_fuzz", "still_diverges"]
