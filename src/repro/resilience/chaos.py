"""Deterministic fault injection for the resilient execution layer.

Crash recovery, deadlines, and the degradation ladder are only
trustworthy if their recovery paths are *provable* -- so every fault
this module injects is deterministic and replayable: a
:class:`ChaosSchedule` is a tuple of :class:`Fault` entries, each
matched by (scenario name or nth-job-in-process, try number).  The
same schedule on the same job matrix plants the same faults on every
machine, which is what lets ``tests/test_resilience.py`` assert exact
recovery outcomes (and the CI chaos job assert zero aborted batches).

Fault kinds and what they exercise:

``crash``
    Worker death.  Inside a pool worker the process ``os._exit``\\ s,
    producing the real ``BrokenProcessPool`` the worker pool must
    recover from; in the driver process (serial runs, unit tests) a
    :class:`SimulatedWorkerCrash` is raised instead so the test
    process survives while the same retry/quarantine path runs.
``hang``
    A stuck decision: a loop that spins for ``seconds`` calling
    :func:`repro.budget.check_deadline` -- the shape of a hot
    instrumented loop that has stopped making progress.  A deadline
    must interrupt it; without one it eventually completes (so planted
    hangs also measure watchdogs).
``memory``
    ``MemoryError`` mid-decision (the EXPTIME blow-up case), which the
    degradation ladder must absorb by retrying a cheaper rung.
``corrupt``
    A payload that fails to build (:class:`PayloadCorruption`),
    exercising the error taxonomy's ``corrupt`` category and the
    retry-on-next-rung path.

Schedules travel as compact spec strings (the ``REPRO_CHAOS``
environment variable and the runner's ``--chaos`` flag)::

    crash:scenario=eval_sg_tree_d5,attempt=1;hang:nth=3,seconds=30

``attempt=*`` makes a fault fire on *every* try -- the way to force a
job through all retries into quarantine.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from ..budget import check_deadline

__all__ = [
    "CHAOS_ENV",
    "ChaosSchedule",
    "Fault",
    "PayloadCorruption",
    "SimulatedWorkerCrash",
    "in_worker",
    "inject",
    "jobs_executed",
    "mark_worker",
    "next_job_index",
    "parse_schedule",
]

#: Environment variable holding a schedule spec (workers inherit it
#: across pool respawns; an explicit schedule argument wins over it).
CHAOS_ENV = "REPRO_CHAOS"

_FAULT_KINDS = ("crash", "hang", "memory", "corrupt")

#: Exit status of a chaos-crashed worker (distinctive in core dumps /
#: pool logs; any abnormal exit breaks the pool identically).
CRASH_EXIT_CODE = 23


class SimulatedWorkerCrash(Exception):
    """Stand-in for worker death where ``os._exit`` would kill the
    test or driver process itself (serial execution paths).  Classified
    as ``crash`` by the error taxonomy."""


class PayloadCorruption(Exception):
    """An injected payload-construction failure (the ``corrupt``
    fault kind)."""


@dataclass(frozen=True)
class Fault:
    """One planted fault.

    ``scenario`` targets jobs by scenario name (``"*"`` matches any);
    ``nth`` targets the nth job executed in the current process
    (0-based, matched against the worker's job counter) -- set one or
    both.  ``attempt`` is the 1-based try number the fault fires on,
    or ``None`` (spec ``attempt=*``) for every try.  ``seconds`` is
    the hang duration.
    """

    kind: str
    scenario: str = "*"
    nth: Optional[int] = None
    attempt: Optional[int] = 1
    seconds: float = 30.0

    def __post_init__(self):
        if self.kind not in _FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; "
                             f"expected one of {_FAULT_KINDS}")

    def matches(self, scenario: str, nth: int, attempt: int) -> bool:
        if self.scenario != "*" and self.scenario != scenario:
            return False
        if self.nth is not None and self.nth != nth:
            return False
        if self.attempt is not None and self.attempt != attempt:
            return False
        return True

    def spec(self) -> str:
        parts = []
        if self.scenario != "*":
            parts.append(f"scenario={self.scenario}")
        if self.nth is not None:
            parts.append(f"nth={self.nth}")
        parts.append("attempt=*" if self.attempt is None
                      else f"attempt={self.attempt}")
        if self.kind == "hang":
            parts.append(f"seconds={self.seconds:g}")
        return f"{self.kind}:{','.join(parts)}"


@dataclass(frozen=True)
class ChaosSchedule:
    """An ordered tuple of faults; the first match wins."""

    faults: Tuple[Fault, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.faults)

    def match(self, scenario: str, nth: int,
              attempt: int) -> Optional[Fault]:
        for fault in self.faults:
            if fault.matches(scenario, nth, attempt):
                return fault
        return None

    def spec(self) -> str:
        """The compact string form (round-trips through
        :func:`parse_schedule`)."""
        return ";".join(fault.spec() for fault in self.faults)


def parse_schedule(spec: str) -> ChaosSchedule:
    """Parse a spec string (see the module docstring) into a schedule.

        >>> schedule = parse_schedule("memory:scenario=eval_sg_tree_d5;"
        ...                           "hang:nth=2,seconds=5")
        >>> [fault.kind for fault in schedule.faults]
        ['memory', 'hang']
        >>> parse_schedule(schedule.spec()) == schedule
        True
    """
    faults = []
    for chunk in filter(None, (part.strip() for part in spec.split(";"))):
        kind, _, arg_text = chunk.partition(":")
        kwargs = {}
        for pair in filter(None, (p.strip() for p in arg_text.split(","))):
            key, _, value = pair.partition("=")
            key = key.strip()
            value = value.strip()
            if key == "scenario":
                kwargs["scenario"] = value
            elif key == "nth":
                kwargs["nth"] = int(value)
            elif key == "attempt":
                kwargs["attempt"] = None if value == "*" else int(value)
            elif key == "seconds":
                kwargs["seconds"] = float(value)
            else:
                raise ValueError(f"unknown fault selector {key!r} in "
                                 f"{chunk!r}")
        faults.append(Fault(kind=kind.strip(), **kwargs))
    return ChaosSchedule(tuple(faults))


def from_env() -> ChaosSchedule:
    """The schedule planted in ``REPRO_CHAOS`` (empty when unset)."""
    spec = os.environ.get(CHAOS_ENV, "")
    return parse_schedule(spec) if spec else ChaosSchedule()


# ----------------------------------------------------------------------
# Worker-side state: process role and the per-process job counter.
# ----------------------------------------------------------------------

_IN_WORKER = False
_JOB_COUNTER = 0


def mark_worker() -> None:
    """Record that this process is a pool worker (called by the
    worker pool's initializer): ``crash`` faults really exit."""
    global _IN_WORKER
    _IN_WORKER = True


def in_worker() -> bool:
    return _IN_WORKER


def next_job_index() -> int:
    """The 0-based index of the job about to execute in this process
    (the ``nth`` selector's counter); increments on each call."""
    global _JOB_COUNTER
    index = _JOB_COUNTER
    _JOB_COUNTER += 1
    return index


def jobs_executed() -> int:
    return _JOB_COUNTER


def inject(scenario: str, nth: int, attempt: int, *,
           schedule: Optional[ChaosSchedule] = None) -> None:
    """Fire the first matching fault for this job execution, if any.

    Callers place this at the top of a job's execution (inside the
    job's deadline scope, so ``hang`` faults are interruptible).  May
    not return: ``crash`` in a real worker exits the process.
    """
    schedule = from_env() if schedule is None else schedule
    fault = schedule.match(scenario, nth, attempt)
    if fault is None:
        return
    if fault.kind == "crash":
        if _IN_WORKER:
            os._exit(CRASH_EXIT_CODE)
        raise SimulatedWorkerCrash(
            f"chaos: worker crash planted on {scenario!r} "
            f"(attempt {attempt})")
    if fault.kind == "memory":
        raise MemoryError(
            f"chaos: MemoryError planted on {scenario!r} "
            f"(attempt {attempt})")
    if fault.kind == "corrupt":
        raise PayloadCorruption(
            f"chaos: corrupted payload planted on {scenario!r} "
            f"(attempt {attempt})")
    # hang: a stuck-but-instrumented loop; a deadline must interrupt
    # it (BudgetExhausted), else it completes.
    end = time.monotonic() + fault.seconds
    while time.monotonic() < end:
        check_deadline()
        time.sleep(0.002)
