"""Resilient execution layer for the decision runner.

The paper's procedures are EXPTIME-hard (nonrecursive containment is
EXPTIME-complete; general containment is undecidable), so a batch over
a large scenario matrix *will* contain cells that time out, exhaust
memory, or kill a worker.  This package makes those outcomes data
instead of batch aborts, via four cooperating pieces:

* :mod:`repro.resilience.supervisor` -- wraps
  ``ProcessPoolExecutor`` with crash detection (``BrokenProcessPool``
  and heartbeat-based stall detection), pool respawn, bounded retries
  with deterministic backoff, and quarantine of poisoned jobs; also
  home of the error taxonomy (:func:`classify_failure`,
  :data:`ERROR_CATEGORIES`).
* :mod:`repro.resilience.ladder` -- the degradation ladder: which
  cheaper engine a failed evaluation job retries on
  (columnar -> interpretive).
* :mod:`repro.resilience.chaos` -- deterministic fault injection
  (crash / hang / memory / corrupt, keyed by scenario, per-process job
  index, and attempt number) that the resilience tests and the CI
  chaos job use to prove every recovery path end-to-end.
* universal deadlines live in :mod:`repro.budget` (the cooperative
  ``check_deadline`` tier threaded through the fixpoint loops and
  antichain searches); this package consumes them.

:class:`ResilienceConfig` bundles the knobs the batch runner threads
through: per-job deadline, retry budget, whether the ladder is
enabled, and an explicit chaos schedule (``None`` defers to the
``REPRO_CHAOS`` environment variable, which is how schedules reach
pool workers across respawns).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .chaos import (ChaosSchedule, Fault, PayloadCorruption,
                    SimulatedWorkerCrash, parse_schedule)
from .ladder import ENGINE_CHAIN, ladder_rungs
from .supervisor import (ERROR_CATEGORIES, Quarantined, RetryPolicy,
                         SupervisedOutcome, classify_failure,
                         run_supervised)

__all__ = [
    "ChaosSchedule",
    "ENGINE_CHAIN",
    "ERROR_CATEGORIES",
    "Fault",
    "PayloadCorruption",
    "Quarantined",
    "ResilienceConfig",
    "RetryPolicy",
    "SimulatedWorkerCrash",
    "SupervisedOutcome",
    "classify_failure",
    "ladder_rungs",
    "parse_schedule",
    "run_supervised",
]


@dataclass(frozen=True)
class ResilienceConfig:
    """The runner-facing bundle of resilience knobs.

    ``deadline_s`` is the per-job wall-clock deadline (combined with a
    scenario's own ``budget_s`` by taking the tighter of the two);
    ``max_attempts`` bounds total tries per job across ladder rungs
    and supervisor resubmissions; ``ladder=False`` pins every retry to
    the job's own engine; ``chaos=None`` means "read the
    ``REPRO_CHAOS`` environment variable", which is also how a
    schedule survives pool respawns; ``stall_timeout_s`` arms the
    supervisor's heartbeat watchdog.  Instances are immutable and
    picklable -- they ride along to pool workers.
    """

    deadline_s: Optional[float] = None
    max_attempts: int = 3
    ladder: bool = True
    chaos: Optional[ChaosSchedule] = None
    backoff_base_s: float = 0.05
    stall_timeout_s: Optional[float] = None

    def policy(self) -> RetryPolicy:
        """The supervisor retry policy these knobs imply."""
        return RetryPolicy(
            max_attempts=self.max_attempts,
            backoff_base_s=self.backoff_base_s,
        )
