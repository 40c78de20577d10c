"""Resilient execution layer for the batch runner and the service.

The paper's procedures are EXPTIME-hard (nonrecursive containment is
EXPTIME-complete; general containment is undecidable), so a batch over
a large scenario matrix *will* contain cells that time out, exhaust
memory, or kill a worker.  This package makes those outcomes data
instead of batch aborts, via three cooperating pieces:

* :mod:`repro.resilience.pool` -- the one worker pool the batch
  runner and the decision service share: the worker-side attempt loop
  (deadline, chaos, bounded retries on the job's own engine with
  deterministic backoff, quarantine), pool respawn after worker death
  with isolated resubmission, and the error taxonomy
  (:func:`classify_failure`, :data:`ERROR_CATEGORIES`).
  :class:`PoolConfig` holds every knob.
* :mod:`repro.resilience.chaos` -- deterministic fault injection
  (crash / hang / memory / corrupt, keyed by scenario, per-process job
  index, and attempt number) that the resilience tests and the CI
  chaos job use to prove every recovery path end-to-end.
* deadlines live in :mod:`repro.budget` (the ``check_deadline``
  hooks threaded through the fixpoint loops and searches); this
  package consumes them.
"""

from __future__ import annotations

from .chaos import (ChaosSchedule, Fault, PayloadCorruption,
                    SimulatedWorkerCrash, parse_schedule)
from .pool import (ERROR_CATEGORIES, PoolConfig, Quarantined, RetryPolicy,
                   WorkerPool, attempt_loop, classify_failure)

__all__ = [
    "ChaosSchedule",
    "ERROR_CATEGORIES",
    "Fault",
    "PayloadCorruption",
    "PoolConfig",
    "Quarantined",
    "RetryPolicy",
    "SimulatedWorkerCrash",
    "WorkerPool",
    "attempt_loop",
    "classify_failure",
    "parse_schedule",
]
