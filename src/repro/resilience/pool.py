"""One worker pool for the batch runner and the decision service.

The paper's questions are EXPTIME-complete (nonrecursive containment)
or worse, so worker death, timeouts and memory blow-ups are normal for
both the batch runner and the daemon.  This module is the only place
that handles them, and the only place that spawns executors:

* **Worker side.**  :func:`attempt_loop` runs one job.  Each try
  injects chaos (:mod:`repro.resilience.chaos`) and calls the job
  under the deadline; a failure is classified
  (:func:`classify_failure`), backed off (:class:`RetryPolicy`, jitter
  hashed from the job key) and retried the same way, whatever its
  category.  The result comes back stamped with ``attempts`` and
  ``stats["retried_after"]``, or as a :class:`Quarantined` record
  once ``max_attempts`` tries are spent.
* **Submitting side.**  :class:`WorkerPool` owns the process or thread
  executor and the one worker initializer.  Only a worker death
  escapes the attempt loop (a chaos ``crash`` in a process worker
  really exits; in a thread it raises
  :class:`~repro.resilience.SimulatedWorkerCrash`, which the loop
  catches).  On ``BrokenProcessPool`` the pool respawns once per
  broken generation and resubmits the job at the next attempt number,
  alone: retries hold one isolation lock, so a poisoned job crashing
  again can only charge itself.  A worker death is charged to the
  attempt the pool submitted.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..budget import BudgetExhausted, time_budget
from . import chaos
from .chaos import PayloadCorruption, SimulatedWorkerCrash, parse_schedule

__all__ = [
    "ERROR_CATEGORIES",
    "PoolConfig",
    "Quarantined",
    "RetryPolicy",
    "WorkerPool",
    "attempt_loop",
    "classify_failure",
]

#: The error taxonomy, in severity order used by summary tables.
ERROR_CATEGORIES: Tuple[str, ...] = (
    "timeout", "memory", "crash", "corrupt", "error",
)


def classify_failure(exc: BaseException) -> str:
    """Map an exception to its error-taxonomy category.

        >>> classify_failure(MemoryError())
        'memory'
        >>> classify_failure(BudgetExhausted(1.5))
        'timeout'
        >>> classify_failure(ValueError("boom"))
        'error'
    """
    if isinstance(exc, BudgetExhausted):
        return "timeout"
    if isinstance(exc, MemoryError):
        return "memory"
    if isinstance(exc, (SimulatedWorkerCrash, BrokenProcessPool)):
        return "crash"
    if isinstance(exc, PayloadCorruption):
        return "corrupt"
    return "error"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic
    jitter.

    ``max_attempts`` counts every try of a job -- retries inside a
    worker and resubmissions after a worker death alike -- so a
    wildcard fault cannot loop forever.  Jitter is hashed from
    ``(job key, failures)`` rather than drawn from a RNG: reruns of
    the same batch sleep the same schedule, keeping chaos tests
    reproducible, while distinct jobs spread out.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 2.0

    def backoff(self, key: str, failures: int) -> float:
        """Seconds to sleep after the ``failures``-th failure of the
        job identified by ``key`` (0 failures -> no sleep)."""
        if failures <= 0:
            return 0.0
        raw = min(
            self.backoff_base_s * self.backoff_factor ** (failures - 1),
            self.backoff_max_s,
        )
        digest = hashlib.sha1(f"{key}#{failures}".encode()).digest()
        fraction = int.from_bytes(digest[:4], "big") / 2 ** 32
        return raw * (0.5 + 0.5 * fraction)


class Quarantined(Exception):
    """A job abandoned after exhausting its tries: the last failure's
    taxonomy ``category``, the joined failure ``message``, and the
    ``attempts`` spent.  :func:`attempt_loop` returns one (it must
    cross the process boundary as a value); :meth:`WorkerPool.run`
    raises it."""

    def __init__(self, category: str, message: str, attempts: int):
        super().__init__(category, message, attempts)
        self.category = category
        self.message = message
        self.attempts = attempts

    def __str__(self) -> str:
        return self.message


@dataclass(frozen=True)
class PoolConfig:
    """The pool's knobs (the ``repro serve`` and ``repro scenarios``
    flags).

    ``workers``/``executor`` size the pool and pick its kind
    (``process`` or ``thread``); the batch runner always uses
    processes, one per shard.  ``max_attempts`` counts every try of a
    job before it is quarantined.  ``deadline_s`` is the per-try
    wall-clock deadline (a service request's own ``deadline_s``
    overrides it; a scenario's ``budget_s`` applies when tighter).
    ``chaos`` is a fault-schedule spec string (``None`` defers to
    ``REPRO_CHAOS`` in the worker).  ``backoff_base_s`` scales
    :class:`RetryPolicy`'s backoff.
    Instances are immutable and picklable -- they ride along to
    workers.
    """

    workers: int = 2
    executor: str = "process"
    max_attempts: int = 3
    deadline_s: Optional[float] = None
    chaos: Optional[str] = None
    backoff_base_s: float = 0.02

    def __post_init__(self):
        if self.executor not in ("process", "thread"):
            raise ValueError(f"unknown executor {self.executor!r}; "
                             f"expected 'process' or 'thread'")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, "
                             f"got {self.max_attempts}")
        if self.chaos is not None:
            parse_schedule(self.chaos)  # validate eagerly, not in-flight

    def policy(self) -> RetryPolicy:
        """The retry policy these knobs imply."""
        return RetryPolicy(max_attempts=self.max_attempts,
                           backoff_base_s=self.backoff_base_s)


# ----------------------------------------------------------------------
# Worker side.
# ----------------------------------------------------------------------

def _worker_init(process: bool) -> None:
    """The initializer of every spawned and respawned worker.

    A process worker must know it is a worker so chaos ``crash``
    faults really exit; thread workers share the submitting process,
    so they are not marked."""
    if process:
        chaos.mark_worker()


def attempt_loop(call: Callable[[], Any], config: PoolConfig, *,
                 key: str, label: str, deadline_s: Optional[float],
                 first_attempt: int = 1) -> Any:
    """Try ``call()`` under a *deadline_s* budget until it answers or
    the tries run out.

    Tries are numbered from *first_attempt* (above 1 when the pool
    resubmits after a worker death) up to ``config.max_attempts``.
    Every failure retries the same call: a job runs on its own engine
    or not at all.  *label* is what chaos faults match; *key* seeds the
    backoff jitter.  Returns the call's result (a
    :class:`~repro.session.Decision`) with ``attempts`` and
    ``stats["retried_after"]`` (the failed tries) set, or a
    :class:`Quarantined` record.
    """
    schedule = (parse_schedule(config.chaos) if config.chaos is not None
                else chaos.from_env())
    policy = config.policy()
    failures: List[str] = []
    category = "error"
    for attempt in range(first_attempt, config.max_attempts + 1):
        if failures:
            time.sleep(policy.backoff(key, attempt - 1))
        nth = chaos.next_job_index()
        try:
            # The budget covers chaos injection too: a planted hang is
            # cut by the same deadline as the call.
            with time_budget(deadline_s):
                chaos.inject(label, nth, attempt, schedule=schedule)
                result = call()
        except Exception as exc:
            category = classify_failure(exc)
            failures.append(f"attempt {attempt} {category}: "
                            f"{type(exc).__name__}: {exc}")
            continue
        result.attempts = attempt
        if failures:
            result.stats.setdefault("retried_after", failures)
        return result
    return Quarantined(category, "; ".join(failures),
                       attempts=config.max_attempts)


# ----------------------------------------------------------------------
# Submitting side.
# ----------------------------------------------------------------------

class WorkerPool:
    """Submit jobs from an event loop; collect results or
    :class:`Quarantined`.

    Lives on one event loop, where all mutation happens (asyncio is
    single-threaded), so counters and the respawn generation need no
    locks -- the isolation lock serializes awaits, not state.
    """

    def __init__(self, config: Optional[PoolConfig] = None):
        self.config = config or PoolConfig()
        self._executor = self._spawn()
        self._generation = 0
        self._isolation = asyncio.Lock()
        self._stats = {
            "submitted": 0, "completed": 0, "failed": 0,
            "retries": 0, "respawns": 0, "quarantined": 0,
        }

    def _spawn(self):
        process = self.config.executor == "process"
        initargs = (process,)
        if process:
            return ProcessPoolExecutor(max_workers=self.config.workers,
                                       initializer=_worker_init,
                                       initargs=initargs)
        return ThreadPoolExecutor(max_workers=self.config.workers,
                                  thread_name_prefix="repro-worker",
                                  initializer=_worker_init,
                                  initargs=initargs)

    def _respawn(self, seen_generation: int) -> None:
        """Replace a broken process pool exactly once per break: the
        first loser of a generation swaps the executor, the rest see
        the bumped counter and reuse the fresh pool."""
        if self._generation != seen_generation:
            return
        self._generation += 1
        self._stats["respawns"] += 1
        old, self._executor = self._executor, self._spawn()
        old.shutdown(wait=False)

    async def submit(self, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(*args)`` once on a worker and return its result.

        A worker death respawns the pool and raises
        ``Quarantined("crash", ..., attempts=1)``: the one try this
        dispatch was.  ``fn`` and *args* must pickle (module-level
        callables) for the process executor."""
        generation = self._generation
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(self._executor,
                                              partial(fn, *args))
        except BrokenProcessPool as exc:
            self._respawn(generation)
            raise Quarantined("crash", str(exc) or "worker process died",
                              attempts=1) from None

    async def run(self, fn: Callable[..., Any], *args: Any, key: str,
                  first_attempt: int = 1) -> Any:
        """Run ``fn(*args, attempt)`` -- a job wrapped in
        :func:`attempt_loop` -- and return its stamped result, or
        raise :class:`Quarantined`.

        Only worker deaths are retried here: each is resubmitted at
        the next attempt number.  Every dispatch above attempt 1 --
        including a first dispatch at *first_attempt* > 1, the batch
        runner's retry of a dead shard's job -- sleeps the *key*'s
        backoff and runs alone under the isolation lock."""
        self._stats["submitted"] += 1
        deaths: List[str] = []
        for attempt in range(first_attempt, self.config.max_attempts + 1):
            try:
                if attempt == 1:
                    outcome = await self.submit(fn, *args, attempt)
                else:
                    async with self._isolation:
                        await asyncio.sleep(self.config.policy().backoff(
                            key, attempt - 1))
                        self._stats["retries"] += 1
                        outcome = await self.submit(fn, *args, attempt)
            except Quarantined as death:
                deaths.append(f"attempt {attempt} crash: {death}")
                continue
            self._stats["retries"] += outcome.attempts - attempt
            if isinstance(outcome, Quarantined):
                category, attempts = outcome.category, outcome.attempts
                deaths.append(outcome.message)
                break
            if deaths:
                outcome.stats["retried_after"] = (
                    deaths + outcome.stats.get("retried_after", []))
            self._stats["completed"] += 1
            return outcome
        else:
            category, attempts = "crash", self.config.max_attempts
        self._stats["failed"] += 1
        self._stats["quarantined"] += 1
        raise Quarantined(category, "; ".join(deaths), attempts=attempts)

    def stats(self) -> Dict[str, Any]:
        """The pool's counters (the service's ``status["pool"]``).
        ``retries`` counts every try after a job's first, in a worker
        or resubmitted after a worker death."""
        return {
            "workers": self.config.workers,
            "executor": self.config.executor,
            "max_attempts": self.config.max_attempts,
            **self._stats,
        }

    async def shutdown(self) -> None:
        """Stop accepting work and release the workers without
        blocking the event loop on stragglers."""
        executor = self._executor
        await asyncio.get_running_loop().run_in_executor(
            None, partial(executor.shutdown, wait=True,
                          cancel_futures=True))
