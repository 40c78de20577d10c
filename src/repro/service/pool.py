"""The service worker pool: per-worker Sessions, typed failure.

Requests execute off the event loop, in a pool of workers that each
own long-lived per-engine :class:`~repro.session.Session` objects
(the batch runner's :func:`~repro.runner.batch.worker_session`
lifecycle), and ship back payload-stripped
:meth:`~repro.session.Decision.record` dicts -- witness trees and
engine results never cross the boundary, exactly as in the batch
runner's process pool.

Two executor kinds:

``process`` (the daemon default)
    A ``ProcessPoolExecutor``: real parallelism, and real worker
    death.  A crashed worker breaks the pool; the pool classifies the
    loss as ``crash``, **respawns** the executor (once -- a generation
    counter keeps concurrent losers from stampeding), and retries
    every charged request in **sequential isolation** (an asyncio lock
    admits one retry at a time), the supervisor discipline of PR 7: a
    poisoned request can only take itself down, and attributes exactly
    by crashing again alone.  Worker-side deadlines get the precise
    SIGALRM tier (pool jobs run on worker main threads).
``thread``
    A ``ThreadPoolExecutor`` with per-thread session stores: no spawn
    cost, cooperative-tier deadlines only -- the embedded/test mode,
    where chaos ``crash`` faults raise
    :class:`~repro.resilience.SimulatedWorkerCrash` instead of killing
    anything.

Failures follow the resilience policy: each failed attempt is
classified (:func:`~repro.resilience.classify_failure`), backed off
deterministically (:class:`~repro.resilience.RetryPolicy` -- sha1
jitter, so reruns sleep the same schedule), and retried up to
``max_attempts`` total tries; a request that never succeeds raises
:class:`ServiceFailure`, which the server answers as a typed error
response -- the service's quarantine.

Chaos schedules (:mod:`repro.resilience.chaos`) ride along as spec
strings and are matched per attempt inside the worker, against the
request's :meth:`~repro.service.protocol.Request.chaos_label` --
so ``REPRO_CHAOS``-style drills work unchanged against the daemon.
"""

from __future__ import annotations

import asyncio
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional

from ..budget import (
    BudgetEnforcementWarning,
    disarm_alarm,
    time_budget,
)
from ..datalog.database import Database
from ..datalog.errors import ReproError
from ..datalog.parser import parse_program
from ..datalog.program import Program
from ..datalog.unfold import expansion_union, unfold_nonrecursive
from ..resilience import RetryPolicy, classify_failure, parse_schedule
from ..resilience import chaos as _chaos
from ..runner.batch import worker_session
from ..snapshot import set_snapshot_dir
from .protocol import Request

__all__ = [
    "DecisionPool",
    "PoolConfig",
    "ServiceFailure",
    "database_from_source",
    "service_execute",
    "worker_cache_stats",
]


@dataclass(frozen=True)
class PoolConfig:
    """The pool's knobs (all surfaced as ``repro serve`` flags).

    ``deadline_s`` is the *default* per-request wall-clock deadline; a
    request's own ``deadline_s`` field overrides it (tighter or
    looser).  ``chaos`` is a fault-schedule spec string (``None``
    defers to ``REPRO_CHAOS`` in the worker).  ``max_attempts`` counts
    every try of a request before it is quarantined.  ``snapshot_dir``
    points workers at a warm-state snapshot directory
    (:mod:`repro.snapshot`): spawned and respawned workers restore
    their sessions from it instead of cold-starting (``None`` defers
    to ``REPRO_SNAPSHOT_DIR``).
    """

    workers: int = 2
    executor: str = "process"
    max_attempts: int = 3
    deadline_s: Optional[float] = None
    chaos: Optional[str] = None
    backoff_base_s: float = 0.02
    snapshot_dir: Optional[str] = None

    def __post_init__(self):
        if self.executor not in ("process", "thread"):
            raise ValueError(f"unknown executor {self.executor!r}; "
                             f"expected 'process' or 'thread'")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.chaos is not None:
            parse_schedule(self.chaos)  # validate eagerly, not in-flight

    def policy(self) -> RetryPolicy:
        return RetryPolicy(max_attempts=self.max_attempts,
                           backoff_base_s=self.backoff_base_s)


class ServiceFailure(Exception):
    """A request abandoned after exhausting its retries (the service's
    quarantine).  Carries the last failure's taxonomy ``category``,
    the joined failure ``message``, and total ``attempts`` spent."""

    def __init__(self, category: str, message: str, attempts: int):
        super().__init__(message)
        self.category = category
        self.attempts = attempts


# ----------------------------------------------------------------------
# Worker-side execution (module-level: must pickle into pool workers).
# ----------------------------------------------------------------------

#: Per-thread warm session stores for the thread executor; a process
#: worker runs jobs on one thread, so the same indirection serves both.
#: Every store is also registered in ``_ALL_STORES`` (keyed by thread
#: ident) so the server's ``status`` op can aggregate cache stats
#: across thread-mode workers from the event loop.
_THREAD_LOCAL = threading.local()
_ALL_STORES: Dict[int, Dict[str, Any]] = {}


def _sessions() -> Dict[str, Any]:
    store = getattr(_THREAD_LOCAL, "sessions", None)
    if store is None:
        store = _THREAD_LOCAL.sessions = {}
        _ALL_STORES[threading.get_ident()] = store
    return store


def worker_cache_stats() -> List[Dict[str, Any]]:
    """Observability hook: the
    :meth:`~repro.session.Session.cache_stats` of every service worker
    session in *this process* (one entry per worker thread per engine
    label).  Under a thread executor this is the whole pool -- the
    coalescing tests assert single-computation behaviour with it; a
    process executor's sessions live in the workers, so the server
    process reports none.

    Only *live* threads are reported, and dead threads' stores are
    pruned on the way: thread idents are reused by the OS, so a stale
    store left by a stopped pool would otherwise be silently replaced
    by a new worker mid-flight -- making aggregate counter deltas
    across two status calls go negative."""
    alive = {t.ident for t in threading.enumerate()}
    for ident in [i for i in list(_ALL_STORES) if i not in alive]:
        _ALL_STORES.pop(ident, None)
    return [
        {"thread": ident, "config": key, **session.cache_stats()}
        for ident, store in sorted(_ALL_STORES.items())
        for key, session in sorted(store.items())
    ]


def database_from_source(source: str) -> Database:
    """An ``eval`` request's ``db`` field: ground, body-less rules
    (``e(a, b).``), parsed with the normal Datalog front end."""
    program = parse_program(source)
    atoms = []
    for rule in program.rules:
        if rule.body or rule.head.variable_set():
            raise ReproError(
                f"'db' expects ground facts only, got rule {rule}")
        atoms.append(rule.head)
    return Database.from_atoms(atoms)


def _run_decide(session, payload: Dict[str, Any],
                deadline: Optional[float]):
    program: Program = parse_program(payload["program"])
    goal = payload["goal"]
    method = payload["method"]
    kind = payload["kind"]
    if kind == "equivalence":
        return session.equivalent_to_nonrecursive(
            program, parse_program(payload["nonrecursive"]), goal,
            nonrecursive_goal=payload.get("nonrecursive_goal"),
            method=method, deadline=deadline)
    if kind == "containment":
        if "union" in payload:
            union = unfold_nonrecursive(
                parse_program(payload["union"]),
                payload.get("union_goal") or goal)
        else:
            union = expansion_union(program, goal, payload["union_depth"])
        return session.contains(program, goal, union, method=method,
                                deadline=deadline)
    return session.bounded(program, goal, max_depth=payload["max_depth"],
                           method=method, deadline=deadline)


def service_execute(op: str, payload: Dict[str, Any], attempt: int,
                    chaos_spec: Optional[str],
                    deadline_s: Optional[float]) -> Dict[str, Any]:
    """Execute one request attempt in the current worker and return
    the payload-stripped decision record.

    Runs on a pool worker (process or thread): chaos injection first
    (inside the deadline scope, so planted hangs are interruptible),
    then the decision on this worker's warm per-engine session.  The
    request's own ``deadline_s`` (already resolved into *deadline_s*
    by the caller) bounds the whole attempt.
    """
    request = Request(op=op, payload=payload)
    schedule = (parse_schedule(chaos_spec) if chaos_spec is not None
                else _chaos.from_env())
    nth = _chaos.next_job_index()
    # One session per engine, so every decision reports the exact
    # config fingerprint the coalescing key was derived from.
    session = worker_session(request.engine, sessions=_sessions(),
                             name="service")
    with warnings.catch_warnings():
        # Thread-executor deadlines are cooperative-tier only; the
        # decision loops are instrumented, so degradation is expected
        # here, not warning-worthy per request.
        warnings.simplefilter("ignore", BudgetEnforcementWarning)
        with time_budget(deadline_s):
            _chaos.inject(request.chaos_label(), nth, attempt,
                          schedule=schedule)
            if op == "decide":
                decision = _run_decide(session, payload, deadline_s)
            elif op == "eval":
                # Count and checksum only: the goal rows would be
                # stripped from the record anyway, so never build them.
                program = parse_program(payload["program"])
                database = database_from_source(payload["db"])
                program.require_goal(payload["goal"])
                decision = session.evaluate(
                    program, database, max_stages=payload.get("max_stages"),
                    goal=payload["goal"], deadline=deadline_s)
            elif op == "scenario":
                decision = session.run_scenario(
                    payload["scenario"], deadline=deadline_s)
            else:  # pragma: no cover - the server routes control ops
                raise ReproError(f"op {op!r} is not executable")
    decision.meta.setdefault("op", op)
    decision.meta.setdefault("engine", request.engine)
    # The batch runner's wire shape: payloads stay in the worker.
    return decision.without_payload().record()


def _worker_init(snapshot_dir: Optional[str] = None) -> None:
    """Process-pool worker initializer (spawn and respawn): no stale
    itimers from a dead incarnation, chaos ``crash`` faults must
    really exit, and the snapshot directory is installed so this
    worker's sessions restore warm state instead of cold-starting."""
    disarm_alarm()
    _chaos.mark_worker()
    _thread_init(snapshot_dir)


def _thread_init(snapshot_dir: Optional[str] = None) -> None:
    """Thread-executor initializer: only the snapshot directory --
    threads share the server process, so no itimer hygiene and
    emphatically no ``mark_worker`` (thread-mode chaos ``crash``
    faults must stay simulated, not exit the daemon)."""
    if snapshot_dir is not None:
        set_snapshot_dir(snapshot_dir)


# ----------------------------------------------------------------------
# The event-loop-side pool.
# ----------------------------------------------------------------------

class DecisionPool:
    """Submit requests, collect records or typed failures.

    Lives on the event loop; all mutation happens there (asyncio is
    single-threaded), so counters and the respawn generation need no
    locks -- the retry lock below serializes *awaits*, not state.
    """

    def __init__(self, config: Optional[PoolConfig] = None):
        self.config = config or PoolConfig()
        self._executor = self._spawn()
        self._generation = 0
        self._retry_lock: Optional[asyncio.Lock] = None
        self._stats = {
            "submitted": 0, "completed": 0, "failed": 0,
            "retries": 0, "respawns": 0, "quarantined": 0,
        }

    def _spawn(self):
        initargs = (self.config.snapshot_dir,)
        if self.config.executor == "process":
            return ProcessPoolExecutor(max_workers=self.config.workers,
                                       initializer=_worker_init,
                                       initargs=initargs)
        return ThreadPoolExecutor(max_workers=self.config.workers,
                                  thread_name_prefix="repro-service",
                                  initializer=_thread_init,
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

    async def submit(self, request: Request) -> Dict[str, Any]:
        """Run *request* to a decision record, retrying failures under
        the pool policy; raise :class:`ServiceFailure` when the retry
        budget is spent.  The returned record carries ``attempts`` --
        the response layer surfaces it."""
        loop = asyncio.get_running_loop()
        if self._retry_lock is None:
            self._retry_lock = asyncio.Lock()
        policy = self.config.policy()
        deadline = request.deadline_s
        if deadline is None:
            deadline = self.config.deadline_s
        call = partial(service_execute, request.op, dict(request.payload),
                       chaos_spec=self.config.chaos, deadline_s=deadline)
        self._stats["submitted"] += 1
        failures: List[str] = []
        category = "error"
        attempt = 1
        while attempt <= policy.max_attempts:
            generation = self._generation
            try:
                if attempt == 1:
                    record = await loop.run_in_executor(
                        self._executor, partial(call, attempt=attempt))
                else:
                    # Sequential isolation: one retry in flight at a
                    # time, so a poisoned request crashing again can
                    # only charge itself.
                    async with self._retry_lock:
                        await asyncio.sleep(
                            policy.backoff(request.op, attempt - 1))
                        self._stats["retries"] += 1
                        record = await loop.run_in_executor(
                            self._executor, partial(call, attempt=attempt))
            except BrokenProcessPool as exc:
                self._respawn(generation)
                category = "crash"
                failures.append(f"attempt {attempt} crash: "
                                f"{exc or 'worker process died'}")
            except Exception as exc:
                category = classify_failure(exc)
                failures.append(f"attempt {attempt} {category}: "
                                f"{type(exc).__name__}: {exc}")
            else:
                record["attempts"] = attempt
                if failures:
                    record.setdefault("stats", {})
                    record["stats"].setdefault("retried_after",
                                               list(failures))
                self._stats["completed"] += 1
                return record
            attempt += 1
        self._stats["failed"] += 1
        self._stats["quarantined"] += 1
        raise ServiceFailure(category, "; ".join(failures),
                             attempts=attempt - 1)

    def stats(self) -> Dict[str, Any]:
        stats: Dict[str, Any] = {
            "workers": self.config.workers,
            "executor": self.config.executor,
            "max_attempts": self.config.max_attempts,
            **self._stats,
        }
        return stats

    async def shutdown(self) -> None:
        """Stop accepting work and release the workers without
        blocking the event loop on stragglers."""
        executor = self._executor
        await asyncio.get_running_loop().run_in_executor(
            None, partial(executor.shutdown, wait=True,
                          cancel_futures=True))
