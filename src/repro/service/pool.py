"""The service's worker-side execution: per-worker Sessions.

Requests execute off the event loop, on the shared
:class:`~repro.resilience.WorkerPool` (process or thread executor),
in workers that each own long-lived per-engine
:class:`~repro.session.Session` objects (the batch runner's
:func:`~repro.runner.batch.worker_session` lifecycle), and ship back
payload-stripped :class:`~repro.session.Decision` objects -- witness
trees and engine results never cross the boundary, exactly as in the
batch runner.

:func:`service_execute` wraps one request in the pool's attempt loop
(:func:`~repro.resilience.attempt_loop`): chaos is matched per attempt
against the request's :meth:`~repro.service.protocol.Request.chaos_label`
(so ``REPRO_CHAOS``-style drills work unchanged against the daemon),
the request's ``deadline_s`` (else the pool's) bounds every try, and
the backoff jitter is keyed on the request's coalescing key.  The one
rung is the request's own engine: a served record's fingerprint must
match its coalescing key, so the service never degrades.

A deadline fires the same way under both executors; under the thread
executor chaos ``crash`` faults raise
:class:`~repro.resilience.SimulatedWorkerCrash` instead of killing
anything.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List

from ..datalog.database import Database
from ..datalog.errors import ReproError
from ..datalog.parser import parse_program
from ..resilience import PoolConfig, attempt_loop
from ..runner.batch import worker_session
from ..session import Decision, decide_payload
from .protocol import Request

__all__ = [
    "service_execute",
    "worker_cache_stats",
]


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


def service_execute(op: str, payload: Dict[str, Any], key: str,
                    config: PoolConfig, first_attempt: int) -> Any:
    """Execute one request in the current worker: the payload-stripped
    :class:`~repro.session.Decision`, or a
    :class:`~repro.resilience.Quarantined` record once its tries run
    out.  *key* is the request's coalescing key (the backoff jitter
    key); the request's own ``deadline_s`` overrides the pool's."""
    request = Request(op=op, payload=payload)
    deadline_s = request.deadline_s
    if deadline_s is None:
        deadline_s = config.deadline_s
    # One session per engine, so every decision reports the exact
    # config fingerprint the coalescing key was derived from.
    session = worker_session(request.engine, sessions=_sessions(),
                             name="service")

    def call(_rung: str) -> Decision:
        if op == "decide":
            decision = session.run_payload(payload["kind"],
                                           decide_payload(payload))
        elif op == "eval":
            # Count and checksum only: the goal rows would be stripped
            # from the record anyway, so never build them.
            decision = session.evaluate(
                parse_program(payload["program"]),
                Database.from_source(payload["db"]),
                max_stages=payload.get("max_stages"),
                goal=payload["goal"])
        elif op == "scenario":
            decision = session.run_scenario(payload["scenario"])
        else:  # pragma: no cover - the server routes control ops
            raise ReproError(f"op {op!r} is not executable")
        decision.meta.setdefault("op", op)
        decision.meta.setdefault("engine", request.engine)
        # The batch runner's wire shape: payloads stay in the worker.
        return decision.without_payload()

    return attempt_loop(call, [request.engine], config, key=key,
                        label=request.chaos_label(), deadline_s=deadline_s,
                        first_attempt=first_attempt)
