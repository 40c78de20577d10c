"""The batch decision service: scenario matrices, sharded.

This module turns the scenario registry
(:mod:`repro.workloads.scenarios`) into a **job matrix** -- scenario x
:class:`~repro.datalog.engine.EngineConfig` -- and executes it either
serially or sharded across the process pool of
:mod:`repro.resilience.pool`.

Design points (each load-bearing for correctness or fairness):

* **Deterministic job ordering.**  Jobs are sorted by ``(scenario,
  engine)`` and results are returned in job order regardless
  of which worker finished first, so a parallel run is comparable to a
  serial run entry-by-entry (``verdicts`` below, and the differential
  test in ``tests/test_runner.py``).
* **Jobs travel by name.**  A job is three strings; workers rebuild
  payloads from the registry, so nothing heavyweight crosses the
  process boundary and every worker constructs bit-identical inputs.
* **Scenario-affine sharding.**  Jobs are grouped by scenario and the
  groups are dealt round-robin across workers, so all cells of one
  scenario (both engines) land in the same process and
  share its ``shared_*`` caches -- the same reuse a serial run gets.
  Sharding whole groups (rather than ``pool.map`` over single jobs)
  is what makes N workers genuinely divide the work: the expensive
  per-program derivations happen once per scenario *somewhere*, not
  once per worker.
* **Cache lifecycle.**  Jobs run inside per-worker
  :class:`~repro.session.Session` objects (one per engine label), so
  every cache a job touches -- automaton factories, EDB images,
  compiled plans -- belongs to a session scope.  In ``warm`` mode the
  session pre-warms each scenario's caches
  (:meth:`~repro.session.Session.warm`) before timing its jobs, so
  per-job seconds reflect the steady state of a long-running service.
  In ``cold`` mode every job gets a *fresh* session (and the worker's
  warm sessions are discarded), measuring cold-start behaviour fairly
  without having to mutate any process-global state.
* **Decisions cross the process boundary.**  Workers return
  :class:`~repro.session.Decision` objects (payloads stripped), not
  ad-hoc tuples; the CLI serializes them via ``Decision.record()``.
* **Self-checking.**  Every job's verdict is compared against the
  scenario's constructed ground truth; a batch with any ``ok=False``
  entry exits nonzero from the CLI.
* **Resilience.**  Every job runs through the attempt loop of
  :mod:`repro.resilience.pool` (per-job deadline, chaos injection,
  the degradation ladder -- failed evaluation jobs retry one rung
  down: columnar -> interpretive -- and in-place quarantine), and the
  parallel path is a client of its :class:`~repro.resilience.WorkerPool`:
  a worker crash no longer aborts the batch -- the pool is respawned
  and the dead shard's jobs retry alone, with bounded attempts and
  quarantine records (``Decision.error`` set, exit code 2 from the
  CLI) for jobs that never succeed.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ..datalog.engine import EngineConfig
from ..resilience import (
    PoolConfig,
    Quarantined,
    WorkerPool,
    attempt_loop,
    ladder_rungs,
)
from ..session import Decision, Session
from ..snapshot import configured_dir, restore_session, save_snapshot
from ..workloads.scenarios import (
    DECISION_KINDS,
    get_scenario,
    scenario_names,
)

#: Named engine configurations the matrix can range over.  "columnar"
#: is the shipped default (batch join kernels over column stores);
#: "interpretive" is the per-tuple evaluator kept as the oracle.
ENGINE_CONFIGS: Dict[str, EngineConfig] = {
    "columnar": EngineConfig(compiled=True),
    "interpretive": EngineConfig(compiled=False),
}

CACHE_MODES = ("warm", "cold")


@dataclass(frozen=True, order=True)
class Job:
    """One cell of the scenario matrix (all fields are strings, so a
    job pickles trivially and sorts deterministically)."""

    scenario: str
    engine: str
    cache: str = "warm"


def build_jobs(scenarios: Sequence[str],
               engines: Sequence[str] = ("columnar",),
               cache: str = "warm") -> List[Job]:
    """The deterministic job matrix for *scenarios*.

    Decision scenarios (containment / equivalence / boundedness) run
    once, on the first engine (the engine only powers probes and
    backward containments).  Evaluation and magic scenarios range over
    *engines*.  ``cache`` is stamped
    on every job; mixing modes inside one batch is deliberately not
    offered (it would reintroduce the unfair sharing this layer
    exists to prevent).

    Scenarios tagged ``scale`` (10^5-fact EDBs) or ``stress`` (the
    lower-bound evaluation blow-ups) drop the interpretive engine from
    their matrix cells -- per-tuple evaluation takes minutes there,
    and ``--scenarios all`` must stay runnable.  Asking for *only* the
    interpretive engine is honored (an explicit request), and both
    tiers can always be excluded by tag.
    """
    if cache not in CACHE_MODES:
        raise ValueError(f"unknown cache mode {cache!r}; expected {CACHE_MODES}")
    for label in engines:
        if label not in ENGINE_CONFIGS:
            raise ValueError(f"unknown engine {label!r}; "
                             f"known: {sorted(ENGINE_CONFIGS)}")
    jobs: List[Job] = []
    for name in scenarios:
        scenario = get_scenario(name)
        if scenario.kind in DECISION_KINDS:
            jobs.append(Job(name, engines[0], cache))
        else:
            scenario_engines = engines
            if {"scale", "stress"} & set(scenario.tags):
                columnar = [e for e in engines if e != "interpretive"]
                scenario_engines = columnar or engines
            jobs.extend(Job(name, engine, cache)
                        for engine in scenario_engines)
    return sorted(jobs)


# ----------------------------------------------------------------------
# Worker-side execution.
# ----------------------------------------------------------------------

# Per-process warm sessions, one per engine label: reused across warm
# jobs so compiled plans and automaton caches amortize, discarded (and
# replaced by fresh private sessions) in cold mode.
_SESSIONS: Dict[str, Session] = {}


def worker_session(label: str, cache: str = "warm",
                   sessions: Optional[Dict[str, Session]] = None,
                   name: str = "runner") -> Session:
    """The per-worker :class:`~repro.session.Session` for an engine
    label: reused across warm jobs (compiled plans and automaton
    caches amortize), fresh and private in cold mode.

    *sessions* overrides the store the warm sessions live in (default:
    this module's per-process dict) -- the decision service passes a
    per-thread store so its thread-executor workers stay isolated
    while sharing this lifecycle.
    """
    if cache == "cold":
        return Session(engine=ENGINE_CONFIGS[label], cache="private",
                       name=f"{name}-cold-{label}")
    store = _SESSIONS if sessions is None else sessions
    session = store.get(label)
    if session is None:
        session = store[label] = Session(
            engine=ENGINE_CONFIGS[label], cache="private",
            name=f"{name}-{label}")
        # A freshly spawned (or respawned) worker skips cold start
        # when a warm-state snapshot for this config is on disk
        # (no-op unless REPRO_SNAPSHOT_DIR / --snapshot-dir is set).
        restore_session(session)
    return session


def _session_for(label: str, cache: str) -> Session:
    return worker_session(label, cache)


def _run_cell(job: Job, engine_label: str) -> Decision:
    """Run *job*'s scenario on an explicit engine -- the job's own
    engine normally, a ladder rung on degraded
    retries.  ``meta`` always carries the *requested* cell (the batch
    reassembles results by it); :attr:`~repro.session.Decision.degraded_to`
    records the answering rung when they differ."""
    scenario = get_scenario(job.scenario)
    if job.cache == "cold":
        _SESSIONS.clear()
    session = _session_for(engine_label, job.cache)
    start = time.perf_counter()
    decision = session.run_scenario(scenario)
    seconds = time.perf_counter() - start
    decision.meta.update({
        "scenario": job.scenario,
        "kind": scenario.kind,
        "engine": job.engine,
        "cache": job.cache,
        "seconds": round(seconds, 6),
        "pid": os.getpid(),
    })
    return decision.without_payload()


def run_decision(job: Job) -> Decision:
    """Run one job in the current process and return its
    :class:`~repro.session.Decision`.

    The decision's ``meta`` carries the matrix cell and the wall-clock
    seconds for the whole scenario run (payload construction included
    -- scenario builds are part of the served work); its payload
    (``certificate``/``raw``) is stripped so decisions pickle cheaply
    across the process pool.
    """
    return _run_cell(job, job.engine)


def quarantine_decision(job: Job, *, attempts: int, category: str,
                        message: str) -> Decision:
    """The ``Decision``-shaped error record of a job abandoned after
    exhausting its retries: ``verdict={"error": category}``,
    ``ok=None`` (no ground-truth claim), :attr:`Decision.error` set.
    The batch stays whole -- one poisoned cell yields one quarantine
    record, not an aborted run."""
    kind = get_scenario(job.scenario).kind
    return Decision(
        kind=kind,
        verdict={"error": category},
        ok=None,
        stats={"failure": message},
        error=category,
        attempts=attempts,
        meta={
            "scenario": job.scenario,
            "kind": kind,
            "engine": job.engine,
            "cache": job.cache,
            "seconds": 0.0,
            "pid": os.getpid(),
        },
    )


def _job_key(job: Job) -> str:
    return f"{job.scenario}/{job.engine}/{job.cache}"


def _quarantine(job: Job, failure: Quarantined) -> Decision:
    return quarantine_decision(job, attempts=failure.attempts,
                               category=failure.category,
                               message=failure.message)


def _attempt(job: Job, config: PoolConfig,
             first_attempt: int = 1) -> Decision:
    """Run one job through the pool's attempt loop: chaos injection,
    the per-job deadline, and the degradation ladder (evaluation jobs
    walk it one rung per failure); a job whose tries run out comes
    back as its quarantine record."""
    decision_kind = get_scenario(job.scenario).kind in DECISION_KINDS
    outcome = attempt_loop(
        partial(_run_cell, job), ladder_rungs(job.engine, decision_kind),
        config, key=_job_key(job), label=job.scenario,
        deadline_s=config.deadline_s, first_attempt=first_attempt)
    if isinstance(outcome, Quarantined):
        return _quarantine(job, outcome)
    return outcome


def execute_job(job: Job) -> Dict:
    """Run one job and return its JSON-serializable trajectory record
    (the :meth:`~repro.session.Decision.record` of
    :func:`run_decision` -- kept for callers that want plain dicts)."""
    return run_decision(job).record()


def run_shard(jobs: Sequence[Job],
              config: Optional[PoolConfig] = None) -> List[Decision]:
    """Execute a shard of jobs in the current process, in order.

    In warm mode each scenario's session caches are pre-built once
    (before its first job, via :meth:`~repro.session.Session.warm`) so
    the recorded per-job seconds are steady-state -- without this, a
    scenario's job would absorb one-time automaton construction and
    plan compilation.  Cold jobs get fresh sessions in
    :func:`_run_cell` instead.  Each job runs through the attempt loop
    under *config* (default :class:`~repro.resilience.PoolConfig`).
    """
    config = config or PoolConfig()
    decisions: List[Decision] = []
    warmed: set = set()
    for job in jobs:
        if job.cache == "warm" and job.scenario not in warmed:
            _session_for(job.engine, job.cache).warm(scenario=job.scenario)
            warmed.add(job.scenario)
        decisions.append(_attempt(job, config))
    if configured_dir():
        # Persist this worker's warm sessions for the next run (or a
        # respawned successor).  Concurrent shards racing on one key
        # are safe: writes are atomic, last writer wins.
        for session in _SESSIONS.values():
            save_snapshot(session)
    return decisions


def run_job(job: Job, config: PoolConfig, first_attempt: int) -> Decision:
    """The pool's resubmission entry point: one job, alone, in
    whatever worker picks it up (warm its scenario first so the cache
    mode's semantics survive the respawn)."""
    if job.cache == "warm":
        _session_for(job.engine, job.cache).warm(scenario=job.scenario)
    return _attempt(job, config, first_attempt)


def shard_jobs(jobs: Sequence[Job], workers: int) -> List[List[Job]]:
    """Deal jobs to *workers* shards, keeping each scenario's group of
    jobs whole (cache affinity).

    Groups are assigned heaviest-first (longest-processing-time
    greedy, using the scenarios' static ``weight`` hints times the
    group size) to the currently lightest shard; ties break on sorted
    scenario name and lowest shard index, so the assignment is fully
    deterministic.  Empty shards are dropped.
    """
    groups: Dict[str, List[Job]] = {}
    for job in jobs:
        groups.setdefault(job.scenario, []).append(job)
    order = sorted(
        groups,
        key=lambda name: (-get_scenario(name).weight * len(groups[name]), name),
    )
    shards: List[List[Job]] = [[] for _ in range(max(1, workers))]
    loads = [0.0] * len(shards)
    for name in order:
        lightest = min(range(len(shards)), key=lambda i: (loads[i], i))
        shards[lightest].extend(groups[name])
        loads[lightest] += get_scenario(name).weight * len(groups[name])
    return [shard for shard in shards if shard]


def run_batch(jobs: Sequence[Job], workers: int = 1,
              config: Optional[PoolConfig] = None) -> List[Decision]:
    """Execute *jobs*, serially (``workers <= 1``) or sharded across a
    process :class:`~repro.resilience.WorkerPool`, returning
    :class:`~repro.session.Decision` objects **in job order** either
    way.  Decisions are dict-compatible, so consumers index
    ``record["verdict"]`` etc. unchanged; call ``.record()`` for a
    plain JSON dict.

    *config* sets the per-job deadline, retry budget and chaos
    schedule (default :class:`~repro.resilience.PoolConfig`); the pool
    width is *workers*.  Jobs that exhaust their retries come back as
    quarantine records (``Decision.error`` set), never as a missing
    row.
    """
    jobs = list(jobs)
    config = config or PoolConfig()
    if workers <= 1:
        records = run_shard(jobs, config)
    else:
        records = asyncio.run(_run_pool(shard_jobs(jobs, workers), config))
    by_key = {(r["scenario"], r["engine"], r["cache"]): r
              for r in records}
    return [by_key[(j.scenario, j.engine, j.cache)] for j in jobs]


async def _run_pool(shards: List[List[Job]],
                    config: PoolConfig) -> List[Decision]:
    """Wave 0 submits each shard once; a shard whose worker died has
    each of its jobs resubmitted alone at attempt 2 (the death was
    every job's first try)."""
    pool = WorkerPool(replace(config, workers=len(shards),
                              executor="process"))

    async def run_alone(job: Job, death: Quarantined) -> Decision:
        if config.max_attempts < 2:
            return _quarantine(job, death)
        try:
            return await pool.run(run_job, job, config, key=_job_key(job),
                                  first_attempt=2)
        except Quarantined as failure:
            return _quarantine(job, failure)

    async def run_wave(shard: List[Job]) -> List[Decision]:
        try:
            return await pool.submit(run_shard, shard, config)
        except Quarantined as death:
            return [await run_alone(job, death) for job in shard]

    try:
        results = await asyncio.gather(*map(run_wave, shards))
    finally:
        await pool.shutdown()
    return [decision for shard in results for decision in shard]


def verdicts(records: Sequence[Dict]) -> List[Tuple[str, str, str]]:
    """The comparable core of a batch: ``(scenario, engine,
    repr(verdict))`` per record, in order.  Two runs of the same matrix
    -- serial vs parallel, N vs M workers -- must produce equal lists
    (asserted by ``tests/test_runner.py`` and the CLI's
    ``--verify-serial``)."""
    return [(r["scenario"], r["engine"], repr(r["verdict"]))
            for r in records]


def select_scenarios(spec: str) -> List[str]:
    """Resolve a CLI scenario spec to sorted registry names.

    ``all`` -- every scenario; ``kind:<kind>`` / ``tag:<tag>`` --
    filtered; otherwise a comma-separated list of names (each
    validated)."""
    if spec == "all":
        return scenario_names()
    if spec.startswith("kind:"):
        names = scenario_names(kind=spec[len("kind:"):])
    elif spec.startswith("tag:"):
        names = scenario_names(tag=spec[len("tag:"):])
    else:
        names = sorted(spec.split(","))
        for name in names:
            get_scenario(name)
    if not names:
        raise ValueError(f"scenario spec {spec!r} selected nothing")
    return names
