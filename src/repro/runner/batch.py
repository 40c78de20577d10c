"""The batch decision service: scenario matrices, sharded.

This module turns the scenario registry
(:mod:`repro.workloads.scenarios`) into a **job matrix** -- scenario x
:class:`~repro.datalog.engine.EngineConfig` x
:class:`~repro.automata.kernel.KernelConfig` -- and executes it either
serially or sharded across a :class:`concurrent.futures.ProcessPoolExecutor`.

Design points (each load-bearing for correctness or fairness):

* **Deterministic job ordering.**  Jobs are sorted by ``(scenario,
  engine, kernel)`` and results are returned in job order regardless
  of which worker finished first, so a parallel run is comparable to a
  serial run entry-by-entry (``verdicts`` below, and the differential
  test in ``tests/test_runner.py``).
* **Jobs travel by name.**  A job is four strings; workers rebuild
  payloads from the registry, so nothing heavyweight crosses the
  process boundary and every worker constructs bit-identical inputs.
* **Scenario-affine sharding.**  Jobs are grouped by scenario and the
  groups are dealt round-robin across workers, so all cells of one
  scenario (both kernels, both engines) land in the same process and
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
* **Resilience.**  The parallel path runs under the
  :mod:`repro.resilience` supervisor: a worker crash no longer aborts
  the batch -- the pool is respawned and the dead shard's jobs retry
  in isolation, with bounded attempts and quarantine records
  (``Decision.error`` set, exit code 2 from the CLI) for jobs that
  never succeed.  A :class:`~repro.resilience.ResilienceConfig` adds
  per-job deadlines, the degradation ladder (failed jobs retry one
  rung down: columnar -> interpretive, bitset ->
  frozenset), and deterministic chaos injection for the fault tests.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ..automata.kernel import KernelConfig
from ..budget import disarm_alarm, time_budget
from ..datalog.engine import EngineConfig
from ..resilience import (
    ResilienceConfig,
    classify_failure,
    ladder_rungs,
    rung_label,
    run_supervised,
)
from ..resilience import chaos as _chaos
from ..resilience.supervisor import beat as _beat
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

#: Named kernel configurations the matrix can range over.
KERNEL_CONFIGS: Dict[str, KernelConfig] = {
    "bitset": KernelConfig(backend="bitset"),
    "frozenset": KernelConfig(backend="frozenset"),
}

CACHE_MODES = ("warm", "cold")


@dataclass(frozen=True, order=True)
class Job:
    """One cell of the scenario matrix (all fields are strings, so a
    job pickles trivially and sorts deterministically)."""

    scenario: str
    engine: str
    kernel: str
    cache: str = "warm"


def build_jobs(scenarios: Sequence[str],
               engines: Sequence[str] = ("columnar",),
               kernels: Sequence[str] = ("bitset", "frozenset"),
               cache: str = "warm") -> List[Job]:
    """The deterministic job matrix for *scenarios*.

    Decision scenarios (containment / equivalence / boundedness) range
    over *kernels* -- the automaton backend is what their verdicts
    exercise -- and run on the first engine (the engine only powers
    probes and backward containments).  Evaluation and magic scenarios
    range over *engines* and ignore the kernel.  ``cache`` is stamped
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
    for label in kernels:
        if label not in KERNEL_CONFIGS:
            raise ValueError(f"unknown kernel {label!r}; "
                             f"known: {sorted(KERNEL_CONFIGS)}")
    jobs: List[Job] = []
    for name in scenarios:
        scenario = get_scenario(name)
        if scenario.kind in DECISION_KINDS:
            jobs.extend(Job(name, engines[0], kernel, cache)
                        for kernel in kernels)
        else:
            scenario_engines = engines
            if {"scale", "stress"} & set(scenario.tags):
                columnar = [e for e in engines if e != "interpretive"]
                scenario_engines = columnar or engines
            jobs.extend(Job(name, engine, kernels[0], cache)
                        for engine in scenario_engines)
    return sorted(jobs)


# ----------------------------------------------------------------------
# Worker-side execution.
# ----------------------------------------------------------------------

# Per-process warm sessions, one per engine label: reused across warm
# jobs so compiled plans and automaton caches amortize, discarded (and
# replaced by fresh private sessions) in cold mode.  Decision jobs all
# run on the matrix's first engine, so the kernel-neutral automaton
# caches are shared across that scenario's kernel cells exactly as a
# serial run would share them.
_SESSIONS: Dict[str, Session] = {}


def worker_session(label: str, cache: str = "warm",
                   sessions: Optional[Dict[str, Session]] = None,
                   name: str = "runner",
                   kernel: Optional[str] = None) -> Session:
    """The per-worker :class:`~repro.session.Session` for an engine
    label: reused across warm jobs (compiled plans and automaton
    caches amortize), fresh and private in cold mode.

    *sessions* overrides the store the warm sessions live in (default:
    this module's per-process dict) -- the decision service passes a
    per-thread store so its thread-executor workers stay isolated
    while sharing this lifecycle.  *kernel* pins the session's kernel
    config (and joins the store key), so decisions report the exact
    (engine, kernel) fingerprint; ``None`` keeps the batch runner's
    behaviour of one session per engine with per-call kernels.
    """
    key = label if kernel is None else f"{label}/{kernel}"
    kernel_config = None if kernel is None else KERNEL_CONFIGS[kernel]
    if cache == "cold":
        return Session(engine=ENGINE_CONFIGS[label], kernel=kernel_config,
                       cache="private", name=f"{name}-cold-{key}")
    store = _SESSIONS if sessions is None else sessions
    session = store.get(key)
    if session is None:
        session = store[key] = Session(
            engine=ENGINE_CONFIGS[label], kernel=kernel_config,
            cache="private", name=f"{name}-{key}")
        # A freshly spawned (or respawned) worker skips cold start
        # when a warm-state snapshot for this config is on disk
        # (no-op unless REPRO_SNAPSHOT_DIR / --snapshot-dir is set).
        restore_session(session)
    return session


def _session_for(label: str, cache: str) -> Session:
    return worker_session(label, cache)


def _run_cell(job: Job, engine_label: str, kernel_label: str,
              deadline: Optional[float] = None) -> Decision:
    """Run *job*'s scenario on an explicit (engine, kernel) -- the
    job's own configuration normally, a ladder rung on degraded
    retries.  ``meta`` always carries the *requested* cell (the batch
    reassembles results by it); :attr:`~repro.session.Decision.degraded_to`
    records the answering rung when they differ."""
    scenario = get_scenario(job.scenario)
    if job.cache == "cold":
        _SESSIONS.clear()
    session = _session_for(engine_label, job.cache)
    kernel = KERNEL_CONFIGS[kernel_label]
    start = time.perf_counter()
    decision = session.run_scenario(scenario, kernel=kernel,
                                    deadline=deadline)
    seconds = time.perf_counter() - start
    decision.meta.update({
        "scenario": job.scenario,
        "kind": scenario.kind,
        "engine": job.engine,
        "kernel": job.kernel,
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
    return _run_cell(job, job.engine, job.kernel)


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
            "kernel": job.kernel,
            "cache": job.cache,
            "seconds": 0.0,
            "pid": os.getpid(),
        },
    )


def run_job_resilient(job: Job, resilience: ResilienceConfig,
                      attempt: int = 1) -> Decision:
    """Run one job under the resilience policy: chaos injection, the
    per-job deadline, and the degradation ladder.

    Tries start at *attempt* (>1 when the supervisor resubmits a job
    whose worker died) and walk the ladder one rung per failure --
    staying on the last rung once the ladder is exhausted -- until a
    try succeeds or ``max_attempts`` total tries are spent, at which
    point the job is quarantined in place.  Worker death is the one
    failure this function cannot absorb: a ``crash`` fault inside a
    real pool worker exits the process and becomes the supervisor's
    problem (in a serial run it raises and is retried here like any
    other failure).
    """
    schedule = (resilience.chaos if resilience.chaos is not None
                else _chaos.from_env())
    decision_kind = get_scenario(job.scenario).kind in DECISION_KINDS
    if resilience.ladder:
        rungs = ladder_rungs(job.engine, job.kernel, decision_kind)
    else:
        rungs = [(job.engine, job.kernel)]
    requested = rung_label(job.engine, job.kernel)
    failures: List[str] = []
    last_category = "error"
    rung_index = 0
    while attempt <= resilience.max_attempts:
        engine_label, kernel_label = rungs[min(rung_index,
                                               len(rungs) - 1)]
        _beat()
        nth = _chaos.next_job_index()
        try:
            # The outer budget covers chaos injection too: a planted
            # hang is interruptible by the same deadline as the cell
            # it delays.
            with time_budget(resilience.deadline_s):
                _chaos.inject(job.scenario, nth, attempt,
                              schedule=schedule)
                decision = _run_cell(job, engine_label, kernel_label,
                                     deadline=resilience.deadline_s)
        except Exception as exc:
            failures.append(f"attempt {attempt} "
                            f"[{engine_label}/{kernel_label}] "
                            f"{classify_failure(exc)}: {exc}")
            last_category = classify_failure(exc)
            attempt += 1
            rung_index += 1
            continue
        finally:
            _beat()
        decision.attempts = attempt
        answered = rung_label(engine_label, kernel_label)
        if answered != requested:
            decision.degraded_to = answered
        if failures:
            decision.stats.setdefault("retried_after", list(failures))
        return decision
    return quarantine_decision(
        job, attempts=attempt - 1, category=last_category,
        message="; ".join(failures),
    )


def execute_job(job: Job) -> Dict:
    """Run one job and return its JSON-serializable trajectory record
    (the :meth:`~repro.session.Decision.record` of
    :func:`run_decision` -- kept for callers that want plain dicts)."""
    return run_decision(job).record()


def run_shard(jobs: Sequence[Job],
              resilience: Optional[ResilienceConfig] = None) -> List[Decision]:
    """Execute a shard of jobs in the current process, in order.

    In warm mode each scenario's session caches are pre-built once
    (before its first job, via :meth:`~repro.session.Session.warm`) so
    the recorded per-job seconds are steady-state -- without this, the
    first kernel's seconds would absorb one-time kernel-neutral
    automaton construction that later kernels reuse for free.  Cold
    jobs get fresh sessions in :func:`run_decision` instead.

    With a *resilience* config, jobs run through
    :func:`run_job_resilient` (chaos injection, deadline, degradation
    ladder, in-place quarantine); without one, failures propagate as
    they always did.
    """
    decisions: List[Decision] = []
    warmed: set = set()
    for job in jobs:
        if job.cache == "warm" and job.scenario not in warmed:
            _session_for(job.engine, job.cache).warm(scenario=job.scenario)
            warmed.add(job.scenario)
        if resilience is None:
            decisions.append(run_decision(job))
        else:
            decisions.append(run_job_resilient(job, resilience))
    if configured_dir():
        # Persist this worker's warm sessions for the next run (or a
        # respawned successor).  Concurrent shards racing on one key
        # are safe: writes are atomic, last writer wins.
        for session in _SESSIONS.values():
            save_snapshot(session)
    return decisions


def _run_isolated(job: Job, attempt: int,
                  resilience: ResilienceConfig) -> Decision:
    """Supervisor retry entry point: one job, alone, in whatever
    worker picks it up (warm its scenario first so the cache mode's
    semantics survive the respawn)."""
    if job.cache == "warm":
        _session_for(job.engine, job.cache).warm(scenario=job.scenario)
    return run_job_resilient(job, resilience, attempt=attempt)


def _worker_init() -> None:
    """Pool-worker initializer (runs on every spawn *and* respawn):
    a respawned worker must not inherit a dying incarnation's armed
    itimer -- a stale alarm would kill its first retried job at an
    arbitrary point -- and must know it is a worker so ``crash``
    faults really exit."""
    disarm_alarm()
    _chaos.mark_worker()


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
              resilience: Optional[ResilienceConfig] = None) -> List[Decision]:
    """Execute *jobs*, serially (``workers <= 1``) or sharded across a
    supervised process pool, returning
    :class:`~repro.session.Decision` objects **in job order** either
    way.  Decisions are dict-compatible, so consumers index
    ``record["verdict"]`` etc. unchanged; call ``.record()`` for a
    plain JSON dict.

    The parallel path is always supervised (worker crashes respawn the
    pool and retry the dead shard's jobs instead of aborting the
    batch); *resilience* tunes the policy -- deadline, retry budget,
    ladder, chaos schedule -- and additionally arms the serial path's
    per-job recovery.  Jobs that exhaust their retries come back as
    quarantine records (``Decision.error`` set), never as a missing
    row.
    """
    jobs = list(jobs)
    if workers <= 1:
        records = run_shard(jobs, resilience)
    else:
        config = resilience or ResilienceConfig()
        shards = shard_jobs(jobs, workers)
        outcome = run_supervised(
            shards,
            partial(run_shard, resilience=config),
            partial(_run_isolated, resilience=config),
            max_workers=len(shards),
            policy=config.policy(),
            initializer=_worker_init,
            stall_timeout_s=config.stall_timeout_s,
            job_key=lambda job: f"{job.scenario}/{job.engine}/"
                                f"{job.kernel}/{job.cache}",
        )
        records = list(outcome.results)
        records.extend(
            quarantine_decision(q.job, attempts=q.attempts,
                                category=q.category, message=q.message)
            for q in outcome.quarantined
        )
    by_key = {(r["scenario"], r["engine"], r["kernel"], r["cache"]): r
              for r in records}
    return [by_key[(j.scenario, j.engine, j.kernel, j.cache)] for j in jobs]


def verdicts(records: Sequence[Dict]) -> List[Tuple[str, str, str, str]]:
    """The comparable core of a batch: ``(scenario, engine, kernel,
    repr(verdict))`` per record, in order.  Two runs of the same matrix
    -- serial vs parallel, N vs M workers -- must produce equal lists
    (asserted by ``tests/test_runner.py`` and the CLI's
    ``--verify-serial``)."""
    return [(r["scenario"], r["engine"], r["kernel"], repr(r["verdict"]))
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
