"""The resilient execution layer: error taxonomy, deterministic
chaos, retries on a job's own engine, the worker pool, and universal
deadlines (:mod:`repro.resilience` plus the runner integration).

Every fault is planted deterministically through a
:class:`~repro.resilience.ChaosSchedule`, so each test asserts an
exact recovery outcome: the batch completes, the retried verdict is
bit-identical to a clean run, or the job is quarantined with the
right category and attempt count.  Pool tests keep the matrix tiny --
this suite must stay fast on single-core CI runners.
"""

import asyncio
import json
import time

import pytest

from repro.budget import BudgetExhausted, check_deadline, time_budget
from repro.resilience import (
    ERROR_CATEGORIES,
    ChaosSchedule,
    Fault,
    PayloadCorruption,
    PoolConfig,
    Quarantined,
    RetryPolicy,
    SimulatedWorkerCrash,
    WorkerPool,
    attempt_loop,
    classify_failure,
    parse_schedule,
)
from repro.resilience import chaos
from repro.runner import cli as runner_cli
from repro.runner.batch import (
    Job,
    build_jobs,
    quarantine_decision,
    run_batch,
    run_shard,
    verdicts,
)
from repro.session import Decision, Session
from repro.datalog.parser import parse_program

from .conftest import run_in_thread

# One boundedness + one containment scenario: small enough for
# repeated pool spawns.
SMALL = ["bounded_buys", "contain_tc_trunc2"]

#: A small evaluation scenario, run on the columnar engine.
EVAL = "eval_sg_tree_d5"


def small_jobs(scenarios=SMALL):
    return build_jobs(scenarios, engines=("columnar",))


# ----------------------------------------------------------------------
# Error taxonomy.
# ----------------------------------------------------------------------

def test_error_taxonomy():
    assert classify_failure(BudgetExhausted(1.5)) == "timeout"
    assert classify_failure(MemoryError()) == "memory"
    assert classify_failure(SimulatedWorkerCrash()) == "crash"
    assert classify_failure(PayloadCorruption()) == "corrupt"
    assert classify_failure(ValueError("boom")) == "error"
    # Every category the classifier can emit is in the summary order.
    for exc in (BudgetExhausted(1.0), MemoryError(),
                SimulatedWorkerCrash(), PayloadCorruption(), OSError()):
        assert classify_failure(exc) in ERROR_CATEGORIES


# ----------------------------------------------------------------------
# Chaos schedules.
# ----------------------------------------------------------------------

def test_fault_matching():
    fault = Fault("memory", scenario="bounded_buys", attempt=2)
    assert fault.matches("bounded_buys", nth=7, attempt=2)
    assert not fault.matches("bounded_buys", nth=7, attempt=1)
    assert not fault.matches("other", nth=7, attempt=2)
    wildcard = Fault("crash", attempt=None, nth=3)
    assert wildcard.matches("anything", nth=3, attempt=9)
    assert not wildcard.matches("anything", nth=4, attempt=9)
    with pytest.raises(ValueError, match="unknown fault kind"):
        Fault("gremlin")


def test_schedule_spec_round_trips():
    spec = ("crash:scenario=eval_sg_tree_d5,attempt=1;"
            "hang:nth=3,attempt=*,seconds=5;memory:attempt=2")
    schedule = parse_schedule(spec)
    assert [f.kind for f in schedule.faults] == ["crash", "hang", "memory"]
    assert schedule.faults[1].attempt is None  # the wildcard
    assert parse_schedule(schedule.spec()) == schedule
    assert not parse_schedule("")  # empty schedule is falsy


def test_schedule_from_env(monkeypatch):
    monkeypatch.setenv(chaos.CHAOS_ENV, "memory:scenario=x,attempt=1")
    assert chaos.from_env().faults[0].kind == "memory"
    monkeypatch.delenv(chaos.CHAOS_ENV)
    assert not chaos.from_env()


def test_inject_raises_taxonomy_faults():
    schedule = parse_schedule("memory:scenario=a;corrupt:scenario=b;"
                              "crash:scenario=c")
    with pytest.raises(MemoryError):
        chaos.inject("a", nth=0, attempt=1, schedule=schedule)
    with pytest.raises(PayloadCorruption):
        chaos.inject("b", nth=0, attempt=1, schedule=schedule)
    # Outside a pool worker a crash is simulated, not a real exit.
    with pytest.raises(SimulatedWorkerCrash):
        chaos.inject("c", nth=0, attempt=1, schedule=schedule)
    chaos.inject("unmatched", nth=0, attempt=1, schedule=schedule)


def test_hang_fault_is_cut_by_the_deadline():
    schedule = ChaosSchedule((Fault("hang", scenario="h", seconds=30.0),))
    start = time.perf_counter()
    with pytest.raises(BudgetExhausted):
        with time_budget(0.2):
            chaos.inject("h", nth=0, attempt=1, schedule=schedule)
    assert time.perf_counter() - start < 10.0


# ----------------------------------------------------------------------
# Retry backoff.
# ----------------------------------------------------------------------

def test_backoff_is_deterministic_and_bounded():
    policy = RetryPolicy(backoff_base_s=0.05, backoff_max_s=2.0)
    key = "bounded_buys/columnar/warm"
    assert policy.backoff(key, 0) == 0.0
    series = [policy.backoff(key, n) for n in range(1, 8)]
    assert series == [policy.backoff(key, n) for n in range(1, 8)]
    assert all(0.0 < s <= 2.0 for s in series)
    # Different jobs jitter differently (same failure count).
    assert policy.backoff(key, 1) != policy.backoff("other/job", 1)


# ----------------------------------------------------------------------
# Deadlines off the main thread.
# ----------------------------------------------------------------------

def test_cooperative_deadline_fires_off_main_thread():
    def body():
        with time_budget(0.1):
            while True:
                check_deadline()
                time.sleep(0.005)

    with pytest.raises(BudgetExhausted):
        run_in_thread(body)


def test_session_deadline_fires_off_main_thread():
    """``deadline=`` on a Session decision is honored off the main
    thread: the instrumented antichain loops hit the hook."""
    program = parse_program(
        """
        buys(X, Y) :- likes(X, Y).
        buys(X, Y) :- trendy(X), buys(Z, Y).
        """
    )

    def body():
        Session().bounded(program, "buys", deadline=1e-6)

    with pytest.raises(BudgetExhausted):
        run_in_thread(body)


# ----------------------------------------------------------------------
# Serial resilience: retry, quarantine.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("fault", ["memory", "hang"])
def test_failed_job_retries_on_its_own_engine(fault):
    """Every failure retries on the job's own engine: the answer is
    the clean run's, computed by the engine the job asked for."""
    # No scenario key: the fault fires on the first try of both jobs.
    spec = {"memory": "memory:attempt=1",
            "hang": "hang:attempt=1,seconds=30"}[fault]
    config = PoolConfig(deadline_s=0.3 if fault == "hang" else None,
                        backoff_base_s=0.001, chaos=spec)
    jobs = small_jobs(scenarios=["bounded_buys", EVAL])
    clean = run_shard(jobs)
    recovered = run_shard(jobs, config=config)
    category = "timeout" if fault == "hang" else "memory"
    for before, decision in zip(clean, recovered):
        assert decision.ok is True and decision.attempts == 2
        assert decision.meta["engine"] == "columnar"
        # The fingerprint names the configuration that computed.
        assert decision.fingerprint == before.fingerprint
        assert decision["verdict"] == before["verdict"]
        assert decision.checksum == before.checksum
        assert decision.stats["retried_after"][0].startswith(
            f"attempt 1 {category}: ")
        # The record survives a JSON round-trip and carries the clean
        # run's fields, no more: no error, no other answering engine.
        record = json.loads(json.dumps(decision.record()))
        assert record["attempts"] == 2
        assert record.keys() == before.record().keys()
    # The evaluation job (bounded_buys sorts first) has a row digest.
    assert recovered[1]["scenario"] == EVAL
    assert recovered[1].checksum is not None


def test_wildcard_crash_quarantines_after_max_attempts():
    jobs = small_jobs(scenarios=["bounded_buys"])
    config = PoolConfig(max_attempts=3, backoff_base_s=0.001,
                        chaos="crash:scenario=bounded_buys,attempt=*")
    [decision] = run_shard(jobs, config=config)
    assert decision.error == "crash"
    assert decision.attempts == 3
    assert decision.ok is None
    assert not decision  # error decisions are falsy
    record = json.loads(json.dumps(decision.record()))
    assert record["verdict"] == {"error": "crash"}
    assert record["error"] == "crash" and record["attempts"] == 3


def test_hang_fault_is_bounded_and_recovered_serially():
    jobs = small_jobs(scenarios=["bounded_buys"])
    config = PoolConfig(deadline_s=0.3, backoff_base_s=0.001,
                        chaos="hang:scenario=bounded_buys,attempt=1,"
                              "seconds=30")
    start = time.perf_counter()
    [decision] = run_shard(jobs, config=config)
    wall = time.perf_counter() - start
    assert wall < 10.0, f"hang was not cut by the deadline ({wall:.1f}s)"
    assert decision.ok is True and decision.attempts == 2
    assert any("timeout" in entry
               for entry in decision.stats["retried_after"])


def test_quarantine_decision_shape():
    decision = quarantine_decision(
        Job("bounded_buys", "columnar"),
        attempts=3, category="crash", message="worker died")
    record = json.loads(json.dumps(decision.record()))
    assert record["kind"] == "boundedness"
    assert record["ok"] is None
    assert record["scenario"] == "bounded_buys"
    assert record["stats"]["failure"] == "worker died"


# ----------------------------------------------------------------------
# The worker pool (real worker death).
# ----------------------------------------------------------------------

def test_pool_crash_mid_shard_completes_and_matches_serial():
    """A worker really dying (``os._exit``) mid-batch must not abort
    the run -- and the recovered verdicts must be bit-identical to a
    clean serial execution."""
    jobs = small_jobs()
    clean = run_batch(jobs, workers=1)
    config = PoolConfig(backoff_base_s=0.001,
                        chaos="crash:scenario=bounded_buys,attempt=1")
    recovered = run_batch(jobs, workers=2, config=config)
    assert verdicts(recovered) == verdicts(clean)
    assert all(r["ok"] for r in recovered)
    by_scenario = {r["scenario"]: r for r in recovered}
    assert by_scenario["bounded_buys"]["attempts"] >= 2


def test_pool_wildcard_crash_quarantines_without_charging_neighbors():
    jobs = small_jobs()
    config = PoolConfig(max_attempts=2, backoff_base_s=0.001,
                        chaos="crash:scenario=bounded_buys,attempt=*")
    results = run_batch(jobs, workers=2, config=config)
    by_scenario = {r["scenario"]: r for r in results}
    poisoned = by_scenario["bounded_buys"]
    assert poisoned["error"] == "crash"
    assert poisoned["attempts"] == 2
    # The innocent scenario answered normally.
    assert by_scenario["contain_tc_trunc2"]["ok"] is True
    assert "error" not in by_scenario["contain_tc_trunc2"]


def _labelled_job(label, config, first_attempt):
    """A pool job: the attempt loop around a trivial decision."""
    return attempt_loop(
        lambda: Decision("evaluation", {"label": label}),
        config, key=label, label=label, deadline_s=None,
        first_attempt=first_attempt)


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_worker_pool_quarantines_poison_beside_an_answering_neighbour(
        executor):
    """The one pool, both executors: a job crashing on every try is
    quarantined after exactly ``max_attempts`` tries (in-worker
    retries in thread mode, respawns and isolated resubmissions in
    process mode) while the job submitted beside it answers."""
    config = PoolConfig(workers=2, executor=executor, max_attempts=3,
                        backoff_base_s=0.001,
                        chaos="crash:scenario=poison,attempt=*")

    async def drive():
        pool = WorkerPool(config)
        try:
            outcomes = await asyncio.gather(
                pool.run(_labelled_job, "poison", config, key="poison"),
                pool.run(_labelled_job, "neighbour", config,
                         key="neighbour"),
                return_exceptions=True)
        finally:
            await pool.shutdown()
        return outcomes, pool.stats()

    (poisoned, neighbour), stats = asyncio.run(drive())
    assert isinstance(poisoned, Quarantined)
    assert poisoned.category == "crash"
    assert poisoned.attempts == config.max_attempts
    assert neighbour.verdict == {"label": "neighbour"}
    assert stats["quarantined"] == 1 and stats["completed"] == 1
    assert stats["retries"] >= config.max_attempts - 1
    if executor == "process":
        assert stats["respawns"] >= 1


# ----------------------------------------------------------------------
# CLI integration: exit codes, summary table, quarantine artifact.
# ----------------------------------------------------------------------

def test_cli_recovers_and_exits_zero(capsys):
    code = runner_cli.main([
        "--scenarios", EVAL, "--engines", "columnar", "--no-write",
        "--chaos", f"memory:scenario={EVAL},attempt=1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "attempts=2" in out and "degraded" not in out
    assert "error summary:" in out
    assert "jobs retried: 1, quarantined: 0" in out


def test_cli_quarantine_exits_two_and_writes_artifact(tmp_path, capsys):
    artifact = tmp_path / "quarantine.json"
    code = runner_cli.main([
        "--scenarios", "bounded_buys", "--engines", "columnar",
        "--no-write", "--max-attempts", "2",
        "--chaos", "crash:scenario=bounded_buys,attempt=*",
        "--quarantine-out", str(artifact)])
    out = capsys.readouterr().out
    assert code == 2
    assert "QUAR" in out and "crash" in out
    [record] = json.loads(artifact.read_text())
    assert record["error"] == "crash" and record["attempts"] == 2


# ----------------------------------------------------------------------
# Fuzz chaos mode.
# ----------------------------------------------------------------------

def test_fuzz_chaos_mode_recovers_every_planted_fault(tmp_path):
    from repro.fuzz import planted_fault, run_fuzz

    expected = sum(
        planted_fault(7, 3, index, "case") is not None for index in range(9))
    assert expected >= 1  # the chaos draw really plants something
    report = run_fuzz(seed=3, iterations=9, matrix="quick", shrink=False,
                      chaos_seed=7, out_dir=tmp_path)
    assert report.ok
    assert report.faults_injected == expected
    assert report.faults_recovered == report.faults_injected
    # Chaos changes no verdicts: a clean sweep of the same seed agrees.
    assert run_fuzz(seed=3, iterations=9, matrix="quick", shrink=False,
                    out_dir=tmp_path).divergences == report.divergences == []
    assert not list(tmp_path.iterdir())  # nothing written when green
