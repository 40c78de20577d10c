"""The batch runner: matrix construction, sharding, parallel equality.

The load-bearing property is **serial/parallel equivalence**: the same
job matrix must yield identical verdicts whether executed in-process
or sharded across a worker pool (any divergence would mean the shared
caches or the sharding leak state into verdicts).
"""

import json
import os

import pytest

from repro.runner import cli as runner_cli
from repro.runner.batch import (
    Job,
    build_jobs,
    run_decision,
    run_batch,
    select_scenarios,
    shard_jobs,
    verdicts,
)
from repro.workloads import DECISION_KINDS, REGISTRY, scenario_names

# A small but representative matrix: decision + evaluation + magic
# kinds, paper and generated programs.  Kept light so the parallel
# differential stays fast on single-core CI runners.
SMALL = ["bounded_buys", "contain_tc_trunc2", "contain_chain_w1",
         "equiv_buys_recursive", "eval_sg_tree_d5", "magic_star_8x12"]


def test_build_jobs_matrix_shape():
    jobs = build_jobs(scenario_names(), engines=("columnar", "interpretive"))
    decision = [n for n in scenario_names()
                if REGISTRY[n].kind in DECISION_KINDS]
    other = [n for n in scenario_names()
             if REGISTRY[n].kind not in DECISION_KINDS]
    # tag:scale / tag:stress evaluation scenarios drop the interpretive
    # engine (one cell instead of two); everything else gets the full
    # cross.
    dropped = [n for n in other if {"scale", "stress"} & set(REGISTRY[n].tags)]
    assert len(jobs) == len(decision) + 2 * len(other) - len(dropped)
    # Decision scenarios run once, on the first engine.
    assert {j.engine for j in jobs if j.scenario in decision} == {"columnar"}
    # Deterministic: building twice gives the same ordered list.
    assert jobs == build_jobs(scenario_names(),
                              engines=("columnar", "interpretive"))
    assert jobs == sorted(jobs)


def test_build_jobs_validates_labels():
    with pytest.raises(ValueError, match="unknown engine"):
        build_jobs(SMALL, engines=("turbo",))


def test_scale_jobs_skip_interpretive_engine():
    jobs = build_jobs(["scale_chain_2hop_5k"],
                      engines=("columnar", "interpretive"))
    assert [j.engine for j in jobs] == ["columnar"]
    # An explicit interpretive-only request is honored.
    jobs = build_jobs(["scale_chain_2hop_5k"], engines=("interpretive",))
    assert [j.engine for j in jobs] == ["interpretive"]


def test_select_scenarios_specs():
    assert select_scenarios("all") == scenario_names()
    assert select_scenarios("kind:boundedness") == scenario_names(
        kind="boundedness")
    assert select_scenarios("tag:generated") == scenario_names(tag="generated")
    assert select_scenarios("bounded_buys,unbounded_tc") == [
        "bounded_buys", "unbounded_tc"]
    with pytest.raises(KeyError):
        select_scenarios("bounded_buys,not_a_scenario")
    with pytest.raises(ValueError):
        select_scenarios("tag:no_such_tag")


def test_shard_jobs_keeps_scenario_groups_whole():
    jobs = build_jobs(scenario_names())
    shards = shard_jobs(jobs, 4)
    assert sorted(job for shard in shards for job in shard) == jobs
    for shard in shards:
        names = [job.scenario for job in shard]
        # A scenario's jobs are contiguous within exactly one shard.
        assert all(
            not any(job.scenario == name for other in shards
                    if other is not shard for job in other)
            for name in names
        )
    # Deterministic dealing.
    assert shard_jobs(jobs, 4) == shard_jobs(jobs, 4)


def test_execute_job_record_shape():
    record = run_decision(Job("bounded_buys", "columnar")).record()
    assert record["ok"] is True
    assert record["kind"] == "boundedness"
    assert record["verdict"] == {"bounded": True, "depth": 2}
    assert record["seconds"] > 0
    assert "kernel" not in record and "cache" not in record
    json.dumps(record)  # trajectory-serializable


def test_parallel_matches_serial():
    """The acceptance property: identical verdicts, in identical order,
    serial vs sharded across processes."""
    jobs = build_jobs(SMALL, engines=("columnar",))
    serial = run_batch(jobs, workers=1)
    parallel = run_batch(jobs, workers=2)
    assert verdicts(serial) == verdicts(parallel)
    assert all(r["ok"] for r in parallel)
    # The pool really ran in other processes.
    assert any(r["pid"] != os.getpid() for r in parallel)


def test_parallel_speedup_on_multicore():
    """Every runner checks serial/parallel verdict equality on a
    two-engine matrix; the wall-clock speedup assertion then runs only
    where it can be trusted (>= 4 real cores), with an explicit skip
    reason elsewhere.  On 1-core containers this test used to be
    silently skipped wholesale -- now the correctness half always runs.
    """
    import time

    jobs = build_jobs(SMALL, engines=("columnar", "interpretive"))
    serial = run_batch(jobs, workers=1)
    parallel = run_batch(jobs, workers=2)
    assert verdicts(serial) == verdicts(parallel)
    assert all(r["ok"] for r in serial + parallel)

    cores = os.cpu_count() or 1
    if cores < 4:
        pytest.skip(f"speedup timing needs >=4 real cores, have {cores}: "
                    "with fewer cores (or a loaded runner) the wall-clock "
                    "assertion is flaky; serial/parallel verdict equality "
                    "was still asserted above on this machine")

    # tag:scale scenarios are 10^5-fact EDBs -- minutes each on the
    # interpretive engine -- and tag:stress members are seconds-scale
    # even columnar, so the wall-clock matrix excludes both tiers.
    names = [n for n in scenario_names()
             if not {"scale", "stress"} & set(REGISTRY[n].tags)]
    jobs = build_jobs(names, engines=("columnar", "interpretive"))
    start = time.perf_counter()
    serial = run_batch(jobs, workers=1)
    serial_wall = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run_batch(jobs, workers=4)
    parallel_wall = time.perf_counter() - start
    assert verdicts(serial) == verdicts(parallel)
    # Measurable speedup: generous slack for pool startup and load.
    assert parallel_wall < serial_wall * 0.9, (serial_wall, parallel_wall)


def test_cli_list(capsys):
    assert runner_cli.main(["--list"]) == 0
    out = capsys.readouterr().out
    assert "bounded_buys" in out and "boundedness" in out


def test_cli_small_matrix(capsys):
    code = runner_cli.main(["--scenarios", "bounded_buys,contain_tc_trunc2",
                            "--workers", "1", "--no-write"])
    out = capsys.readouterr().out
    assert code == 0
    assert "2 jobs" in out
    assert "FAIL" not in out


def test_cli_writes_trajectories(tmp_path, capsys):
    code = runner_cli.main(["--scenarios", "bounded_buys,eval_sg_tree_d5",
                            "--workers", "1", "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    automata = json.loads((tmp_path / "BENCH_automata.json").read_text())
    plans = json.loads((tmp_path / "BENCH_plans.json").read_text())
    assert automata[-1]["entries"][0]["scenario"] == "bounded_buys"
    assert {e["scenario"] for e in plans[-1]["entries"]} == {"eval_sg_tree_d5"}
    assert automata[-1]["runner"]["source"] == "repro.runner"
