"""Workload tour: generated scenario families and the batch runner.

Walks the scenario axis added on top of the decision procedures:

1. seed-deterministic program families with ground truth known by
   construction (bounded vs unbounded, covered sirups);
2. the scenario registry that names every workload;
3. a mini batch through ``repro.runner`` -- the same machinery behind
   ``python -m repro scenarios``.

Run:  PYTHONPATH=src python examples/workload_tour.py
"""

from repro import Session
from repro.datalog import program_to_source
from repro.runner import build_jobs, run_batch, verdicts
from repro.workloads import (
    bounded_program,
    bounded_unbounded_pairs,
    get_scenario,
    run_scenario,
    scenario_names,
    sirup,
)

# ----------------------------------------------------------------------
# 1. Generated families: same seed, same program, known verdict.
# ----------------------------------------------------------------------

print("== a generated sirup (seed 7) ==")
print(program_to_source(sirup(2, seed=7)))
assert program_to_source(sirup(2, seed=7)) == program_to_source(sirup(2, seed=7))

print("== a generated bounded program (2 guards, seed 3) ==")
session = Session(name="tour")
program = bounded_program(2, seed=3)
print(program_to_source(program))
certificate = session.bounded(program, "p", max_depth=3)
print(f"bounded: {certificate.verdict['bounded']}, "
      f"certificate depth: {certificate.verdict['depth']}")
assert certificate and certificate.verdict["depth"] == 2

print("== a labeled bounded/unbounded stream (seed 21) ==")
for candidate, goal, is_bounded in bounded_unbounded_pairs(4, seed=21):
    decision = session.bounded(candidate, goal, max_depth=3)
    verdict = "bounded" if decision else "no certificate"
    print(f"  label={'bounded' if is_bounded else 'unbounded':9s} -> {verdict}")
    assert bool(decision) == is_bounded

# ----------------------------------------------------------------------
# 2. The registry: named, self-checking scenarios.
# ----------------------------------------------------------------------

print(f"\n== registry: {len(scenario_names())} scenarios ==")
for name in scenario_names(kind="boundedness"):
    scenario = get_scenario(name)
    print(f"  {name:24s} {scenario.description}")

result = session.run_scenario("equiv_buys_bounded")
print(f"equiv_buys_bounded -> {result['verdict']} (ground truth ok: {result['ok']})")
assert result["ok"]
# run_scenario (the free function) returns the same Decision shape:
assert run_scenario(get_scenario("equiv_buys_bounded"))["verdict"] == result["verdict"]

# ----------------------------------------------------------------------
# 3. A mini batch through the runner (serial here; python -m repro
#    scenarios shards the same jobs across worker processes).
# ----------------------------------------------------------------------

print("\n== mini batch: 3 decision scenarios + 1 evaluation x 2 engines ==")
jobs = build_jobs(["bounded_buys", "contain_tc_trunc2", "unbounded_tc",
                   "eval_sg_tree_d5"], engines=("columnar", "interpretive"))
records = run_batch(jobs, workers=1)
for record in records:
    print(f"  {record['scenario']:20s} {record['engine']:12s} "
          f"{record['seconds']*1000:7.1f}ms  {record['verdict']}")
assert all(record["ok"] for record in records)
assert len(verdicts(records)) == 5
print("all verdicts match ground truth")
